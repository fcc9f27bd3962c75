"""numpy is loaded on first use, never by the import or the closed-form
CLI, and scipy never at all: no library path imports it, and the numeric
commands and a campaign run with scipy made unimportable.

Each case runs in a fresh interpreter, since this test process has both
loaded already (scipy as a test oracle), and reports which numpy and scipy
modules ended up in sys.modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glsobolev

SRC = Path(__file__).resolve().parent.parent / "src"

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))))
"""


def _loaded(code: str) -> list:
    """numpy and scipy modules loaded after a fresh interpreter runs ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _scipy_modules(code: str) -> list:
    """scipy modules loaded after a fresh interpreter runs ``code``."""
    return [m for m in _loaded(code) if m.partition(".")[0] == "scipy"]


def _run_quietly(argv) -> str:
    """Code that runs the CLI on ``argv``, output discarded, and requires exit 0."""
    return (
        "import contextlib, io\n"
        "from glsobolev.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )


def test_import_loads_no_numpy():
    assert _loaded("import glsobolev") == []


@pytest.mark.parametrize("argv", [
    ["constants", "--A", "1,2", "--p", "2"],
    ["constants", "--A", "1,2", "--p", "2", "--B", "1,1", "--r", "2"],
    ["--version"],
    ["--help"],
], ids=["constants", "constants-trace", "version", "help"])
def test_closed_form_cli_loads_no_numpy(argv):
    code = (
        "import contextlib, io\n"
        "from glsobolev.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        status = main({argv!r})\n"
        "    except SystemExit as exc:  # --help and --version\n"
        "        status = exc.code\n"
        "assert status == 0, status\n"
    )
    assert _loaded(code) == []


def test_numeric_call_after_a_bare_import():
    value = glsobolev.weighted_lp_norm(glsobolev.bump(1.0, 1.0), (1.0, 2.0), 2.0)
    loaded = _loaded(
        "import glsobolev as gl\n"
        "value = gl.weighted_lp_norm(gl.bump(1.0, 1.0), (1.0, 2.0), 2.0)\n"
        f"assert value == {value!r}, value\n"
    )
    assert "numpy" in loaded


def test_import_loads_no_scipy():
    assert _scipy_modules("import glsobolev") == []


@pytest.mark.parametrize("argv", [
    ["constants", "--A", "1,2", "--p", "2", "--B", "1,1", "--r", "2"],
    ["zeta", "--psi", "constant:1.5,2.5", "--A", "1,2", "--q", "3"],
    ["fundamental", "--psi", "power:1.5,2.5,0.4,0.4", "--delta", "0.5,1"],
    ["fundamental", "--psi", "table:1.5=2,4=1,10=1.5", "--delta", "0.5"],
], ids=["constants", "zeta", "fundamental", "fundamental-table"])
def test_closed_form_command_loads_no_scipy(argv):
    assert _scipy_modules(_run_quietly(argv)) == []


def test_closed_form_demo_loads_no_numpy():
    demo = SRC.parent / "demos" / "01_constants_and_exponents.py"
    code = (
        "import contextlib, io, runpy\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    runpy.run_path({str(demo)!r}, run_name='__main__')\n"
    )
    assert _loaded(code) == []


def test_first_integral_loads_no_scipy():
    loaded = _scipy_modules(
        "import glsobolev as gl\n"
        "gl.weighted_lp_norm(gl.bump(1.0, 1.0), (1.0, 2.0), 2.0)\n"
    )
    assert loaded == []


# every numeric command integrates, and each starts its integrals with a
# Gauss-Jacobi head rule; the CLI has no "sobolev" command, and the gradient
# norm is the Sobolev side of one
_NUMERIC_COMMANDS = {
    "norm": ["norm", "--profile", "bump:1,1", "--A", "1,2", "--p", "2"],
    "gradient-norm": ["norm", "--profile", "bump:1,1", "--A", "1,2", "--p", "2", "--gradient"],
    "gls-norm": ["gls-norm", "--profile", "gaussian:2", "--psi", "constant:1.5", "--A", "1,2"],
    "trace": ["trace", "--profile", "bump:1,1.5", "--A", "1,1", "--B", "1", "--r", "1", "--p", "2"],
}


@pytest.mark.parametrize("argv", _NUMERIC_COMMANDS.values(), ids=_NUMERIC_COMMANDS.keys())
def test_numeric_command_loads_no_scipy(argv):
    loaded = _loaded(_run_quietly(argv))
    assert "numpy" in loaded
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []


def test_numeric_commands_and_a_campaign_run_without_scipy():
    # with None in sys.modules, any import of scipy raises ImportError
    code = "import sys\nsys.modules['scipy'] = None\n"
    code += "".join(_run_quietly(argv) for argv in _NUMERIC_COMMANDS.values())
    code += (
        "from glsobolev.verify import run_campaign\n"
        "assert run_campaign()\n"
    )
    assert "numpy" in _loaded(code)


def test_tabulated_psi_loads_no_scipy():
    loaded = _scipy_modules(
        "import glsobolev as gl\n"
        "gl.tabulated_psi([1.5, 2.0, 3.0], [2.0, 1.0, 4.0])(2.5)\n"
    )
    assert loaded == []
