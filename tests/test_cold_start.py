"""numpy and scipy are loaded on first use: never by the import or the
closed-form CLI, and scipy never by a command that integrates nothing.

Each case runs in a fresh interpreter, since this test process has both
loaded already, and reports which numpy and scipy modules ended up in
sys.modules.
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
], ids=lambda argv: argv[0])
def test_closed_form_command_loads_no_scipy(argv):
    code = (
        "import contextlib, io\n"
        "from glsobolev.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert _scipy_modules(code) == []


def test_first_integral_loads_only_scipy_special():
    loaded = _scipy_modules(
        "import glsobolev as gl\n"
        "gl.weighted_lp_norm(gl.bump(1.0, 1.0), (1.0, 2.0), 2.0)\n"
    )
    assert "scipy.special" in loaded
    assert "scipy.interpolate" not in loaded


def test_tabulated_psi_loads_scipy_interpolate():
    loaded = _scipy_modules(
        "import glsobolev as gl\n"
        "gl.tabulated_psi([1.5, 2.0, 3.0], [2.0, 1.0, 4.0])\n"
    )
    assert "scipy.interpolate" in loaded
