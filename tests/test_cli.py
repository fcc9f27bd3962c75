import csv
import io
import json
import math
import subprocess
import sys

import pytest

import glsobolev.grand as grand_module
from glsobolev import __version__
from glsobolev.cli import CONFIG_DIR_ENV, build_parser, main
from glsobolev.constants import sharp_constant
from glsobolev.exponents import sobolev_exponent
from glsobolev.grand import constant_psi, fundamental_function, gls_norm, zeta_transform
from glsobolev.norms import weighted_gradient_norm, weighted_lp_norm
from glsobolev.profiles import bump
from glsobolev.reports import INEQUALITY_IDS


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestConstantsCommand:
    def test_sharp_constant_payload(self, capsys):
        code, payload = run_json(capsys, ["constants", "--A", "1,2", "--p", "2"])
        assert code == 0
        assert payload["effective-dimension"] == 5.0
        assert payload["C"] == pytest.approx(sharp_constant([1.0, 2.0], 2.0), rel=1e-15)
        assert payload["q"] == pytest.approx(
            sobolev_exponent([1.0, 2.0], [1.0, 2.0], 2.0), rel=1e-15
        )
        assert payload["K"] is None

    def test_supercritical_p_leaves_nulls(self, capsys):
        code, payload = run_json(capsys, ["constants", "--A", "1,2", "--p", "7"])
        assert code == 0
        assert payload["C"] is None and payload["q"] is None

    def test_trace_bracket_fields(self, capsys):
        code, payload = run_json(
            capsys,
            ["constants", "--A", "1,1", "--p", "2", "--B", "1", "--r", "1"],
        )
        assert code == 0
        assert payload["M"] > 0.0 and payload["Q"] >= 1.0
        assert payload["trace-q"] == pytest.approx(2.0 * 2.0 / 2.0, rel=1e-14)

    def test_trace_needs_both_flags(self, capsys):
        code = main(["constants", "--A", "1,1", "--p", "2", "--B", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_exponent_list(self, capsys):
        assert main(["constants", "--A", "1,zap", "--p", "2"]) == 2


class TestNormCommand:
    def test_lp_norm_value(self, capsys):
        code, payload = run_json(
            capsys, ["norm", "--profile", "gaussian:1.0", "--A", "1,2", "--p", "2"]
        )
        assert code == 0
        from glsobolev.profiles import gaussian

        assert payload["value"] == pytest.approx(
            weighted_lp_norm(gaussian(1.0), [1.0, 2.0], 2.0), rel=1e-12
        )
        assert payload["diagnostics"]["converged"] is True

    def test_gradient_flag(self, capsys):
        code, payload = run_json(
            capsys,
            ["norm", "--profile", "bump:1,1", "--A", "1,1", "--p", "2", "--gradient"],
        )
        assert code == 0
        assert payload["value"] == pytest.approx(
            weighted_gradient_norm(bump(1.0, 1.0), [1.0, 1.0], 2.0), rel=1e-12
        )

    def test_unknown_profile(self, capsys):
        assert main(["norm", "--profile", "blob:1", "--A", "1", "--p", "2"]) == 2

    def test_subunit_p(self, capsys):
        assert main(["norm", "--profile", "bump:1,1", "--A", "1", "--p", "0.5"]) == 2


class TestGlsCommands:
    def test_gls_norm_value(self, capsys):
        code, payload = run_json(
            capsys,
            ["gls-norm", "--profile", "bump:1,1", "--psi", "constant:1.5,2.5", "--A", "1,2"],
        )
        assert code == 0
        assert payload["value"] == pytest.approx(
            gls_norm(bump(1.0, 1.0), constant_psi(1.5, 2.5), [1.0, 2.0]), rel=1e-10
        )
        assert payload["diverged"] is False

    def test_divergent_norm_reported_as_inf(self, capsys):
        code, payload = run_json(
            capsys,
            ["gls-norm", "--profile", "power_tail:1.2,1", "--psi", "constant:2,6", "--A", "1,2"],
        )
        assert code == 0
        assert payload["value"] == "inf"
        assert payload["diverged"] is True

    def test_fundamental_values(self, capsys):
        code, payload = run_json(
            capsys, ["fundamental", "--psi", "power:1.5,4,0.5,0.5", "--delta", "0.1,1,10"]
        )
        assert code == 0
        psi = [0.1, 1.0, 10.0]
        from glsobolev.grand import power_endpoint_psi

        ref = power_endpoint_psi(1.5, 4.0, 0.5, 0.5)
        for row, delta in zip(payload, psi):
            assert row["value"] == pytest.approx(
                fundamental_function(ref, delta), rel=1e-12
            )

    def test_zeta_values(self, capsys):
        code, payload = run_json(
            capsys, ["zeta", "--psi", "constant:1.5,2.5", "--A", "1,2", "--q", "3,4"]
        )
        assert code == 0
        zeta = zeta_transform(constant_psi(1.5, 2.5), [1.0, 2.0])
        assert payload["support"][0] == pytest.approx(zeta.a, rel=1e-14)
        for row in payload["values"]:
            assert row["zeta"] == pytest.approx(zeta(row["q"]), rel=1e-12)

    def test_zeta_outside_support(self, capsys):
        code = main(["zeta", "--psi", "constant:1.5,2.5", "--A", "1,2", "--q", "2"])
        assert code == 2

    def test_morrey_with_measurement(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "morrey",
                "--profile", "tent:1.5",
                "--psi", "constant:5,9",
                "--A", "1,1",
                "--delta", "0.25",
                "--c2", "2.0",
                "--measure",
            ],
        )
        assert code == 0
        assert payload[0]["bound"] > 0.0
        assert payload[0]["modulus"] == pytest.approx(0.25 / 1.5, rel=1e-5)

    def test_morrey_scans_the_gradient_once(self, capsys, monkeypatch):
        real = grand_module.gls_gradient_norm
        scanned = []

        def counting(*args, **kwargs):
            scanned.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(grand_module, "gls_gradient_norm", counting)
        code, payload = run_json(
            capsys,
            ["morrey", "--profile", "tent:1.5", "--psi", "constant:5,9", "--A", "1,1",
             "--delta", "0.125,0.25,0.5"],
        )
        assert code == 0
        assert [entry["delta"] for entry in payload] == [0.125, 0.25, 0.5]
        assert len(scanned) == 1

    def test_table_psi_spec(self, capsys):
        code, payload = run_json(
            capsys,
            ["fundamental", "--psi", "table:1.5=2,2=1,3=4", "--delta", "1"],
        )
        assert code == 0
        assert payload[0]["value"] == pytest.approx(1.0, rel=1e-9)

    def test_bad_psi_spec(self, capsys):
        assert main(["fundamental", "--psi", "wavelet:1,2", "--delta", "1"]) == 2

    def test_one_sided_power_psi(self, capsys):
        code, payload = run_json(
            capsys,
            ["gls-norm", "--profile", "bump:1,1", "--psi", "power:1.5,3,0,0.5", "--A", "1,2"],
        )
        assert code == 0
        assert payload["psi"]["params"] == [["alpha", 0.0], ["beta", 0.5]]


class TestScalingCommand:
    def test_slopes_match_laws(self, capsys):
        code, payload = run_json(
            capsys, ["scaling", "--profile", "bump:1,1", "--A", "1,2", "--p", "2"]
        )
        assert code == 0
        assert payload["slope-lhs"] == pytest.approx(payload["expected-lhs"], abs=1e-8)
        assert payload["slope-rhs"] == pytest.approx(payload["expected-rhs"], abs=1e-8)
        assert payload["max-deviation"] < 1e-8


class TestRelTolOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--A", "1,2", "--p", "2"],
            ["fundamental", "--psi", "constant:1.5,2.5", "--delta", "1"],
            ["zeta", "--psi", "constant:1.5,2.5", "--A", "1,2", "--q", "3"],
            ["campaign"],
        ],
    )
    def test_rejected_where_unused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--rel-tol", "5"])
        assert exc.value.code == 2
        assert "--rel-tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--profile", "bump:1,1", "--A", "1", "--p", "2"],
            ["gls-norm", "--profile", "bump:1,1", "--psi", "constant:1.5,2.5", "--A", "1"],
            ["morrey", "--profile", "tent:1", "--psi", "constant:5,9", "--A", "1",
             "--delta", "0.5"],
            ["scaling", "--profile", "bump:1,1", "--A", "1", "--p", "2"],
            ["trace", "--profile", "bump:1,1", "--A", "1,1", "--B", "1", "--r", "1",
             "--p", "2"],
        ],
    )
    def test_accepted_where_used(self, argv):
        args = build_parser().parse_args(argv + ["--rel-tol", "1e-6"])
        assert args.rel_tol == 1e-6

    def test_out_of_range_exits_2(self, capsys):
        code = main(
            ["norm", "--profile", "bump:1,1", "--A", "1,2", "--p", "2", "--rel-tol", "10"]
        )
        assert code == 2
        assert "rel_tol" in capsys.readouterr().err


class TestUnconvergedExitCodes:
    def test_gls_norm(self, capsys, force_unconverged):
        force_unconverged("glsobolev.grand.weighted_lp_norm")
        code, payload = run_json(
            capsys,
            ["gls-norm", "--profile", "bump:1,1", "--psi", "constant:1.5,2.5", "--A", "1,2"],
        )
        assert code == 3
        assert payload["diagnostics"]["converged"] is False

    def test_gls_norm_notes_name_the_panel_budget(self, capsys):
        # the p = 1e8 end of the table makes slices exhaust the panel budget
        code, payload = run_json(
            capsys,
            ["gls-norm", "--profile", "bump:1,1.5", "--psi",
             "table:1.5=1,4=1,100000000=1000", "--A", "1,2"],
        )
        assert code == 3
        notes = payload["diagnostics"]["notes"]
        assert any("panel budget 4096 exhausted" in note for note in notes)

    def test_morrey(self, capsys, force_unconverged):
        force_unconverged("glsobolev.grand.weighted_gradient_norm")
        code, payload = run_json(
            capsys,
            ["morrey", "--profile", "tent:1.5", "--psi", "constant:5,9", "--A", "1,1",
             "--delta", "0.25,0.5"],
        )
        assert code == 3
        assert [entry["diagnostics"]["converged"] for entry in payload] == [False, False]

    def test_scaling(self, capsys, force_unconverged):
        force_unconverged("glsobolev.verify.weighted_gradient_norm")
        code, payload = run_json(
            capsys, ["scaling", "--profile", "bump:1,1", "--A", "1,2", "--p", "2"]
        )
        assert code == 3
        assert payload["diagnostics"]["converged"] is False

    def test_trace(self, capsys, unconverged_radial_integral):
        code, payload = run_json(
            capsys,
            ["trace", "--profile", "bump:1,1", "--A", "1,1", "--B", "1", "--r", "1", "--p", "2"],
        )
        assert code == 3
        assert payload["status"] == "inconclusive"


class TestTraceCommand:
    def test_pass_exit_zero(self, capsys):
        code, payload = run_json(
            capsys,
            ["trace", "--profile", "bump:1,1", "--A", "1,1", "--B", "1", "--r", "1", "--p", "2"],
        )
        assert code == 0
        assert payload["pass"] is True

    def test_fail_exit_one(self, capsys):
        code, payload = run_json(
            capsys,
            ["trace", "--profile", "gaussian:1", "--A", "1,1", "--B", "1", "--r", "1", "--p", "2.2"],
        )
        assert code == 1
        assert payload["status"] == "fail"

    @pytest.mark.parametrize("slack", ["inf", "nan"])
    def test_slack_that_disables_the_verdict_exits_2(self, capsys, slack):
        argv = ["trace", "--profile", "bump:4,1", "--A", "1,1", "--B", "1", "--r", "1",
                "--p", "2", "--slack", slack]
        assert main(argv) == 2
        assert "slack" in capsys.readouterr().err


class TestCampaignCommand:
    def test_default_campaign_artifacts(self, capsys, tmp_path):
        jsonl = tmp_path / "reports.jsonl"
        csv_path = tmp_path / "summary.csv"
        code, payload = run_json(
            capsys, ["campaign", "--jsonl", str(jsonl), "--csv", str(csv_path)]
        )
        assert code == 0
        assert isinstance(payload, list) and payload
        assert jsonl.exists() and csv_path.exists()
        assert len(jsonl.read_text().splitlines()) == len(payload)

    def test_pretty_summary(self, capsys):
        code = main(["campaign", "--output", "pretty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks:" in out.splitlines()[-1]

    def test_csv_rows(self, capsys):
        code = main(["campaign", "--output", "csv"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert code == 0
        assert len(rows) == 27
        assert {row["inequality-id"] for row in rows} <= set(INEQUALITY_IDS)

    def test_config_resolved_against_env_dir(self, capsys, tmp_path, monkeypatch):
        cfg = {
            "seed": 0,
            "checks": [
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [2.0],
                    "family": {"generator": "bump", "box": [[0.8, 1.2], [1.0, 2.0]], "count": 1},
                }
            ],
        }
        (tmp_path / "tiny.json").write_text(json.dumps(cfg))
        monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
        code, payload = run_json(capsys, ["campaign", "--config", "tiny.json"])
        assert code == 0
        assert len(payload) == 1
        assert payload[0]["inequality-id"] == "scaling-2.4"

    def test_missing_config(self, capsys):
        assert main(["campaign", "--config", "/nonexistent/cfg.json"]) == 2

    def test_malformed_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["campaign", "--config", str(bad)]) == 2

    def test_config_check_missing_family_exits_2(self, capsys, tmp_path):
        cfg = {"checks": [{"kind": "scaling", "A": [1.0], "p-values": [1.5]}]}
        path = tmp_path / "nofamily.json"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "missing key 'family'" in err

    def test_config_with_infinite_slack_exits_2(self, capsys, tmp_path):
        cfg = {
            "slack": math.inf,
            "checks": [
                {
                    "kind": "trace",
                    "A": [1.0, 1.0],
                    "B": [1.0],
                    "r": 1,
                    "p-values": [2.0],
                    "family": {"generator": "bump", "box": [[4.0, 4.0], [1.0, 1.0]], "count": 1},
                }
            ],
        }
        path = tmp_path / "infslack.json"
        path.write_text(json.dumps(cfg))  # written as the JSON token Infinity
        assert main(["campaign", "--config", str(path)]) == 2
        assert "slack" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, where",
        [
            ({"checks": "abc"}, "'checks' must be a list"),
            ({"checks": [1]}, "campaign check 0"),
            ([{"kind": "sobolev"}], "malformed campaign config"),
            (
                {"checks": [{"kind": "sobolev", "A": [1.0, 2.0], "p-values": 2.0,
                             "family": {"generator": "bump", "count": 1}}]},
                "campaign check 0",
            ),
            (
                {"checks": [{"kind": "scaling", "A": [1.0, 2.0], "p-values": [2.0],
                             "family": {"generator": "bump", "count": 1}},
                            {"kind": "sobolev", "A": [1.0, 2.0], "p-values": [2.0],
                             "family": "bump"}]},
                "campaign check 1",
            ),
        ],
        ids=["checks-string", "check-number", "top-level-list", "p-values-number",
             "family-string"],
    )
    def test_malformed_config_shape_exits_2(self, capsys, tmp_path, cfg, where):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", "--config", str(path)]) == 2
        assert where in capsys.readouterr().err


class TestOutputFormats:
    def test_csv_format(self, capsys):
        import csv as csvmod
        import io

        code = main(["constants", "--A", "1,2", "--p", "2", "--output", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csvmod.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["C"]) == pytest.approx(
            sharp_constant([1.0, 2.0], 2.0), rel=1e-15
        )
        assert rows[0]["A"] == "[1,2]"

    def test_pretty_format_nulls(self, capsys):
        code = main(["constants", "--A", "1,2", "--p", "7", "--output", "pretty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "C = null" in out


class TestArgparseBehavior:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glsobolev", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_subcommand_through_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glsobolev", "constants", "--A", "0,0,0", "--p", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["K"] == pytest.approx(payload["C"], rel=1e-12)
