import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glsobolev.grand as grand_module
from glsobolev import __version__
from glsobolev.cli import CONFIG_DIR_ENV, main
from glsobolev.constants import sharp_constant
from glsobolev.exponents import sobolev_exponent
from glsobolev.grand import constant_psi, fundamental_function, gls_norm, zeta_transform
from glsobolev.norms import weighted_gradient_norm, weighted_lp_norm
from glsobolev.profiles import bump, generator_names
from glsobolev.reports import INEQUALITY_IDS
from glsobolev.verify import default_campaign_config, run_campaign


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

    @pytest.mark.parametrize("p", ["nan", "inf", "-1", "0.5"])
    def test_meaningless_p_exits_two(self, capsys, p):
        assert main(["constants", "--A", "1,2", "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: norm exponent p must satisfy 1 <= p < inf")

    def test_exponents_whose_effective_dimension_overflows_exit_two(self, capsys):
        assert main(["constants", "--A", "1e308,1e308", "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: exponent entries (1e+308, 1e+308) overflow")

    def test_p_one_keeps_c1(self, capsys):
        code, payload = run_json(capsys, ["constants", "--A", "1,2", "--p", "1"])
        assert code == 0
        assert payload["C1"] > 0.0 and payload["C"] is None

    def test_p_inside_talentis_guard_keeps_c(self, capsys):
        # 3 - 1e-13 is within 1e-12 of Talenti's endpoint m = 3, but well
        # inside the sharp constant's range (1, D) = (1, 4.5)
        code, payload = run_json(
            capsys, ["constants", "--A", "0.5,0.5,0.5", "--p", "2.9999999999999"]
        )
        assert code == 0
        assert payload["K"] is None
        assert payload["C"] > 0.0 and payload["q"] > 0.0

    @pytest.mark.parametrize("p", ["1.0000000000001", "4.9999999999999"])
    def test_p_inside_the_sharp_constants_guard_leaves_nulls(self, capsys, p):
        code, payload = run_json(capsys, ["constants", "--A", "1,2", "--p", p])
        assert code == 0
        assert payload["C"] is None and payload["q"] is None


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

    def test_extremal_profile_comes_from_the_registry(self, capsys):
        code, payload = run_json(
            capsys,
            ["norm", "--profile", "extremal:5,2", "--A", "1,2", "--p", "2", "--gradient"],
        )
        assert code == 0
        assert payload["value"] == 0.85808553080977534
        code = main(["norm", "--profile", "extremal:1,1,1", "--A", "1,2", "--p", "2"])
        assert code == 2
        assert "bad parameters for profile 'extremal'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("q", ["nan", "-1"])
    def test_zeta_names_the_rejected_q(self, capsys, q):
        code = main(["zeta", "--psi", "power:1.3,2.9,0.4,0.4", "--A", "1,2", "--q", q])
        err = capsys.readouterr().err
        assert code == 2
        assert f"exponent {float(q)} outside psi support" in err
        assert "p must be finite" not in err

    def test_divergent_single_exponent_norm_exits_three(self, capsys):
        code = main(["norm", "--profile", "power_tail:1,1", "--A", "1,2", "--p", "1.5"])
        assert code == 3
        assert capsys.readouterr().err.startswith("divergent:")

    def test_uncertified_scan_exits_three(self, capsys):
        code = main(
            [
                "gls-norm",
                "--profile", "extremal:3,2",
                "--psi", "constant:1.6,2.5",
                "--A", "0,0,0",
                "--gradient",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("not certified:")
        assert "slices could not be certified" in err

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

    @pytest.mark.parametrize("delta", ["1e200", "1e-200"])
    def test_morrey_delta_whose_measure_is_not_finite_exits_2(self, capsys, delta):
        # delta^D overflows at 1e200 and underflows to 0 at 1e-200 (D = 3.5)
        code = main(
            ["morrey", "--profile", "bump:1,1", "--psi", "power:4,7,0.3,0.3", "--A", "1,0.5",
             "--delta", delta]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: delta^D must be positive and finite")
        assert f"delta = {float(delta)}, D = 3.5" in captured.err

    def test_table_psi_spec(self, capsys):
        code, payload = run_json(
            capsys,
            ["fundamental", "--psi", "table:1.5=2,2=1,3=4", "--delta", "1"],
        )
        assert code == 0
        assert payload[0]["value"] == pytest.approx(1.0, rel=1e-9)

    def test_bad_psi_spec(self, capsys):
        assert main(["fundamental", "--psi", "wavelet:1,2", "--delta", "1"]) == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("constant:1,2,3", "constant psi takes a[,b]"),
            ("power:4,7,0.3", "power psi takes a,b,alpha,beta"),
            ("table:1.5=1,x", "bad table entry 'x', expected p=value"),
        ],
    )
    def test_malformed_psi_parameters(self, capsys, spec, message):
        assert main(["fundamental", "--psi", spec, "--delta", "1"]) == 2
        assert message in capsys.readouterr().err

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

    def test_zero_gradient_norm_exits_2_naming_it(self, capsys):
        # the step's derivative is 0, so the fit has no log to take
        assert main(["scaling", "--profile", "step:1", "--A", "1,2", "--p", "1.8"]) == 2
        err = capsys.readouterr().err
        assert "the gradient norm of step(R=1) at lam = 0.125 is 0" in err
        assert "dilation slope of a zero norm is undefined" in err


class TestRelTolOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--A", "1,2", "--p", "2"],
            ["fundamental", "--psi", "constant:1.5,2.5", "--delta", "1"],
            ["zeta", "--psi", "constant:1.5,2.5", "--A", "1,2", "--q", "3"],
            ["campaign"],
            ["norm", "--profile", "bump:1,1", "--A", "1", "--p", "2"],
            ["gls-norm", "--profile", "bump:1,1", "--psi", "constant:1.5,2.5", "--A", "1"],
            ["morrey", "--profile", "tent:1", "--psi", "constant:5,9", "--A", "1",
             "--delta", "0.5"],
            ["scaling", "--profile", "bump:1,1", "--A", "1", "--p", "2"],
            ["trace", "--profile", "bump:1,1", "--A", "1,1", "--B", "1", "--r", "1",
             "--p", "2"],
        ],
    )
    def test_rejected_where_unused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--rel-tol", "5"])
        assert exc.value.code == 2
        assert "--rel-tol" in capsys.readouterr().err


class TestUnconvergedExitCodes:
    def test_gls_norm(self, capsys, unconverged_grand_slices):
        unconverged_grand_slices(gradient=False)
        code, payload = run_json(
            capsys,
            ["gls-norm", "--profile", "bump:1,1", "--psi", "constant:1.5,2.5", "--A", "1,2"],
        )
        assert code == 3
        assert payload["diagnostics"]["converged"] is False

    def test_norm_whose_nodes_all_miss_the_peak(self, capsys):
        # at p = 1e20 no node sees the bump's peak, so the integral is 0
        code, payload = run_json(
            capsys, ["norm", "--profile", "bump:1,1", "--A", "1,2", "--p", "1e20"]
        )
        assert code == 3
        assert payload["diagnostics"]["converged"] is False

    def test_trace_whose_nodes_all_miss_the_peak(self, capsys):
        # the lhs integral of bump(1, 1e14) is about 5e-15, but no node sees it
        code, payload = run_json(
            capsys,
            ["trace", "--profile", "bump:1,1e14", "--A", "1,1", "--B", "1", "--r", "1",
             "--p", "2"],
        )
        assert code == 3
        assert payload["status"] == "inconclusive"
        assert payload["quadrature-diagnostics"]["converged"] is False

    def test_gls_norm_notes_name_the_round_off_stop(self, capsys):
        # the p = 1e8 end of the table makes slices refine round-off, so they
        # stop unconverged before the panel budget
        code, payload = run_json(
            capsys,
            ["gls-norm", "--profile", "bump:1,1.5", "--psi",
             "table:1.5=1,4=1,100000000=1000", "--A", "1,2"],
        )
        assert code == 3
        notes = payload["diagnostics"]["notes"]
        assert any(note.startswith("round-off detected after") for note in notes)

    def test_gls_norm_lists_at_most_nine_notes(self, capsys):
        # 38 slices of a window reaching p = inf stop at round-off; the
        # payload lists the first eight notes and counts the other 30
        code, payload = run_json(
            capsys,
            ["gls-norm", "--profile", "bump:1,1", "--psi", "constant:1.5,inf", "--A", "1,2"],
        )
        assert code == 3
        notes = payload["diagnostics"]["notes"]
        assert len(notes) <= 9
        assert notes[0].startswith("round-off detected after")
        assert notes[-1] == "and 30 more notes"

    @pytest.mark.parametrize(
        "profile",
        ["smoothed_step:0.5,0.05", "smoothed_step:1,0.1", "smoothed_step:2,0.2",
         "smoothed_step:3,0.3", "smoothed_step:3"],
    )
    def test_gls_norm_whose_slices_overflow_is_not_certified(self, capsys, profile):
        # the sampled peak of |u'| sits just below its sup, so (|u'| / peak)^p
        # overflows past p ~ 3.8e7: once a certified inf with exit 0
        argv = ["gls-norm", "--profile", profile, "--psi", "constant:10", "--A", "1",
                "--gradient"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("not certified: 4 of 64 slices could not be certified")
        assert captured.err.count("\n") == 1

    def test_a_flagged_payload_says_so_in_one_stderr_line(self, capsys):
        assert main(["norm", "--profile", "bump:1,1", "--A", "1,2", "--p", "1e20"]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["diagnostics"]["converged"] is False
        assert captured.err == (
            "not certified: the printed result is flagged unconverged or inconclusive\n"
        )

    def test_morrey(self, capsys, unconverged_grand_slices):
        unconverged_grand_slices(gradient=True)
        code, payload = run_json(
            capsys,
            ["morrey", "--profile", "tent:1.5", "--psi", "constant:5,9", "--A", "1,1",
             "--delta", "0.25,0.5"],
        )
        assert code == 3
        assert [entry["diagnostics"]["converged"] for entry in payload] == [False, False]

    def test_scaling(self, capsys, unconverged_slice_rows):
        unconverged_slice_rows("glsobolev.verify._slice_rows", gradient=True)
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

    def test_config_scaling_a_step_family_exits_2_naming_the_zero_norm(self, capsys, tmp_path):
        cfg = {
            "checks": [
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [1.8],
                    "family": {"generator": "step", "count": 1},
                }
            ],
        }
        path = tmp_path / "step-scaling.json"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "the gradient norm of step(R=1) at lam = 0.125 is 0" in err

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

    def test_scaling_only_config_with_infinite_slack_exits_2(self, capsys, tmp_path):
        # check_scaling fixes its own slack, so the campaign's is checked on reading
        cfg = {
            "slack": math.inf,
            "checks": [
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [1.8],
                    "family": {"generator": "bump", "count": 1},
                }
            ],
        }
        path = tmp_path / "infslack-scaling.json"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", "--config", str(path)]) == 2
        assert "slack" in capsys.readouterr().err

    def test_config_with_fractional_trace_dimension_exits_2(self, capsys, tmp_path):
        cfg = {
            "checks": [
                {
                    "kind": "trace",
                    "A": [1.0, 1.0],
                    "B": [1.0],
                    "r": 1.5,
                    "p-values": [2.0],
                    "family": {"generator": "bump", "count": 1},
                }
            ],
        }
        path = tmp_path / "fractional-r.json"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", "--config", str(path)]) == 2
        assert "'r' must be a whole number" in capsys.readouterr().err

    def test_scaling_only_config_with_unknown_variant_exits_2(self, capsys, tmp_path):
        # check_scaling takes no variant, so the campaign's is checked on reading
        cfg = {
            "variant": "bogus",
            "checks": [
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [1.8],
                    "family": {"generator": "bump", "count": 1},
                }
            ],
        }
        path = tmp_path / "bogus-variant.json"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", "--config", str(path)]) == 2
        assert "variant" in capsys.readouterr().err

    def test_morrey_config_with_tiny_c2_exits_1(self, capsys, tmp_path):
        # a negative control: the default campaign's Morrey inputs with c2
        # fixed far below its calibrated value must fail
        morrey = next(c for c in default_campaign_config()["checks"] if c["kind"] == "morrey")
        cfg = {
            "checks": [
                {
                    "kind": "morrey",
                    "A": morrey["A"],
                    "psi": morrey["psi"],
                    "deltas": [0.5],
                    "c2": 0.001,
                    "family": dict(morrey["family"], count=1),
                }
            ],
        }
        path = tmp_path / "tiny-c2.json"
        path.write_text(json.dumps(cfg))
        code, payload = run_json(capsys, ["campaign", "--config", str(path)])
        assert code == 1
        assert [row["status"] for row in payload] == ["fail"]
        assert payload[0]["ratio"] == pytest.approx(221.0, rel=1e-2)

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
            (
                {"checks": [{"kind": "morrey", "A": [1.0, 0.5], "deltas": [0.5], "c2": "x",
                             "psi": {"family": "constant", "a": 4.0, "b": 7.0},
                             "family": {"generator": "bump", "count": 1}}]},
                "campaign check 0",
            ),
            (
                {"checks": [{"kind": "gls", "A": [1.0, 2.0],
                             "psi": {"family": "constant", "a": 4, "b": 7, "alpha": 0.3},
                             "family": {"generator": "bump", "count": 1}}]},
                "campaign check 0 (kind 'gls'): psi family 'constant' takes no key 'alpha'",
            ),
            (
                {"checks": [{"kind": "morrey", "A": [1.0, 0.5], "deltas": [0.5],
                             "psi": {"a": 4, "b": 7, "alpha": 0.3, "beta": 0.3},
                             "family": {"generator": "bump", "count": 1}}]},
                "campaign check 0 (kind 'morrey'): psi spec is missing key 'family'",
            ),
        ],
        ids=["checks-string", "check-number", "top-level-list", "p-values-number",
             "family-string", "morrey-c2-string", "psi-unknown-key", "psi-without-family"],
    )
    def test_malformed_config_shape_exits_2(self, capsys, tmp_path, cfg, where):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(cfg))
        assert main(["campaign", "--config", str(path)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [10**9, 10**13])
    def test_seed_past_the_index_limit_exits_2(self, capsys, seed):
        # 10^13 overflowed the int64 point index (exit 1); 10^9 gave coarse points
        assert main(["campaign", "--seed", str(seed)]) == 2
        assert f"campaign check 0 (kind 'sobolev'): seed {seed} is too large" in (
            capsys.readouterr().err
        )

    def test_seed_over_a_valid_config_matches_run_campaign(self, capsys, tmp_path):
        cfg = {
            "seed": 0,
            "checks": [
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [2.0],
                    "family": {"generator": "bump", "box": [[0.8, 1.2], [1.0, 2.0]], "count": 2},
                }
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(cfg))
        cli_jsonl, cli_csv = tmp_path / "cli.jsonl", tmp_path / "cli.csv"
        code, payload = run_json(capsys, ["campaign", "--config", str(path), "--seed", "3",
                                          "--jsonl", str(cli_jsonl), "--csv", str(cli_csv)])
        api_jsonl, api_csv = tmp_path / "api.jsonl", tmp_path / "api.csv"
        reports = run_campaign(dict(cfg, seed=3), jsonl_path=api_jsonl, csv_path=api_csv)
        assert code == 0
        assert payload == [json.loads(r.to_json()) for r in reports]
        assert cli_jsonl.read_bytes() == api_jsonl.read_bytes()
        assert cli_csv.read_bytes() == api_csv.read_bytes()
        seed_0 = run_campaign(cfg)
        assert [r.inputs["profile"] for r in reports] != [r.inputs["profile"] for r in seed_0]

    def test_seed_over_a_config_that_is_not_an_object_exits_2(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        for seed in ([], ["--seed", "3"]):
            assert main(["campaign", "--config", str(path), *seed]) == 2
            assert "malformed campaign config" in capsys.readouterr().err


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


class TestNumberLists:
    # an empty token is no number: it once vanished, so "1,,2" read as
    # (1, 2), "constant:1.5," as b = inf and an empty --delta as no deltas
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["constants", "--A", "1,,2", "--p", "2"], "1,,2"),
            (["constants", "--A", "1,2,", "--p", "2"], "1,2,"),
            (["constants", "--A", "", "--p", "2"], ""),
            (["constants", "--A", "1,2", "--p", "2", "--B", " ,1", "--r", "1"], " ,1"),
            (["fundamental", "--psi", "constant:1.5,", "--delta", "1"], "1.5,"),
            (["fundamental", "--psi", "constant:1.5", "--delta", ""], ""),
            (["fundamental", "--psi", "constant:1.5", "--delta", "0.5,,1"], "0.5,,1"),
            (["zeta", "--psi", "constant:1.5,4", "--A", "1,2", "--q", ""], ""),
            (["norm", "--profile", "bump:1,", "--A", "1", "--p", "2"], "1,"),
        ],
    )
    def test_an_empty_number_exits_two(self, capsys, argv, text):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected comma-separated numbers, got '{text}'" in captured.err


class TestBadInputExitsTwo:
    # each once ended in an OverflowError traceback with exit 1 (which means
    # a failed check), in a norm of 0 with exit 3, or ran with true as 1
    @pytest.mark.parametrize(
        "profile, message",
        [
            ("gaussian:1e200", "input too large for float arithmetic"),
            ("power_tail:3,1e300", "input too large for float arithmetic"),
            ("bump:1e300,1", "input too large for float arithmetic"),
            ("power_tail:inf,1", "power_tail exponent must be positive and finite, got inf"),
            ("extremal:inf,2", "extremal D must be positive and finite, got inf"),
            ("bump:1,inf", "bump sharpness must be positive and finite, got inf"),
            ("bump:1,nan", "bump sharpness must be positive and finite, got nan"),
            # 1 / R overflows: once two numpy warnings and a norm of 0 with exit 3
            ("bump:1e-320,2", "bump radius must not be subnormal, got 1e-320"),
            # s**2 underflows to 0: once two numpy warnings and a norm of 0 with exit 3
            ("gaussian:1e-200", "gaussian scale must have a normal square, got 1e-200"),
        ],
    )
    def test_norm_of_a_bad_profile(self, capsys, profile, message):
        assert main(["norm", "--profile", profile, "--A", "1,2", "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize(
        "family, message",
        [
            ({"generator": "gaussian", "box": [[1e200, 1e201]], "count": 1},
             "input too large for float arithmetic"),
            ({"generator": "bump", "count": True}, "'count' must be a whole number, got True"),
            # read without error; the overflow comes once the check runs
            ({"generator": "bump", "box": [[1e300, 1e301], [1, 2]], "count": 1},
             "input too large for float arithmetic"),
        ],
    )
    def test_campaign_config(self, capsys, tmp_path, family, message):
        check = {"kind": "sobolev", "A": [1, 2], "p-values": [2], "family": family}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"checks": [check]}))
        assert main(["campaign", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: campaign check 0 (kind 'sobolev'): ")
        assert captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize(
        "psi, message",
        [
            # its probe overflowed exp with a warning before this error
            ("power:0.5,1e300,1e8,1e-8", "psi (power-endpoint) must be positive and finite"),
            # 1 / a overflows the grid of (a, inf)
            ("constant:1e-320", "left endpoint must be positive, finite and not subnormal"),
            # once the bare "math domain error", from the log of p_star - a
            ("power:1.5,0.5,4,2", "need a < b, got a = 1.5, b = 0.5"),
        ],
    )
    def test_fundamental_of_a_bad_psi(self, capsys, psi, message):
        assert main(["fundamental", "--psi", psi, "--delta", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_no_traceback_through_the_console(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glsobolev", "norm", "--profile", "gaussian:1e200",
             "--A", "1,2", "--p", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: input too large for float arithmetic")


# the argv of every numeric command, its numbers drawn from ordinary values
# and from the tokens that broke one input path after another: nan, +-inf, a
# subnormal, an overflow, an empty token, 0 and -1.  Options go as
# --name=value, so argparse reads "-inf" as a value, and an option that
# argparse types as a number gets no empty token, which argparse refuses
# with its usage message before any handler runs.
_ORDINARY = ("0.25", "0.5", "1", "1.5", "2", "3", "4", "7", "10", "100")
_EDGES = ("nan", "inf", "-inf", "1e-320", "2e308", "0", "-1")
_ordinary = st.sampled_from(_ORDINARY)
_number = _ordinary | st.sampled_from(_EDGES)
_token = _number | st.just("")


def _listed(min_size=1, max_size=4):
    """A comma-separated list: all ordinary numbers, or any tokens."""
    return st.one_of(
        st.lists(_ordinary, min_size=min_size, max_size=max_size),
        st.lists(_token, min_size=min_size, max_size=max_size),
    ).map(",".join)


_profile = st.builds(
    lambda name, params: f"{name}:{params}" if params else name,
    st.sampled_from(generator_names()),
    _listed(0, 2),
)
_psi = st.one_of(
    _listed(1, 2).map("constant:".__add__),
    _listed(4, 4).map("power:".__add__),
    st.lists(st.tuples(_number, _token), min_size=2, max_size=4).map(
        lambda pairs: "table:" + ",".join(f"{p}={v}" for p, v in pairs)
    ),
)
_OPTIONS = {
    "constants": {"A": _listed(), "p": _number},
    "norm": {"profile": _profile, "A": _listed(), "p": _number},
    "gls-norm": {"profile": _profile, "psi": _psi, "A": _listed()},
    "morrey": {"profile": _profile, "psi": _psi, "A": _listed(), "delta": _listed()},
    "scaling": {"profile": _profile, "A": _listed(), "p": _number},
    "trace": {
        "profile": _profile, "A": _listed(), "B": _listed(),
        "r": st.sampled_from(("1", "2", "0", "-1")), "p": _number,
    },
    "fundamental": {"psi": _psi, "delta": _listed()},
    "zeta": {"psi": _psi, "A": _listed(), "q": _listed()},
}
_OPTIONAL = {
    "constants": {"variant": st.sampled_from(("corrected", "literal"))},
    "morrey": {"c2": _number},
    "scaling": {"B": _listed(), "q": _number},
    "trace": {"slack": _number},
    "zeta": {"variant": st.sampled_from(("corrected", "literal"))},
}
_FLAGS = {"norm": ("--gradient",), "gls-norm": ("--gradient",), "morrey": ("--measure",)}
# profiles whose every p-norm is finite: bounded, compactly supported or gaussian
_BOUNDED = ("bump", "gaussian", "smoothed_step", "step", "tent")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for name, values in _OPTIONS[command].items():
        argv.append(f"--{name}={draw(values)}")
    for name, values in _OPTIONAL.get(command, {}).items():
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(values)}")
    argv.extend(flag for flag in _FLAGS.get(command, ()) if draw(st.booleans()))
    return argv


class TestArgvContract:
    # a smoothed_step's sampled peak sits just below sup|u'|, so its gradient
    # slices overflow past p ~ 3.8e7; they once made a finite norm a
    # certified inf with exit 0
    @example(["gls-norm", "--profile=smoothed_step:1,0.1", "--psi=constant:10", "--A=1",
              "--gradient"])
    @settings(max_examples=120, deadline=None)
    @given(argv=_argv())
    def test_every_run_exits_with_a_code_and_one_line_of_reason(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception here is a traceback at the console
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3)
        if code in (2, 3):
            assert err.count("\n") == 1 and err.endswith("\n"), err
        else:
            assert err == ""
        profile = next((a for a in argv if a.startswith("--profile=")), "")
        if profile[len("--profile="):].partition(":")[0] in _BOUNDED:
            assert '"diverged":true' not in out
