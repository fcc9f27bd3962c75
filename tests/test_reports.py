import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from glsobolev.errors import InputError
from glsobolev.reports import (
    VerificationReport,
    canonical_digest,
    dumps,
    exit_status,
    format_float,
    sort_reports,
    write_csv,
    write_jsonl,
)


def make_report(lhs=1.0, rhs=2.0, constant=1.0, **kw):
    return VerificationReport(
        inequality_id=kw.pop("inequality_id", "sobolev-1.6a"),
        lhs=lhs,
        rhs=rhs,
        constant=constant,
        **kw,
    )


class TestFormatFloat:
    @pytest.mark.parametrize(
        "x",
        [0.0, 1.0, -1.5, math.pi, 1.0 / 3.0, 1e-308, 5e-324, 1.7976931348623157e308],
    )
    def test_round_trip_exact(self, x):
        assert float(format_float(x)) == x

    def test_non_finite(self):
        assert format_float(math.nan) == "nan"
        assert format_float(math.inf) == "inf"
        assert format_float(-math.inf) == "-inf"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, x):
        assert float(format_float(x)) == x


class TestDumps:
    def test_compact_and_parseable(self):
        obj = {"b": [1, 2.5, "x"], "a": {"nested": True, "none": None}}
        s = dumps(obj, sort_keys=True)
        assert " " not in s
        assert json.loads(s) == {"a": {"nested": True, "none": None}, "b": [1, 2.5, "x"]}

    def test_non_finite_floats_quoted(self):
        s = dumps({"v": math.inf, "w": math.nan})
        parsed = json.loads(s)
        assert parsed["v"] == "inf"
        assert parsed["w"] == "nan"

    def test_string_escaping(self):
        s = dumps({"k": 'a"b\\c'})
        assert json.loads(s)["k"] == 'a"b\\c'

    @given(st.text())
    @example("a\nb\tc\x00\x1f\x7f\u2028")
    def test_string_round_trip_property(self, s):
        # control characters are escaped, so the JSON parses and stays one line
        assert json.loads(dumps(s)) == s
        assert "\n" not in dumps(s)

    @given(st.text(st.characters(min_codepoint=0x20)))
    def test_strings_without_control_characters_keep_their_bytes(self, s):
        # the escaping of '"' and '\\' alone, as every report so far was written
        assert dumps(s) == '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})


class TestCanonicalDigest:
    def test_key_order_independent(self):
        assert canonical_digest({"a": 1, "b": 2}) == canonical_digest({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert canonical_digest({"a": 1.0}) != canonical_digest({"a": 1.0 + 1e-15})

    def test_frozen_regression(self):
        # the digest is part of the artifact contract; pin one value
        assert canonical_digest({"p": 2.0, "A": [1.0, 2.0]}) == (
            canonical_digest({"A": [1.0, 2.0], "p": 2.0})
        )
        assert (
            canonical_digest({})
            == "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"
        )


class TestVerificationReport:
    def test_pass_ratio(self):
        rep = make_report(lhs=1.0, rhs=2.0, constant=1.0)
        assert rep.ratio == 0.5
        assert rep.status == "pass"
        assert rep.passed

    def test_fail_beyond_slack(self):
        rep = make_report(lhs=2.0, rhs=1.0, constant=1.0, slack=1e-6)
        assert rep.status == "fail"
        assert not rep.passed

    def test_slack_window(self):
        rep = make_report(lhs=1.0 + 5e-7, rhs=1.0, constant=1.0, slack=1e-6)
        assert rep.status == "pass"

    @pytest.mark.parametrize("slack", [math.inf, math.nan, -1e-6])
    def test_slack_outside_its_domain_rejected(self, slack):
        # an infinite slack would pass every ratio, a nan one fail every ratio
        with pytest.raises(InputError, match="slack"):
            make_report(lhs=5.0, rhs=1.0, constant=1.0, slack=slack)

    def test_zero_over_zero_passes(self):
        rep = make_report(lhs=0.0, rhs=0.0, constant=1.0)
        assert rep.ratio == 0.0
        assert rep.status == "pass"

    def test_infinite_lhs_inconclusive(self):
        rep = make_report(lhs=math.inf, rhs=1.0, constant=1.0)
        assert math.isnan(rep.ratio)
        assert rep.status == "inconclusive"

    def test_unconverged_quadrature_inconclusive(self):
        rep = make_report(quadrature={"converged": False})
        assert rep.status == "inconclusive"

    def test_internal_consistency(self):
        rep = make_report(lhs=1.3, rhs=0.7, constant=1.1)
        assert rep.ratio * rep.constant * rep.rhs == pytest.approx(rep.lhs, rel=1e-12)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            make_report(inequality_id="nope-1.1")

    def test_to_dict_keys(self):
        d = make_report().to_dict()
        for key in (
            "inequality-id",
            "ratio",
            "pass",
            "quadrature-diagnostics",
            "inputs-digest",
        ):
            assert key in d

    def test_to_json_parses(self):
        rep = make_report(lhs=math.inf, rhs=1.0, constant=1.0)
        parsed = json.loads(rep.to_json())
        assert parsed["lhs"] == "inf"
        assert parsed["ratio"] == "nan"
        assert parsed["status"] == "inconclusive"

    def test_summary_line_mentions_status(self):
        line = make_report().summary_line()
        assert "pass" in line
        assert "sobolev-1.6a" in line


class TestArtifacts:
    def test_sorted_by_digest_then_id(self):
        reps = [
            make_report(inputs={"k": 2}),
            make_report(inputs={"k": 1}),
            make_report(inputs={"k": 1}, inequality_id="scaling-2.4", lhs=0.0, rhs=1.0),
        ]
        ordered = sort_reports(reps)
        keys = [(r.inputs_digest, r.inequality_id) for r in ordered]
        assert keys == sorted(keys)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        reps = [make_report(inputs={"k": i}) for i in range(3)]
        write_jsonl(reps, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 3
        assert all(row["pass"] is True for row in rows)

    def test_jsonl_keeps_one_record_per_line_for_a_newline_in_a_name(self, tmp_path):
        path = tmp_path / "out.jsonl"
        reps = [make_report(inputs={"profile": "a\nb", "k": i}) for i in range(2)]
        write_jsonl(reps, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == 3
        assert [json.loads(line)["inputs"]["profile"] for line in lines[:2]] == ["a\nb"] * 2

    def test_csv_header_and_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([make_report()], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "inequality-id,ratio,pass,diagnostics"
        assert lines[1].startswith("sobolev-1.6a,0.5,true,")

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        reps = [make_report(inputs={"k": i}) for i in range(4)]
        write_jsonl(reps, a)
        write_jsonl(list(reversed(reps)), b)
        assert a.read_bytes() == b.read_bytes()


class TestExitStatus:
    def test_all_pass(self):
        assert exit_status([make_report()]) == 0

    def test_any_fail_wins(self):
        reps = [
            make_report(),
            make_report(lhs=5.0, rhs=1.0),
            make_report(quadrature={"converged": False}),
        ]
        assert exit_status(reps) == 1

    def test_inconclusive_without_fail(self):
        reps = [make_report(), make_report(quadrature={"converged": False})]
        assert exit_status(reps) == 3

    def test_empty(self):
        assert exit_status([]) == 0
