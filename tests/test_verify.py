import json
import math

import numpy as np
import pytest

import glsobolev.grand as grand_module
import glsobolev.verify as verify_module
from glsobolev.constants import trace_bounds
from glsobolev.errors import DomainError, InputError
from glsobolev.exponents import trace_exponent
from glsobolev.grand import constant_psi, verify_gls_sobolev
from glsobolev.norms import weighted_gradient_norm
from glsobolev.profiles import bump, gaussian, tent
from glsobolev.quadrature import QuadratureDiagnostics
from glsobolev.reports import INEQUALITY_IDS, exit_status
from glsobolev.verify import (
    ProfileFamily,
    ScalingFit,
    check_morrey,
    check_scaling,
    check_sobolev,
    check_trace_radial,
    default_campaign_config,
    extremal_profile,
    fit_scaling_exponents,
    rd_sequence,
    run_campaign,
)


class TestExtremalProfile:
    def test_attains_sharp_constant(self):
        # ratio ||u||_q / (C(p) ||u'||_p) = 1 on the optimizer
        u = extremal_profile(5.0, 2.0)
        report = check_sobolev(u, [1.0, 2.0], 2.0)
        assert report.ratio == pytest.approx(1.0, abs=1e-10)
        assert report.passed

    def test_literal_variant_not_attained(self):
        u = extremal_profile(5.0, 2.0)
        report = check_sobolev(u, [1.0, 2.0], 2.0, variant="literal")
        assert abs(report.ratio - 1.0) > 0.01

    def test_requires_subcritical_p(self):
        with pytest.raises(DomainError):
            extremal_profile(3.0, 3.0)
        with pytest.raises(DomainError):
            extremal_profile(3.0, 1.0)


class TestCheckSobolev:
    @pytest.mark.parametrize(
        "A,p",
        [
            ([1.0, 2.0], 1.5),
            ([1.0, 2.0], 2.0),
            ([0.5, 0.5, 0.0], 2.5),
            ([2.0], 1.4),
        ],
    )
    def test_bump_strictly_below_constant(self, A, p):
        report = check_sobolev(bump(1.0, 1.0), A, p)
        assert report.passed
        assert report.ratio < 1.0
        assert report.inequality_id == "sobolev-1.6a"

    def test_rel_error_covers_the_gradient_side(self):
        # the gradient side is the less accurate one here; the report's
        # rel-error must not hide it behind the lhs figure
        u, A, p = bump(1.0, 1.0), [1.0, 2.0], 1.5
        report = check_sobolev(u, A, p)
        _, diag = weighted_gradient_norm(u, A, p, details=True)
        assert report.quadrature["rel-error"] >= diag.rel_error > 0.0

    def test_unweighted_constant_logged(self):
        report = check_sobolev(bump(1.0, 1.0), [0.0, 0.0, 0.0], 2.0)
        assert report.extra["unweighted-constant"] is not None
        assert report.extra["unweighted-constant"] == pytest.approx(
            report.constant, rel=1e-12
        )


class TestScaling:
    def test_fitted_slopes_match_exponent_laws(self):
        A = [1.0, 2.0]
        fit = fit_scaling_exponents(bump(1.0, 1.0), A, A, 2.0)
        assert fit.slope_lhs == pytest.approx(fit.expected_lhs, abs=1e-10)
        assert fit.slope_rhs == pytest.approx(fit.expected_rhs, abs=1e-10)
        # dilation u(x/lam): lhs decays like lam^(-D/q), rhs like lam^(1 - D/p)
        D = 5.0
        q = D * 2.0 / (D - 2.0)
        assert fit.expected_lhs == pytest.approx(-D / q, rel=1e-14)
        assert fit.expected_rhs == pytest.approx(1.0 - D / 2.0, rel=1e-14)

    def test_check_scaling_passes(self):
        report = check_scaling(gaussian(1.0), [1.0, 1.0], [1.0, 1.0], 1.8)
        assert report.passed
        assert report.inequality_id == "scaling-2.4"
        assert report.lhs <= report.rhs

    def test_figures_in_field_order(self):
        fit = ScalingFit(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert list(fit.figures().items()) == [
            ("slope-lhs", 1.0),
            ("slope-rhs", 2.0),
            ("expected-lhs", 3.0),
            ("expected-rhs", 4.0),
            ("residual-lhs", 5.0),
            ("residual-rhs", 6.0),
        ]

    def test_sides_scale_identically_only_at_critical_q(self):
        # each side obeys its own exact power law for any q; only the
        # critical exponent makes the two slopes coincide
        A = [1.0, 2.0]
        crit = fit_scaling_exponents(bump(1.0, 1.0), A, A, 2.0)
        assert crit.slope_lhs == pytest.approx(crit.slope_rhs, abs=1e-9)
        off = fit_scaling_exponents(bump(1.0, 1.0), A, A, 2.0, q=2.0)
        assert off.slope_lhs == pytest.approx(off.expected_lhs, abs=1e-9)
        assert abs(off.slope_lhs - off.slope_rhs) > 0.5


class TestTrace:
    def test_bump_ratio_within_bracket(self):
        A = [1.0, 1.0, 0.5]
        B = [0.5, 0.5]
        report = check_trace_radial(bump(1.0, 1.0), A, B, r=2, p=2.8)
        assert report.passed
        assert report.ratio <= 1.0 + 1e-6
        assert report.inequality_id == "trace-6.3a"

    def test_constant_is_upper_bracket(self):
        A = [1.0, 1.0, 0.5]
        B = [0.5, 0.5]
        report = check_trace_radial(bump(1.0, 1.0), A, B, r=2, p=2.8)
        pair = trace_bounds(A, B, r=2, p=2.8)
        assert report.constant == pytest.approx(pair.W_upper, rel=1e-14)
        assert report.extra["q"] == pytest.approx(
            trace_exponent(A, B, r=2, p=2.8), rel=1e-14
        )

    def test_spread_profile_reported_as_fail(self):
        # the comparison is not scale invariant; a profile with heavy mass
        # at large radius can exceed the bracket and must be reported so
        report = check_trace_radial(gaussian(1.0), [1.0, 1.0], [1.0], r=1, p=2.2)
        assert report.status == "fail"
        assert report.ratio > 1.0

    def test_bracket_ordering_on_grid(self):
        A = [1.0, 1.0, 0.5]
        B = [1.5, 0.5]
        for p in np.linspace(1.3, 2.6, 8):
            pair = trace_bounds(A, B, r=2, p=float(p))
            assert 0.0 < pair.W_lower <= pair.W_upper


class TestMorreyCheck:
    def test_tent_modulus_bounded(self):
        A = [1.0, 1.0]
        psi = constant_psi(5.0, 9.0)
        report = check_morrey(tent(1.5), psi, A, delta=0.4, c2=2.0)
        assert report.inequality_id == "morrey-7.8"
        assert report.constant == 1.0
        if report.passed:
            assert report.lhs <= report.rhs * (1.0 + 1e-6)

    def test_rel_tol_reaches_the_quadrature(self):
        args = (bump(1.0, 1.0), constant_psi(5.0, 9.0), [1.0, 1.0], 0.4)
        loose = check_morrey(*args, c2=2.0, rel_tol=1e-6)
        tight = check_morrey(*args, c2=2.0)
        assert loose.quadrature["converged"] and tight.quadrature["converged"]
        assert loose.quadrature["neval"] < tight.quadrature["neval"]

    def test_campaign_scans_each_gradient_once(self, monkeypatch):
        real = grand_module.gls_gradient_norm
        scanned = []

        def counting(u, *args, **kwargs):
            scanned.append(u.name)
            return real(u, *args, **kwargs)

        monkeypatch.setattr(grand_module, "gls_gradient_norm", counting)
        cfg = default_campaign_config()
        cfg["checks"] = [c for c in cfg["checks"] if c["kind"] == "morrey"]
        reports = run_campaign(cfg)
        assert len(reports) == 4  # two profiles, two deltas
        assert len(scanned) == len(set(scanned)) == 2


class TestForcedNonConvergence:
    def test_morrey_inconclusive(self, force_unconverged):
        force_unconverged("glsobolev.grand.weighted_gradient_norm")
        report = check_morrey(tent(1.5), constant_psi(5.0, 9.0), [1.0, 1.0], 0.4, c2=2.0)
        assert report.quadrature["converged"] is False
        assert report.status == "inconclusive"

    def test_scaling_inconclusive(self, force_unconverged):
        force_unconverged("glsobolev.verify.weighted_gradient_norm")
        report = check_scaling(gaussian(1.0), [1.0, 1.0], [1.0, 1.0], 1.8)
        assert report.quadrature["converged"] is False
        assert report.status == "inconclusive"

    def test_sobolev_inconclusive(self, force_unconverged):
        force_unconverged("glsobolev.verify.weighted_lp_norm")
        report = check_sobolev(bump(1.0, 1.0), [1.0, 2.0], 2.0)
        assert report.quadrature["converged"] is False
        assert report.status == "inconclusive"

    def test_gls_sobolev_inconclusive(self, force_unconverged):
        force_unconverged("glsobolev.grand.weighted_lp_norm")
        report = verify_gls_sobolev(bump(1.0, 1.0), constant_psi(1.5, 2.5), [1.0, 2.0])
        assert report.quadrature["converged"] is False
        assert report.status == "inconclusive"

    def test_trace_inconclusive(self, unconverged_radial_integral):
        report = check_trace_radial(bump(1.0, 1.0), [1.0, 1.0], [1.0], r=1, p=2.0)
        assert report.quadrature["converged"] is False
        assert report.status == "inconclusive"


class TestRdSequence:
    def test_deterministic(self):
        a = rd_sequence(3, 10, seed=4)
        b = rd_sequence(3, 10, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_seed_offsets(self):
        a = rd_sequence(2, 10, seed=0)
        b = rd_sequence(2, 10, seed=1)
        assert not np.array_equal(a, b)

    def test_in_unit_box(self):
        pts = rd_sequence(4, 200, seed=0)
        assert pts.shape == (200, 4)
        assert np.all((pts >= 0.0) & (pts < 1.0))

    def test_equidistribution(self):
        # Kronecker sequences fill the box; cell counts should be balanced
        pts = rd_sequence(1, 1000, seed=0)
        hist, _ = np.histogram(pts[:, 0], bins=10, range=(0.0, 1.0))
        assert hist.min() > 60 and hist.max() < 140


class TestProfileFamily:
    def test_reproducible(self):
        fam = ProfileFamily("bump", box=((0.5, 2.0), (0.5, 3.0)), count=5, seed=2)
        a = fam.profiles()
        b = fam.profiles()
        grid = np.linspace(0.0, 2.0, 64)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u.value(grid), v.value(grid))

    def test_count_and_kind(self):
        fam = ProfileFamily("gaussian", box=((0.5, 2.0),), count=3)
        profs = fam.profiles()
        assert len(profs) == 3
        assert all(p.value(0.0) == 1.0 for p in profs)

    def test_defaults_without_box(self):
        fam = ProfileFamily("tent")
        assert len(fam.profiles()) == fam.count


class TestCampaign:
    def test_default_covers_all_inequalities(self, tmp_path):
        jsonl = tmp_path / "reports.jsonl"
        csv = tmp_path / "reports.csv"
        reports = run_campaign(jsonl_path=jsonl, csv_path=csv)
        ids = {r.inequality_id for r in reports}
        assert ids == set(INEQUALITY_IDS)
        assert all(r.passed for r in reports)
        assert exit_status(reports) == 0

        lines = jsonl.read_text().strip().splitlines()
        assert len(lines) == len(reports)
        parsed = [json.loads(line) for line in lines]
        assert all("inputs-digest" in row for row in parsed)

        header = csv.read_text().splitlines()[0]
        assert header.split(",")[0] == "inequality-id"

    def test_deterministic_artifacts(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(jsonl_path=p1)
        run_campaign(jsonl_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_every_family_shares_one_diagnostics_shape(self):
        reports = run_campaign()
        assert {r.inequality_id for r in reports} == set(INEQUALITY_IDS)
        shape = set(QuadratureDiagnostics().to_dict())
        for report in reports:
            assert set(report.quadrature) == shape, report.inequality_id

    def test_seed_changes_battery(self):
        cfg = default_campaign_config()
        cfg["seed"] = 1
        reports = run_campaign(cfg)
        base = run_campaign()
        assert {r.inputs_digest for r in reports} != {r.inputs_digest for r in base}

    def test_check_missing_key_raises_input_error(self):
        cfg = {"checks": [{"kind": "scaling", "A": [1.0, 2.0], "p-values": [2.0]}]}
        with pytest.raises(InputError, match="missing key 'family'"):
            run_campaign(cfg)

    def test_unknown_check_kind_raises_input_error(self):
        cfg = {
            "checks": [
                {
                    "kind": "hardy",
                    "family": {"generator": "bump", "count": 1},
                    "A": [1.0],
                }
            ]
        }
        with pytest.raises(InputError, match="unknown check kind"):
            run_campaign(cfg)

    @pytest.mark.parametrize("fault", [KeyError, TypeError])
    def test_fault_inside_a_check_is_not_a_config_error(self, monkeypatch, fault):
        def broken(*args, **kwargs):
            raise fault("inside the check")

        monkeypatch.setattr(verify_module, "check_scaling", broken)
        cfg = {
            "checks": [
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [2.0],
                    "family": {"generator": "bump", "count": 1},
                }
            ]
        }
        with pytest.raises(fault, match="inside the check"):
            run_campaign(cfg)

    def test_every_check_is_read_before_any_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify_module, "check_scaling", lambda *a, **k: ran.append(a))
        good = {
            "kind": "scaling",
            "A": [1.0, 2.0],
            "p-values": [2.0],
            "family": {"generator": "bump", "count": 1},
        }
        with pytest.raises(InputError, match="campaign check 1 .* 'A' must be a list"):
            run_campaign({"checks": [good, dict(good, A="12")]})
        assert ran == []
