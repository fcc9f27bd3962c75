import dataclasses
import json
import math

import numpy as np
import pytest

import glsobolev.grand as grand_module
import glsobolev.verify as verify_module
from glsobolev.constants import trace_bounds
from glsobolev.errors import DomainError, InputError
from glsobolev.exponents import as_exponent_tuple, sobolev_exponent, trace_exponent
from glsobolev.grand import constant_psi, verify_gls_sobolev
from glsobolev.norms import weighted_gradient_norm, weighted_lp_norm
from glsobolev.profiles import bump, gaussian, make_profile, step, tent
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

    def test_registered_with_the_other_profiles(self):
        u, ref = make_profile("extremal", 3.0, 2.0), extremal_profile(3.0, 2.0)
        r = np.linspace(0.0, 12.0, 97)
        assert u.name == ref.name == "extremal(D=3,p=2)"
        assert u.support == ref.support
        assert np.array_equal(u.value(r), ref.value(r))
        assert np.array_equal(u.derivative(r), ref.derivative(r))

    def test_defaults_are_d_five_and_p_two(self):
        assert make_profile("extremal").name == extremal_profile(5.0, 2.0).name


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

    def test_unweighted_constant_left_out_inside_its_guard(self):
        # p = 3 - 1e-13 is inside Talenti's 1e-12 guard at m = 3, but the
        # sharp constant exists there (D = 4.5)
        report = check_sobolev(bump(1.0, 1.0), (0.5, 0.5, 0.5), 3 - 1e-13)
        assert "unweighted-constant" not in report.extra
        assert report.constant > 0.0


def _sequential_fit(u, A, B, p):
    """fit_scaling_exponents as a sweep of 18 standalone norms, lam
    ascending and lhs before rhs; the first failure raises."""
    A, B = as_exponent_tuple(A), as_exponent_tuple(B)
    q = sobolev_exponent(A, B, p)
    dilations = np.geomspace(0.125, 8.0, 9)
    log_l = np.log(dilations)
    log_lhs = np.empty_like(log_l)
    log_rhs = np.empty_like(log_l)
    diag = QuadratureDiagnostics()
    for i, lam in enumerate(dilations):
        v = u.dilated(float(lam))
        lhs, ldiag = weighted_lp_norm(v, B, q, details=True)
        rhs, rdiag = weighted_gradient_norm(v, A, p, details=True)
        diag.merge(ldiag)
        diag.merge(rdiag)
        for side, norm in (("lhs", lhs), ("gradient", rhs)):
            if norm == 0.0:
                raise DomainError(
                    f"the {side} norm of {u.name} at lam = {lam:g} is 0: "
                    "the dilation slope of a zero norm is undefined"
                )
        log_lhs[i] = math.log(lhs)
        log_rhs[i] = math.log(rhs)
    fit_l = np.polyfit(log_l, log_lhs, 1)
    fit_r = np.polyfit(log_l, log_rhs, 1)
    return ScalingFit(
        slope_lhs=float(fit_l[0]),
        slope_rhs=float(fit_r[0]),
        expected_lhs=-B.effective_dimension / q,
        expected_rhs=1.0 - A.effective_dimension / p,
        residual_lhs=float(np.max(np.abs(np.polyval(fit_l, log_l) - log_lhs))),
        residual_rhs=float(np.max(np.abs(np.polyval(fit_r, log_l) - log_rhs))),
        quadrature=diag,
    )


def _fit_or_error(fit, u):
    try:
        return fit(u, (1.0, 2.0), (0.5, 0.5), 1.8)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


class TestScaling:
    @pytest.mark.parametrize(
        "generator, params",
        [
            ("bump", (1.0, 1.0)),
            ("gaussian", (1.0,)),
            ("smoothed_step", (1.0, 0.3)),
            # both sides diverge: the lhs at lam = 1/8 raises first
            ("power_tail", (1.0,)),
            # u' = 0, so the rhs at lam = 1/8 raises as a zero norm
            ("step", (1.0,)),
        ],
    )
    def test_fit_equals_a_sweep_of_standalone_norms(self, generator, params):
        batched = _fit_or_error(fit_scaling_exponents, make_profile(generator, *params))
        swept = _fit_or_error(_sequential_fit, make_profile(generator, *params))
        assert batched == swept

    def test_a_zero_norm_raises_a_domain_error_naming_its_side(self):
        # the step's derivative is 0 on its support: the gradient norm is 0
        # at every dilation, and its logarithm has no slope to fit
        expected = (
            r"^the gradient norm of step\(R=1\) at lam = 0.125 is 0: "
            r"the dilation slope of a zero norm is undefined$"
        )
        with pytest.raises(DomainError, match=expected):
            fit_scaling_exponents(step(1.0), (1.0, 2.0), (0.5, 0.5), 1.8)
        with pytest.raises(DomainError, match=expected):
            check_scaling(step(1.0), (1.0, 2.0), (0.5, 0.5), 1.8)

    @pytest.mark.parametrize(
        "generator, params",
        [("bump", (1.0, 1.0)), ("gaussian", (1.0,)), ("smoothed_step", (1.0, 0.3))],
    )
    def test_one_check_makes_few_profile_calls(self, generator, params):
        # one call per lockstep round and per peak scan; a sweep of
        # standalone norms makes 144, 171 and 333
        calls = []

        def counted(fn):
            def call(r):
                calls.append(len(r))
                return fn(r)

            return call

        u = make_profile(generator, *params)
        u = dataclasses.replace(
            u, value=counted(u.value), derivative=counted(u.derivative), check=False
        )
        check_scaling(u, (1.0, 2.0), (0.5, 0.5), 1.8)
        assert len(calls) <= 100

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
        assert report.constant == pair.M * pair.Q
        assert report.extra["q"] == pytest.approx(
            trace_exponent(A, B, r=2, p=2.8), rel=1e-14
        )

    def test_spread_profile_reported_as_fail(self):
        # the comparison is not scale invariant; a profile with heavy mass
        # at large radius can exceed the bracket and must be reported so
        report = check_trace_radial(gaussian(1.0), [1.0, 1.0], [1.0], r=1, p=2.2)
        assert report.status == "fail"
        assert report.ratio > 1.0

    @pytest.mark.parametrize(
        "A, B, r, p",
        [
            ((1.0, 1.0), (1.0,), 1, 2.0),
            ((1.0, 1.0, 0.5), (0.5, 0.5), 2, 2.8),
            ((1.0, 1.0), (1.0,), 1, 1.5),
        ],
    )
    def test_dilation_multiplies_the_ratio_by_R_to_the_D_minus_1_over_p(self, A, B, r, p):
        # lhs scales as R^(D_r / q) = R^(D/p - 1) and rhs as R^(1/p - 1), so
        # no constant bounds the printed ratio over all dilations
        D = as_exponent_tuple(A).effective_dimension
        ratio = {R: check_trace_radial(bump(R, 1.5), A, B, r=r, p=p).ratio for R in (0.5, 1.0, 2.0)}
        assert ratio[2.0] / ratio[1.0] == pytest.approx(2.0 ** ((D - 1.0) / p), rel=1e-12)
        assert ratio[0.5] / ratio[1.0] == pytest.approx(2.0 ** (-(D - 1.0) / p), rel=1e-12)

    def test_a_zero_integral_under_a_positive_peak_is_inconclusive(self):
        # at sharpness 1e14 the bump's lhs integral is about 1/(2k) = 5e-15,
        # but every node misses it; the report must not certify lhs = 0
        report = check_trace_radial(bump(1.0, 1e14), [1.0, 1.0], [1.0], r=1, p=2.0)
        assert report.lhs == 0.0
        assert report.status == "inconclusive"
        assert report.quadrature["converged"] is False
        assert "integral 0.0 under a positive peak: every node missed the peak" in (
            report.quadrature["notes"]
        )
        assert exit_status([report]) == 3

    def test_a_zero_rhs_integral_under_a_positive_peak_is_inconclusive(self):
        # the derivative of smoothed_step(1, 0.002) is a spike of width 0.002
        # at r = 1 that every node of the rhs integral misses
        report = check_trace_radial(make_profile("smoothed_step", 1.0, 0.002),
                                    [1.0, 1.0], [1.0], r=1, p=2.0)
        assert report.rhs == 0.0
        assert report.status == "inconclusive"
        assert report.quadrature["converged"] is False
        assert "integral 0.0 under a positive peak: every node missed the peak" in (
            report.quadrature["notes"]
        )

    def test_bracket_ordering_on_grid(self):
        A = [1.0, 1.0, 0.5]
        B = [1.5, 0.5]
        for p in np.linspace(1.3, 2.6, 8):
            pair = trace_bounds(A, B, r=2, p=float(p))
            assert 0.0 < pair.M <= pair.M * pair.Q


class TestMorreyCheck:
    def test_tent_modulus_bounded(self):
        A = [1.0, 1.0]
        psi = constant_psi(5.0, 9.0)
        report = check_morrey(tent(1.5), psi, A, delta=0.4, c2=2.0)
        assert report.inequality_id == "morrey-7.8"
        assert report.constant == 1.0
        if report.passed:
            assert report.lhs <= report.rhs * (1.0 + 1e-6)

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


class TestNegativeControls:
    """Checks that must come back ``fail``: the verdict can say no."""

    def test_sobolev_literal_constant_fails_on_the_extremal(self):
        report = check_sobolev(extremal_profile(5.0, 2.0), (1.0, 2.0), 2.0, variant="literal")
        assert report.quadrature["converged"]
        assert report.status == "fail"
        assert report.ratio == pytest.approx(1.0625, abs=1e-3)

    def test_gls_literal_constant_fails_on_the_extremal(self):
        # psi pins p near 2, where the extremal attains the corrected constant
        u, psi = extremal_profile(5.0, 2.0), constant_psi(1.99, 2.01)
        literal = verify_gls_sobolev(u, psi, (1.0, 2.0), variant="literal")
        assert literal.quadrature["converged"]
        assert literal.status == "fail"
        assert literal.ratio == pytest.approx(1.06247, abs=1e-4)
        corrected = verify_gls_sobolev(u, psi, (1.0, 2.0), variant="corrected")
        assert corrected.status == "pass"
        assert corrected.ratio == pytest.approx(0.99998, abs=1e-4)

    def test_morrey_with_a_tiny_c2_fails(self):
        report = check_morrey(bump(1.0, 1.0), constant_psi(5.0, 9.0), (1.0, 1.0), 0.4, c2=1e-3)
        assert report.quadrature["converged"]
        assert report.status == "fail"
        assert report.ratio == pytest.approx(385.0, rel=1e-2)


class TestForcedNonConvergence:
    def test_morrey_inconclusive(self, unconverged_grand_slices):
        unconverged_grand_slices(gradient=True)
        report = check_morrey(tent(1.5), constant_psi(5.0, 9.0), [1.0, 1.0], 0.4, c2=2.0)
        assert report.quadrature["converged"] is False
        assert report.status == "inconclusive"

    def test_scaling_inconclusive(self, unconverged_slice_rows):
        unconverged_slice_rows("glsobolev.verify._slice_rows", gradient=True)
        report = check_scaling(gaussian(1.0), [1.0, 1.0], [1.0, 1.0], 1.8)
        assert report.quadrature["converged"] is False
        assert report.status == "inconclusive"

    def test_sobolev_inconclusive(self, force_unconverged):
        force_unconverged("glsobolev.verify.weighted_lp_norm")
        report = check_sobolev(bump(1.0, 1.0), [1.0, 2.0], 2.0)
        assert report.quadrature["converged"] is False
        assert report.status == "inconclusive"

    def test_gls_sobolev_inconclusive(self, unconverged_grand_slices):
        unconverged_grand_slices(gradient=False)
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

    @pytest.mark.parametrize("seed", [4295, -4295, 10**9, 10**12])
    def test_rejects_a_seed_past_the_index_limit(self, seed):
        # past index 2^32 the float64 products i * alpha lose their low bits:
        # seed 10^9 gave points on a 1/8 grid, seed 10^12 four rows of zeros
        with pytest.raises(InputError, match=f"seed {seed} is too large"):
            rd_sequence(2, 4, seed=seed)

    def test_largest_admitted_seed_keeps_distinct_points(self):
        pts = rd_sequence(2, 4, seed=4294)
        assert len({tuple(row) for row in pts}) == 4

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
        [u] = fam.profiles()
        assert u.name == make_profile("tent").name

    def test_a_box_family_draws_count_profiles_at_its_points(self):
        box = ((0.5, 2.0), (0.5, 3.0))
        points = rd_sequence(2, 3, seed=1)
        expected = [
            make_profile("bump", *(lo + t * (hi - lo) for t, (lo, hi) in zip(row, box))).name
            for row in points
        ]
        fam = ProfileFamily("bump", box=box, count=3, seed=1)
        assert [u.name for u in fam.profiles()] == expected
        assert len(set(expected)) == 3


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

    @pytest.mark.parametrize("key, value", [("count", 2.5), ("seed", 0.5), ("count", "2")])
    def test_fractional_count_or_seed_raises_input_error(self, monkeypatch, key, value):
        ran = []
        monkeypatch.setattr(verify_module, "check_scaling", lambda *a, **k: ran.append(a))
        good = {
            "kind": "scaling",
            "A": [1.0, 2.0],
            "p-values": [2.0],
            "family": {"generator": "bump", "count": 1},
        }
        bad = dict(good, family={"generator": "bump", "count": 1, key: value})
        with pytest.raises(InputError, match=f"campaign check 1 .* '{key}' must be a whole"):
            run_campaign({"checks": [good, bad]})
        assert ran == []

    def test_a_family_without_a_box_gives_one_report_per_check_input(self):
        # count copies of the default profile would repeat every report
        scaling = {
            "kind": "scaling",
            "A": [1.0, 2.0],
            "p-values": [2.0, 2.5],
            "family": {"generator": "bump", "count": 3},
        }
        reports = run_campaign({"checks": [scaling]})
        assert len(reports) == 2
        assert len({report.to_dict()["inputs-digest"] for report in reports}) == 2

    def test_whole_float_count_is_accepted(self):
        reports = run_campaign(
            {
                "seed": 3.0,
                "checks": [
                    {
                        "kind": "scaling",
                        "A": [1.0, 2.0],
                        "p-values": [2.0],
                        "family": {"generator": "bump", "box": [[0.5, 1.5], [1.0, 2.0]],
                                   "count": 2.0},
                    }
                ],
            }
        )
        assert len(reports) == 2

    def test_fractional_campaign_seed_raises_input_error(self):
        with pytest.raises(InputError, match="campaign config: 'seed' must be a whole"):
            run_campaign({"seed": 1.5, "checks": []})

    def test_fractional_trace_dimension_raises_input_error(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify_module, "check_trace_radial", lambda *a, **k: ran.append(a))
        trace = {
            "kind": "trace",
            "A": [1.0, 1.0],
            "B": [1.0],
            "r": 1.5,
            "p-values": [2.0],
            "family": {"generator": "bump", "count": 1},
        }
        with pytest.raises(InputError, match="campaign check 0 .* 'r' must be a whole"):
            run_campaign({"checks": [trace]})
        assert ran == []

    def test_unknown_variant_raises_before_any_check_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify_module, "check_scaling", lambda *a, **k: ran.append(a))
        scaling = {
            "kind": "scaling",
            "A": [1.0, 2.0],
            "p-values": [2.0],
            "family": {"generator": "bump", "count": 1},
        }
        with pytest.raises(InputError, match="unknown constant variant 'bogus'"):
            run_campaign({"variant": "bogus", "checks": [scaling]})
        assert ran == []

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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                {
                    "kind": "trace",
                    "A": [1.0, 1.0],
                    "B": [1.0, 1.0],
                    "r": 1,
                    "p-values": [1.5],
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* expected r = 1",
            ),
            (
                {
                    "kind": "sobolev",
                    "A": [-1.0, 1.0],
                    "p-values": [1.5],
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* finite and >= 0",
            ),
            (
                {
                    "kind": "sobolev",
                    "A": [1.0, 2.0],
                    "p-values": [1.0],
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* of endpoint 1.0",
            ),
            (
                {
                    "kind": "sobolev",
                    "A": [1.0, 2.0],
                    "p-values": [6.0],
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* of endpoint 5.0",
            ),
            (
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [6.0],
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* of endpoint 5.0",
            ),
            (
                {
                    "kind": "gls",
                    "A": [1.0, 2.0],
                    "psi": {"family": "constant", "a": 0.5, "b": 3.0},
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* must start at p >= 1",
            ),
            (
                {
                    "kind": "gls",
                    "A": [1.0, 2.0],
                    "psi": {"family": "constant", "a": 1.5, "b": 7.0},
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* must end at or below the effective dimension",
            ),
            (
                {
                    "kind": "morrey",
                    "A": [1.0, 0.5],
                    "psi": {"family": "constant", "a": 4.0, "b": 7.0},
                    "deltas": [0.5, 0.0],
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* delta must be positive and finite",
            ),
            (
                {
                    "kind": "morrey",
                    "A": [1.0, 0.5],
                    "psi": {"family": "constant", "a": 2.0, "b": 7.0},
                    "deltas": [0.5],
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* psi support above the effective dimension",
            ),
            (
                {
                    "kind": "morrey",
                    "A": [1.0, 0.5],
                    "psi": {"family": "constant", "a": 4.0, "b": 7.0},
                    "deltas": [0.5],
                    "c2": "x",
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* is malformed",
            ),
            (
                {
                    "kind": "morrey",
                    "A": [1.0, 0.5],
                    "psi": {"family": "constant", "a": 4.0, "b": 7.0},
                    "deltas": [0.5],
                    "c2": -1,
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* c2 must be positive and finite",
            ),
            (
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [2.0],
                    "family": {"generator": "bump", "box": [[1, 2, 3]], "count": 1},
                },
                r"campaign check 1 .* bad parameter range \(1, 2, 3\)",
            ),
            (
                {
                    "kind": "morrey",
                    "A": [1.0, 0.5],
                    "psi": {"family": "constant", "a": 4.0, "b": 7.0},
                    "deltas": [1e-200],
                    "family": {"generator": "bump", "count": 1},
                },
                r"campaign check 1 .* delta\^D must be .* delta = 1e-200, D = 3.5",
            ),
            (
                {
                    "kind": "morrey",
                    "A": [1.0, 0.5],
                    "psi": {"family": "constant", "a": 4.0, "b": 7.0},
                    "deltas": [1e200],
                    "family": {"generator": "bump", "count": 1},
                },
                r"campaign check 1 .* delta\^D must be .* delta = 1e\+200, D = 3.5",
            ),
            (
                {
                    "kind": "gls",
                    "A": [1.0, 2.0],
                    "psi": {"family": "constant", "a": 1.5, "b": 4.0, "alpha": 0.3},
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* psi family 'constant' takes no key 'alpha'",
            ),
            (
                {
                    "kind": "morrey",
                    "A": [1.0, 0.5],
                    "psi": {"a": 4.0, "b": 7.0, "alpha": 0.3, "beta": 0.3},
                    "deltas": [0.5],
                    "family": {"generator": "bump", "count": 1},
                },
                "campaign check 1 .* psi spec is missing key 'family'",
            ),
            (
                {
                    "kind": "trace",
                    "A": [1.0, 1.0],
                    "B": [1.0],
                    "r": 1.5,
                    "p-values": [],
                    "family": {"generator": "bump", "count": 1},
                },
                r"campaign check 1 .* 'p-values' must be a list of numbers, at least one, got \[\]",
            ),
            (
                {
                    "kind": "morrey",
                    "A": [1.0, 0.5],
                    "psi": {"family": "constant", "a": 4.0, "b": 7.0},
                    "deltas": [],
                    "family": {"generator": "bump", "count": 1},
                },
                r"campaign check 1 .* 'deltas' must be a list of numbers, at least one",
            ),
            (
                {
                    "kind": "scaling",
                    "A": [1.0, 2.0],
                    "p-values": [2.0],
                    "family": {"generator": "gaussian", "box": [[0.5, 2.0]], "count": 1,
                               "seed": 10**9},
                },
                "campaign check 1 .* seed 1000000000 is too large",
            ),
        ],
        ids=["trace-B-longer-than-r", "negative-A", "sobolev-p-1", "sobolev-p-above-D",
             "scaling-p-above-D", "gls-psi-below-1", "gls-psi-above-D", "morrey-delta-0",
             "morrey-psi-below-D", "morrey-c2-string", "morrey-c2-negative", "box-triple",
             "morrey-delta-underflow", "morrey-delta-overflow", "gls-psi-unknown-key",
             "morrey-psi-without-family", "trace-no-p-values", "morrey-no-deltas",
             "family-seed-past-the-index-limit"],
    )
    def test_exponent_tuples_are_checked_before_any_check_runs(self, monkeypatch, bad, message):
        ran = []
        monkeypatch.setattr(verify_module, "check_scaling", lambda *a, **k: ran.append(a))
        scaling = {
            "kind": "scaling",
            "A": [1.0, 2.0],
            "p-values": [2.0],
            "family": {"generator": "bump", "count": 1},
        }
        with pytest.raises(InputError, match=message):
            run_campaign({"checks": [scaling, bad]})
        assert ran == []

    def test_sobolev_p_inside_talentis_guard_runs_after_earlier_checks(self):
        scaling = {
            "kind": "scaling",
            "A": [1.0, 2.0],
            "p-values": [2.0],
            "family": {"generator": "bump", "count": 1},
        }
        sobolev = {
            "kind": "sobolev",
            "A": [0.5, 0.5, 0.5],
            "p-values": [3 - 1e-13],
            "family": {"generator": "bump", "count": 1},
        }
        reports = run_campaign({"checks": [scaling, sobolev]})
        assert sorted(r.inequality_id for r in reports) == ["scaling-2.4", "sobolev-1.6a"]

    def test_a_family_may_use_the_extremal_generator(self):
        # defaults D = 5, p = 2 match A = (1, 2) at p = 2: the family saturates C(p)
        sobolev = {
            "kind": "sobolev",
            "A": [1.0, 2.0],
            "p-values": [2.0],
            "family": {"generator": "extremal", "count": 1},
        }
        [report] = run_campaign({"checks": [sobolev]})
        assert report.inputs["profile"] == "extremal(D=5,p=2)"
        assert report.ratio == check_sobolev(extremal_profile(5.0, 2.0), [1.0, 2.0], 2.0).ratio
        assert report.ratio == pytest.approx(1.0, abs=1e-10)
        assert report.passed

    def test_campaign_samples_each_morrey_modulus_once(self, monkeypatch):
        real = verify_module.modulus_of_continuity
        sampled = []

        def counting(u, delta):
            value = real(u, delta)
            sampled.append((u.name, delta, value))
            return value

        monkeypatch.setattr(verify_module, "modulus_of_continuity", counting)
        monkeypatch.setattr(grand_module, "modulus_of_continuity", counting)
        cfg = default_campaign_config()
        cfg["checks"] = [c for c in cfg["checks"] if c["kind"] == "morrey"]
        reports = run_campaign(cfg)
        assert len(reports) == 4  # two profiles, two deltas
        assert len(sampled) == len({(name, delta) for name, delta, _ in sampled}) == 4
        assert sorted(report.lhs for report in reports) == sorted(v for _, _, v in sampled)


class TestCampaignNumbers:
    # a JSON boolean is a numbers.Real, so true once ran as 1 and false as 0;
    # a gaussian scale of 1e200 once overflowed in a traceback
    @pytest.mark.parametrize(
        "check, message",
        [
            (
                {"kind": "sobolev", "A": [True, 2], "p-values": [2],
                 "family": {"generator": "bump", "count": 1}},
                r"campaign check 0 \(kind 'sobolev'\): 'A' must be a list of numbers",
            ),
            (
                {"kind": "sobolev", "A": [1, 2], "p-values": [2],
                 "family": {"generator": "bump", "count": True}},
                r"campaign check 0 \(kind 'sobolev'\): 'count' must be a whole number, got True",
            ),
            (
                {"kind": "sobolev", "A": [1, 2], "p-values": [2],
                 "family": {"generator": "bump", "count": 1, "seed": False}},
                r"campaign check 0 \(kind 'sobolev'\): 'seed' must be a whole number, got False",
            ),
            (
                {"kind": "trace", "A": [1, 1], "B": [1], "r": True, "p-values": [2],
                 "family": {"generator": "bump", "count": 1}},
                r"campaign check 0 \(kind 'trace'\): 'r' must be a whole number, got True",
            ),
            (
                {"kind": "sobolev", "A": [1, 2], "p-values": [2],
                 "family": {"generator": "gaussian", "box": [[1e200, 1e201]], "count": 1}},
                r"campaign check 0 \(kind 'sobolev'\): input too large for float arithmetic",
            ),
        ],
    )
    def test_check_and_key_are_named(self, check, message):
        with pytest.raises(InputError, match=message):
            run_campaign({"checks": [check]})

    def test_a_boolean_seed_is_refused(self):
        with pytest.raises(InputError, match="'seed' must be a whole number, got False"):
            run_campaign({"seed": False, "checks": []})


class TestCampaignRunTimeOverflow:
    # bump(1e300, k) is built at read time, but its head's (eps / 2)^(gamma + 1)
    # overflows once the check runs
    def test_an_overflow_while_a_check_runs_is_an_input_error_naming_it(self):
        huge = {"kind": "sobolev", "A": [1, 2], "p-values": [2],
                "family": {"generator": "bump", "box": [[1e300, 1e301], [1, 2]], "count": 1}}
        fine = {"kind": "sobolev", "A": [1, 2], "p-values": [2],
                "family": {"generator": "bump", "count": 1}}
        with pytest.raises(
            InputError,
            match=r"^campaign check 1 \(kind 'sobolev'\): input too large for float arithmetic: ",
        ):
            run_campaign({"checks": [fine, huge]})

    def test_a_profile_that_passes_its_parameter_rules_can_still_overflow_as_it_runs(self):
        # a radius of 1e300 is refused as its check is read (its square
        # overflows); 1e100 is built, and its head overflows once it runs
        huge = {"kind": "sobolev", "A": [1, 2], "p-values": [2],
                "family": {"generator": "bump", "box": [[1e100, 1e101], [1, 2]], "count": 1}}
        verify_module._read_check(0, huge, 0, "corrected", 0.0)
        with pytest.raises(
            InputError,
            match=r"^campaign check 0 \(kind 'sobolev'\): input too large for float arithmetic: ",
        ):
            run_campaign({"checks": [huge]})
