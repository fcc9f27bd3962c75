import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_jacobi

import glsobolev.quadrature as quadrature_module
from glsobolev.errors import DivergentIntegralError, QuadratureError
from glsobolev.profiles import bump, gaussian, power_tail, smoothed_step, tent
from glsobolev.quadrature import (
    QuadratureDiagnostics,
    _jacobi_rule,
    _k15_panels,
    _power_weighted,
    adaptive_quadrature,
    extend_tail,
    integrate_power_weighted,
)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        # degree 7 is inside the Gauss rule's exactness, no refinement needed
        val, diag = adaptive_quadrature(lambda x: x**7 - 3 * x**3 + 2, 0.0, 2.0)
        exact = 2.0**8 / 8 - 3 * 2.0**4 / 4 + 4
        assert val == pytest.approx(exact, rel=1e-14)
        assert diag.converged
        assert diag.panels == 1

    @pytest.mark.parametrize(
        "f,a,b,exact",
        [
            (np.exp, 0.0, 1.0, math.e - 1.0),
            (np.sin, 0.0, math.pi, 2.0),
            (lambda x: 1.0 / (1.0 + x**2), 0.0, 1.0, math.pi / 4.0),
            (lambda x: np.exp(-(x**2)), -5.0, 5.0, math.sqrt(math.pi) * math.erf(5.0)),
        ],
    )
    def test_closed_forms(self, f, a, b, exact):
        val, diag = adaptive_quadrature(f, a, b)
        assert val == pytest.approx(exact, rel=1e-12)
        assert diag.converged

    def test_narrow_peak_matches_scipy(self):
        def f(x):
            return np.exp(-10000.0 * (x - 0.37) ** 2)

        val, diag = adaptive_quadrature(f, 0.0, 1.0)
        ref, _ = quad(lambda x: math.exp(-10000.0 * (x - 0.37) ** 2), 0.0, 1.0, epsabs=1e-14)
        assert val == pytest.approx(ref, rel=1e-10)
        assert diag.converged

    def test_seeded_edges_pin_a_needle(self):
        # a needle the initial 15 nodes would miss entirely
        c, w = 0.5, 1e-7

        def f(x):
            return np.exp(-(((x - c) / w) ** 2))

        seeded, diag = adaptive_quadrature(
            f, 0.0, 1.0, initial_edges=[c - 10 * w, c, c + 10 * w]
        )
        assert seeded == pytest.approx(w * math.sqrt(math.pi), rel=1e-9)
        assert diag.converged

    def test_empty_interval(self):
        val, diag = adaptive_quadrature(np.exp, 1.0, 1.0)
        assert val == 0.0

    def test_reversed_interval_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_quadrature(np.exp, 1.0, 0.0)

    def test_budget_exhaustion_reported(self, monkeypatch):
        # highly oscillatory beyond a tiny budget: flagged, not silently wrong
        def f(x):
            return np.sin(10000.0 * x)

        monkeypatch.setattr(quadrature_module, "MAX_PANELS", 4)
        val, diag = adaptive_quadrature(f, 0.0, 1.0)
        assert not diag.converged
        assert diag.notes

    def test_notes_reach_to_dict(self, monkeypatch):
        monkeypatch.setattr(quadrature_module, "MAX_PANELS", 4)
        _, diag = adaptive_quadrature(lambda x: np.sin(1e4 * x), 0.0, 1.0)
        notes = diag.to_dict()["notes"]
        assert notes and all(isinstance(note, str) for note in notes)
        assert "panel budget 4 exhausted" in notes[0]

    def test_deterministic(self):
        def f(x):
            return np.exp(-3.0 * x) * np.sin(7.0 * x)

        a = adaptive_quadrature(f, 0.0, 4.0)
        b = adaptive_quadrature(f, 0.0, 4.0)
        assert a[0] == b[0]
        assert a[1].panels == b[1].panels


class TestPowerWeighted:
    @pytest.mark.parametrize("gamma_exp", [0.0, 0.5, 1.0, 2.5, 4.0, -0.5])
    def test_pure_power(self, gamma_exp):
        # int_0^R t^g dt = R^(g+1)/(g+1)
        R = 1.7
        val, diag = integrate_power_weighted(lambda t: np.ones_like(t), gamma_exp, R)
        assert val == pytest.approx(R ** (gamma_exp + 1.0) / (gamma_exp + 1.0), rel=1e-12)
        assert diag.converged

    def test_gamma_moment(self):
        # int_0^inf t^(D-1) e^(-t) dt = Gamma(D), truncated at a far radius
        D = 3.5
        val, _ = integrate_power_weighted(lambda t: np.exp(-t), D - 1.0, 60.0)
        assert val == pytest.approx(math.gamma(D), rel=1e-11)

    def test_fractional_weight_times_smooth(self):
        # int_0^1 t^(-1/2) cos t dt against scipy with explicit endpoint care
        val, _ = integrate_power_weighted(np.cos, -0.5, 1.0)
        ref, err = quad(lambda t: math.cos(t) / math.sqrt(t), 0.0, 1.0, epsabs=1e-14)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_sharp_structure_near_zero_is_not_missed(self):
        # integrand with a scale-1e-4 feature at the origin; the head panel
        # must shrink until it resolves it
        k = 1e4

        def g(t):
            return np.exp(-k * t)

        val, _ = integrate_power_weighted(g, 1.0, 1.0)
        # int_0^1 t e^(-kt) dt = (1 - (1 + k) e^(-k)) / k^2
        assert val == pytest.approx(1.0 / k**2, rel=1e-9)

    def test_nonintegrable_weight_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_power_weighted(np.cos, -1.0, 1.0)

    def test_zero_upper(self):
        val, _ = integrate_power_weighted(np.cos, 1.5, 0.0)
        assert val == 0.0

    def test_head_rule_is_keyed_on_the_exact_exponent(self):
        # two exponents that agree to 12 decimals still get their own rule
        near = 0.5 + 1e-13
        _jacobi_rule(24, 0.5)
        x, w = _jacobi_rule(24, near)
        x_exact, w_exact = roots_jacobi(24, 0.0, near)
        assert np.array_equal(x, x_exact) and np.array_equal(w, w_exact)
        assert not np.array_equal(w, _jacobi_rule(24, 0.5)[1])


class TestTailExtension:
    def test_power_tail_closed_form(self):
        # int_1^inf t^(-3) dt = 1/2
        val, diag = extend_tail(lambda t: t**-3.0, 1.0)
        assert val == pytest.approx(0.5, rel=1e-11)
        assert diag.truncation_radius > 1.0
        assert diag.converged

    def test_exponential_tail(self):
        val, _ = extend_tail(lambda t: np.exp(-t), 2.0)
        assert val == pytest.approx(math.exp(-2.0), rel=1e-11)

    def test_divergent_tail_detected(self):
        with pytest.raises(DivergentIntegralError):
            extend_tail(lambda t: 1.0 / t, 1.0)

    def test_growing_tail_detected(self):
        with pytest.raises(DivergentIntegralError):
            extend_tail(lambda t: t**0.5, 1.0)

    def test_slow_tail_hits_cap(self):
        # t^(-1.01) converges but cannot reach the relative threshold
        # before the radius cap; must refuse rather than truncate silently
        with pytest.raises(QuadratureError):
            extend_tail(lambda t: t**-1.01, 1.0)

    def test_base_value_sets_the_scale(self):
        # relative to a large base, a small tail is spent immediately
        val, diag = extend_tail(lambda t: t**-3.0, 1.0, base_value=1e12)
        assert diag.truncation_radius <= 4.0

    def test_bad_start(self):
        with pytest.raises(QuadratureError):
            extend_tail(lambda t: t**-3.0, 0.0)


class TestNonFiniteInputs:
    """A non-finite input to a public quadrature entry is refused with a
    QuadratureError that names it, before any integrand is evaluated."""

    @pytest.mark.parametrize("start", [math.nan, math.inf], ids=["nan", "inf"])
    def test_tail_start(self, start):
        with pytest.raises(
            QuadratureError, match=f"^tail start {start} must be positive and finite$"
        ):
            extend_tail(lambda t: t**-3.0, start)

    @pytest.mark.parametrize("upper", [math.nan, math.inf], ids=["nan", "inf"])
    def test_power_weighted_upper(self, upper):
        with pytest.raises(QuadratureError, match=f"^upper limit {upper} must be finite$"):
            integrate_power_weighted(np.cos, 1.0, upper)

    def test_power_weighted_exponent(self):
        with pytest.raises(QuadratureError, match="^weight exponent nan must be finite$"):
            integrate_power_weighted(np.cos, math.nan, 1.0)

    def test_adaptive_interval(self):
        with pytest.raises(QuadratureError, match=r"^interval \[0.0, inf\] must be finite$"):
            adaptive_quadrature(np.cos, 0.0, math.inf)


def _tail_outcome(run):
    """(repr of the value, diagnostics dict), or (exception type, message,
    diagnostics dict)."""
    try:
        value, diag = run()
    except QuadratureError as exc:
        return type(exc).__name__, str(exc), exc.diagnostics
    return repr(value), diag.to_dict()


class TestTailRows:
    # (integrand, start, base value): spent, divergent, unspent at the cap,
    # and rows that share a start with others but not their base value
    ROWS = [
        (lambda t: t**-3.0, 1.0, 0.0),
        (lambda t: 1.0 / t, 1.0, 0.0),
        (lambda t: t**-1.01, 1.0, 0.0),
        (lambda t: t**-3.0, 1.0, 1e12),
        (lambda t: np.exp(-t), 2.0, 0.0),
        (lambda t: t**-3.0, 2.0, -0.25),
        (lambda t: t**-2.0, 3.5, 1.0),
        (lambda t: t**-3.0, math.nan, 0.0),
    ]

    @staticmethod
    def _family(x, rows):
        funcs = [f for f, _, _ in TestTailRows.ROWS]
        if x.ndim == 1:
            return np.stack([funcs[r](x) for r in rows])
        return np.stack([funcs[r](x[k]) for k, r in enumerate(rows)])

    def test_each_row_is_its_lone_tail(self):
        batched = quadrature_module._extend_tails(
            self._family, [s for _, s, _ in self.ROWS], [b for _, _, b in self.ROWS]
        )
        kinds = set()
        for (f, start, base), row in zip(self.ROWS, batched):
            got = _tail_outcome(lambda: quadrature_module._raise_error(row))
            alone = _tail_outcome(lambda: extend_tail(f, start, base_value=base))
            assert got == alone, (start, base)
            kinds.add(got[0] if len(got) == 3 else "spent")
        assert kinds == {"spent", "DivergentIntegralError", "QuadratureError"}

    def test_rows_at_one_radius_share_their_first_block(self):
        calls = []

        def family(x, rows):
            calls.append((x.ndim, list(rows)))
            return self._family(x, rows)

        quadrature_module._extend_tails(family, [1.0, 1.0, 2.0], [0.0, 1e12, 0.0])
        assert calls[:2] == [(1, [0, 1]), (1, [2])]


class TestDiagnosticsMerge:
    def test_sums_work_and_keeps_the_worst_error(self):
        diag = QuadratureDiagnostics(panels=2, neval=30, error_estimate=1e-12, rel_error=1e-13)
        diag.merge(
            QuadratureDiagnostics(
                panels=3,
                neval=45,
                error_estimate=2e-12,
                rel_error=5e-11,
                truncation_radius=4.0,
                converged=False,
            )
        )
        assert (diag.panels, diag.neval) == (5, 75)
        assert diag.error_estimate == pytest.approx(3e-12, rel=1e-15)
        assert diag.rel_error == 5e-11
        assert diag.truncation_radius == 4.0
        assert not diag.converged
        diag.merge(QuadratureDiagnostics(rel_error=1e-14))
        assert diag.rel_error == 5e-11


class TestSplitReuse:
    @pytest.mark.parametrize("make", [bump, gaussian, tent, smoothed_step, power_tail])
    @pytest.mark.parametrize("p", [1.3, 2.0, 5.7, 200.0])
    def test_stacked_halves_match_pairwise_calls_bit_for_bit(self, make, p):
        u = make()
        peak = u.value_peak.value
        f = _power_weighted(lambda r: (np.abs(u.value(r)) / peak) ** p, 2.5)
        edges = np.geomspace(1e-3, 2.0 * u.support.radius, 40)
        lo, hi = edges[:-1], edges[1:]
        mid = 0.5 * (lo + hi)
        vals, errs = _k15_panels(f, np.stack([lo, mid], 1), np.stack([mid, hi], 1))
        assert vals.shape == errs.shape == (len(lo), 2)
        for i in range(len(lo)):
            pair_vals, pair_errs = _k15_panels(
                f, np.array([lo[i], mid[i]]), np.array([mid[i], hi[i]])
            )
            assert vals[i].tobytes() == pair_vals.tobytes()
            assert errs[i].tobytes() == pair_errs.tobytes()


class TestRowBatch:
    def test_a_row_whose_head_fails_leaves_the_others_alone(self):
        funcs = (lambda t: np.sin(1.0 / t), lambda t: np.exp(-t))

        def family(x, rows):
            if x.ndim == 1:
                return np.stack([funcs[r](x) for r in rows])
            return np.stack([funcs[r](x[k]) for k, r in enumerate(rows)])

        failed, (value, diag) = quadrature_module._integrate_rows(
            family, 2.0, [1.0, 1.0], [None, None]
        )
        assert isinstance(failed, QuadratureError)
        assert str(failed) == "head panel failed to stabilize near 0"
        alone, alone_diag = integrate_power_weighted(lambda t: np.exp(-t), 2.0, 1.0)
        assert value == alone
        assert diag.to_dict() == alone_diag.to_dict()
