import heapq
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_jacobi

import glsobolev.norms as norms_module
import glsobolev.quadrature as quadrature_module
from glsobolev.errors import DivergentIntegralError, QuadratureError
from glsobolev.norms import weighted_lp_norm
from glsobolev.profiles import bump, gaussian, power_tail, smoothed_step, tent
from glsobolev.quadrature import (
    QuadratureDiagnostics,
    _jacobi_rule,
    _k15_panels,
    _one_row,
    _power_weighted,
    _raise_error,
    _take,
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


class TestNonFiniteError:
    """An integrand whose error estimate is not finite stops the heap loop
    at once; the note says so rather than naming the panel budget."""

    @pytest.mark.parametrize(
        "f",
        [lambda x: np.where(x > 0.5, np.inf, 1.0), lambda x: np.full_like(x, np.nan)],
        ids=["inf-half", "all-nan"],
    )
    def test_a_non_finite_error_has_its_own_note(self, f):
        with np.errstate(invalid="ignore"):
            _, diag = adaptive_quadrature(f, 0.0, 1.0)
        assert (diag.panels, diag.converged) == (1, False)
        assert math.isnan(diag.error_estimate)
        assert diag.notes == ["non-finite error estimate nan after 1 panels"]


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
    def _family(x, rows, of):
        funcs = [f for f, _, _ in TestTailRows.ROWS]
        if x.ndim == 1:
            return np.stack([funcs[r](x) for r in rows])
        return np.stack([funcs[r](row) for r, row in zip(rows, _take(x, of))])

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

        def family(x, rows, of):
            calls.append((x.ndim, list(rows)))
            return self._family(x, rows, of)

        quadrature_module._extend_tails(family, [1.0, 1.0, 2.0], [0.0, 1e12, 0.0])
        assert calls[:2] == [(1, [0, 1]), (1, [2])]


class TestDiagnosticsMerge:
    def test_to_dict_lists_eight_notes_and_counts_the_rest(self):
        diag = QuadratureDiagnostics(notes=[f"note {k}" for k in range(8)])
        assert diag.to_dict()["notes"] == [f"note {k}" for k in range(8)]
        diag.merge(QuadratureDiagnostics(notes=["note 8", "note 9"]))
        diag.merge(QuadratureDiagnostics(notes=["note 10"]))
        assert diag.notes[-1] == "note 10"
        assert diag.to_dict()["notes"] == [f"note {k}" for k in range(8)] + ["and 3 more notes"]

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

        def family(x, rows, of):
            if x.ndim == 1:
                return np.stack([funcs[r](x) for r in rows])
            return np.stack([funcs[r](row) for r, row in zip(rows, _take(x, of))])

        failed, (value, diag) = quadrature_module._integrate_rows(
            family, 2.0, [1.0, 1.0], [None, None]
        )
        assert isinstance(failed, QuadratureError)
        assert str(failed) == "head panel failed to stabilize near 0"
        alone, alone_diag = integrate_power_weighted(lambda t: np.exp(-t), 2.0, 1.0)
        assert value == alone
        assert diag.to_dict() == alone_diag.to_dict()

    def test_rows_alone_on_their_edges_share_one_call_per_panel_count(self):
        # rows 0 and 1 share their edges, rows 2 and 3 are alone on two
        # panels each and row 4 alone on three: three first calls
        funcs = (np.exp, np.sin, np.cos, lambda t: t**2.5, np.sqrt)
        edge_rows = [
            (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), (0.5, 1.0, 3.0), (1.0, 2.0, 4.0),
            (0.0, 0.5, 1.0, 2.0),
        ]
        calls = []

        def family(x, rows, of):
            calls.append((x.shape, list(rows)))
            if x.ndim == 1:
                return np.stack([funcs[r](x) for r in rows])
            return np.stack([funcs[r](row) for r, row in zip(rows, _take(x, of))])

        batched = quadrature_module._refine_rows(family, edge_rows, [0.0] * 5)
        assert calls[:3] == [((30,), [0, 1]), ((2, 30), [2, 3]), ((45,), [4])]
        for f, edges, (value, diag) in zip(funcs, edge_rows, batched):
            alone, alone_diag = adaptive_quadrature(
                f, edges[0], edges[-1], initial_edges=edges[1:-1]
            )
            assert (value, diag.to_dict()) == (alone, alone_diag.to_dict())

    def test_rows_that_split_the_same_panel_share_its_points(self):
        # 2 sqrt(x) doubles every value and error of sqrt(x) exactly, so both
        # rows grow the same panel tree and each split round has one point row
        funcs = (np.sqrt, lambda t: 2.0 * np.sqrt(t))
        calls = []

        def family(x, rows, of):
            calls.append((x.shape, None if of is None else of.tolist()))
            if x.ndim == 1:
                return np.stack([funcs[r](x) for r in rows])
            return np.stack([funcs[r](row) for r, row in zip(rows, _take(x, of))])

        edges = (0.0, 1.0, 5.0)
        batched = quadrature_module._refine_rows(family, [edges, edges], [0.0, 0.0])
        assert calls[0] == ((30,), None)
        assert len(calls) > 1
        assert calls[1:] == [((1, 30), [0, 0])] * (len(calls) - 1)
        for f, (value, diag) in zip(funcs, batched):
            alone, alone_diag = adaptive_quadrature(f, 0.0, 5.0, initial_edges=[1.0])
            assert (value, diag.to_dict()) == (alone, alone_diag.to_dict())

    def test_heads_at_one_eps_share_their_points(self):
        # the head halves its eps several times near the kink of sqrt(t + 1e-6)
        funcs = (lambda t: np.sqrt(t + 1e-6), lambda t: 2.0 * np.sqrt(t + 1e-6))
        sizes = []

        def family(x, rows, of):
            sizes.append(x.size)
            return np.stack([funcs[r](row) for r, row in zip(rows, _take(x, of))])

        heads = quadrature_module._jacobi_heads(family, 1.5, [0.25, 0.25])
        assert len(sizes) > 1
        assert sizes == [72] * len(sizes)
        for f, head in zip(funcs, heads):
            assert head == quadrature_module._jacobi_heads(_one_row(f), 1.5, [0.25])[0]
            assert head[2] == 72 * len(sizes)


def _refinement(lo, hi, vals, errs, base_value):
    """The heap loop of one row as a generator, as ``_refine_rows`` ran it
    before it kept each row's state in place: it yields each split
    (a, mid, b) and is sent back the halves' (values, errors) as
    two-element lists.  Its unconverged note names round-off or the panel
    budget, so it is no reference for a non-finite error estimate."""
    REL_TOL, ABS_FLOOR = quadrature_module.REL_TOL, quadrature_module.ABS_FLOOR
    MAX_PANELS = quadrature_module.MAX_PANELS
    total = float(np.add.reduce(vals))
    total_err = float(np.add.reduce(errs))
    lo, hi, vals, errs = lo.tolist(), hi.tolist(), vals.tolist(), errs.tolist()
    heap = []
    for i in range(len(lo)):
        heapq.heappush(heap, (-errs[i], i, lo[i], hi[i], vals[i], errs[i]))
    counter = len(lo)
    floor_err = 0.0  # error stuck on panels too narrow to split
    panels = len(lo)
    neval = 15 * len(lo)
    iroff1 = iroff2 = 0  # dqage's round-off counters
    roundoff = False

    def tol_now() -> float:
        return max(REL_TOL * abs(total + base_value), ABS_FLOOR)

    while total_err + floor_err > tol_now() and panels < MAX_PANELS and heap and not roundoff:
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            floor_err += perr
            total_err -= perr
            continue
        cvals, cerrs = yield pa, mid, pb
        neval += 30
        area12, erro12 = cvals[0] + cvals[1], cerrs[0] + cerrs[1]
        total += area12 - pval
        total_err += erro12 - perr
        heapq.heappush(heap, (-cerrs[0], counter, pa, mid, cvals[0], cerrs[0]))
        heapq.heappush(heap, (-cerrs[1], counter + 1, mid, pb, cvals[1], cerrs[1]))
        counter += 2
        panels += 1
        if erro12 >= 0.99 * perr:  # rare while the errors fall
            iroff1 += abs(pval - area12) <= 1e-5 * abs(area12)
            iroff2 += panels > 10 and erro12 > perr
            roundoff = iroff1 >= quadrature_module.ROUNDOFF_STALLS or (
                iroff2 >= quadrature_module.ROUNDOFF_RISES
            )

    err = total_err + floor_err
    diag = QuadratureDiagnostics(
        panels=panels,
        neval=neval,
        error_estimate=err,
        rel_error=err / max(abs(total + base_value), ABS_FLOOR),
        converged=bool(err <= tol_now()),
    )
    if not diag.converged:
        diag.notes.append(
            f"round-off detected after {panels} panels at error {err:.3e}"
            if roundoff
            else f"panel budget {MAX_PANELS} exhausted at error {err:.3e}"
        )
    return total, diag


def _heap_loop_without_round_off_stop(lo, hi, vals, errs, base_value):
    """``_refinement`` as it was before the round-off stop: it refines until
    the tolerance, the panel budget or the last splittable panel is reached."""
    REL_TOL, ABS_FLOOR = quadrature_module.REL_TOL, quadrature_module.ABS_FLOOR
    MAX_PANELS = quadrature_module.MAX_PANELS
    total = float(np.add.reduce(vals))
    total_err = float(np.add.reduce(errs))
    lo, hi, vals, errs = lo.tolist(), hi.tolist(), vals.tolist(), errs.tolist()
    heap = []
    for i in range(len(lo)):
        heapq.heappush(heap, (-errs[i], i, lo[i], hi[i], vals[i], errs[i]))
    counter = len(lo)
    floor_err = 0.0
    panels = len(lo)
    neval = 15 * len(lo)

    def tol_now() -> float:
        return max(REL_TOL * abs(total + base_value), ABS_FLOOR)

    while total_err + floor_err > tol_now() and panels < MAX_PANELS and heap:
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            floor_err += perr
            total_err -= perr
            continue
        cvals, cerrs = yield pa, mid, pb
        neval += 30
        total += (cvals[0] + cvals[1]) - pval
        total_err += (cerrs[0] + cerrs[1]) - perr
        heapq.heappush(heap, (-cerrs[0], counter, pa, mid, cvals[0], cerrs[0]))
        heapq.heappush(heap, (-cerrs[1], counter + 1, mid, pb, cvals[1], cerrs[1]))
        counter += 2
        panels += 1

    err = total_err + floor_err
    diag = QuadratureDiagnostics(
        panels=panels,
        neval=neval,
        error_estimate=err,
        rel_error=err / max(abs(total + base_value), ABS_FLOOR),
        converged=bool(err <= tol_now()),
    )
    if not diag.converged:
        diag.notes.append(f"panel budget {MAX_PANELS} exhausted at error {err:.3e}")
    return total, diag


def _rows_one_by_one(loop):
    """A stand-in for ``_refine_rows`` that runs the heap-loop generator
    ``loop`` on each row alone, one row after another, with K15 calls
    shaped as a lone row's: its first panels in one call on a 1-d x and
    each split as a (1, 2) stack."""

    def refine_rows(f, edge_rows, base_values):
        out = []
        for r, edges in enumerate(edge_rows):
            lo, hi = np.array(edges[:-1]), np.array(edges[1:])
            vals, errs = _k15_panels(lambda x: f(x, [r], None), lo, hi)
            loop_r = loop(lo, hi, vals.reshape(-1), errs.reshape(-1), base_values[r])
            try:
                a, mid, b = next(loop_r)
                while True:
                    vals, errs = _k15_panels(
                        lambda x: f(x.reshape(1, -1), [r], None),
                        np.array([[a, mid]]),
                        np.array([[mid, b]]),
                    )
                    a, mid, b = loop_r.send((vals[0].tolist(), errs[0].tolist()))
            except StopIteration as stop:
                out.append(stop.value)
        return out

    return refine_rows


def _without_round_off_stop(run):
    """``run()`` with every row refined by the heap loop that has no
    round-off stop."""
    real = quadrature_module._refine_rows
    quadrature_module._refine_rows = _rows_one_by_one(_heap_loop_without_round_off_stop)
    try:
        return run()
    finally:
        quadrature_module._refine_rows = real


_smooth_integrands = st.tuples(
    st.floats(-2.0, 2.0),  # a
    st.floats(0.1, 5.0),  # b - a
    st.floats(0.0, 3.0),  # quadratic coefficient
    st.floats(0.0, 1e3),  # height of a gaussian bump
    st.floats(0.0, 1.0),  # its centre, as a fraction of [a, b]
    st.floats(-3.0, 0.0),  # log10 of its width, relative to b - a
    st.floats(0.0, 2.0),  # amplitude of an oscillation
    st.floats(0.0, 60.0),  # its frequency
)

_generators = st.one_of(
    st.builds(bump, st.floats(0.3, 3.0), st.floats(0.2, 5.0)),
    st.builds(gaussian, st.floats(0.3, 3.0)),
    st.builds(power_tail, st.floats(2.0, 6.0), st.floats(0.3, 3.0)),
    st.builds(
        lambda R, frac: smoothed_step(R, frac * R), st.floats(0.3, 3.0), st.floats(0.05, 1.0)
    ),
    st.builds(tent, st.floats(0.3, 3.0)),
)


class TestRoundOffStop:
    @settings(max_examples=80, deadline=None)
    @given(_smooth_integrands)
    def test_never_stops_a_smooth_integral_that_converges(self, params):
        a, width, quad2, height, centre, log_w, amp, freq = params
        m, s = a + centre * width, 10.0**log_w * width

        def f(x):
            return (
                1.0 + quad2 * x**2 + height * np.exp(-(((x - m) / s) ** 2))
                + amp * (1.0 + np.sin(freq * x))
            )

        ref_value, ref_diag = _without_round_off_stop(lambda: adaptive_quadrature(f, a, a + width))
        value, diag = adaptive_quadrature(f, a, a + width)
        assert ref_diag.converged
        assert (repr(value), diag.to_dict()) == (repr(ref_value), ref_diag.to_dict())

    @settings(max_examples=20, deadline=None)
    @given(
        _generators,
        st.sampled_from([(1.0, 2.0), (0.0,), (0.5, 0.5, 0.5)]),
        st.booleans(),
        st.floats(0.0, 4.0),  # log10 of the window's low end
        st.floats(0.0, 4.0),  # log10 of the window's high end
    )
    def test_never_stops_a_slice_row_that_converges(self, u, A, gradient, lo, hi):
        lo, hi = sorted((lo, hi))
        ps = [float(p) for p in np.logspace(lo, hi, 5)]
        ref = _without_round_off_stop(lambda: norms_module._slice_rows(u, gradient, A, ps))
        rows = norms_module._slice_rows(u, gradient, A, ps)
        for p, got, want in zip(ps, rows, ref):
            assert isinstance(want, Exception) or want[1].converged, p
            got, want = (_tail_outcome(lambda: _raise_error(row)) for row in (got, want))
            assert got == want, p

    def test_a_round_off_row_stops_early_with_its_note(self):
        # at p = 1e8, (|u| / peak)^p raises the 1e-16 noise of u to about
        # 1e-8 relative, so no panel tree certifies REL_TOL
        value, diag = weighted_lp_norm(bump(1.0, 1.5), (1.0, 2.0), 1e8, details=True)
        assert not diag.converged
        assert diag.panels < 200
        assert len(diag.notes) == 1
        assert re.fullmatch(r"round-off detected after \d+ panels at error \S+", diag.notes[0])
        assert abs(value - 0.999999528138642) <= 4 * math.ulp(0.999999528138642)

    @staticmethod
    def _drive(monkeypatch, halves):
        """Run ``_refine_rows`` on one row from the one panel [0, 1] of value
        1 and error 1.002e-10 (tolerance 1e-10), its K15 calls scripted:
        split i of a panel of value v and error e gives two halves of value
        v * gain / 2 and error e * rise / 2, where (gain, rise) = halves(i)."""
        panels = {(0.0, 1.0): (1.0, 1.002e-10)}
        splits = [0]

        def scripted(f, lo, hi):
            if np.ndim(lo) == 1:  # the row's first panels
                v, e = panels[(0.0, 1.0)]
                return np.array([v]), np.array([e])
            (a, mid), (_, b) = lo.tolist()[0], hi.tolist()[0]
            v, e = panels.pop((a, b))
            gain, rise = halves(splits[0])
            splits[0] += 1
            panels[(a, mid)] = panels[(mid, b)] = (v * gain / 2, e * rise / 2)
            return np.array([[v * gain / 2] * 2]), np.array([[e * rise / 2] * 2])

        monkeypatch.setattr(quadrature_module, "_k15_panels", scripted)
        ((total, diag),) = quadrature_module._refine_rows(None, [(0.0, 1.0)], [0.0])
        return total, diag

    def test_six_stalled_splits_stop_the_row(self, monkeypatch):
        # each split keeps the value and the error: dqage's iroff1
        total, diag = self._drive(monkeypatch, lambda i: (1.0, 1.0))
        assert (total, diag.panels, diag.converged) == (1.0, 7, False)
        assert diag.notes == ["round-off detected after 7 panels at error 1.002e-10"]

    def test_the_tolerance_test_comes_before_the_counters(self, monkeypatch):
        # the sixth stalled split also brings the error under the tolerance
        total, diag = self._drive(monkeypatch, lambda i: (1.0, 0.99 if i == 5 else 1.0))
        assert (total, diag.panels, diag.converged, diag.notes) == (1.0, 7, True, [])

    def test_twenty_rising_errors_past_ten_panels_stop_the_row(self, monkeypatch):
        # the values move, so no split stalls; each error grows: dqage's iroff2
        _, diag = self._drive(monkeypatch, lambda i: (1.0 + 1e-3, 1.01))
        assert (diag.panels, diag.converged) == (30, False)
        assert diag.notes[0].startswith("round-off detected after 30 panels at error ")


def _family(funcs):
    """The row family f(x, rows, of) of ``_refine_rows`` whose row r is funcs[r]."""

    def family(x, rows, of):
        if x.ndim == 1:
            return np.stack([funcs[r](x) for r in rows])
        return np.stack([funcs[r](row) for r, row in zip(rows, _take(x, of))])

    return family


def _smooth_row(params, cuts):
    """A smooth integrand on [a, b] whose edges add the fractions ``cuts``
    of the range, so rows differ in their panel counts."""
    a, width, quad2, height, centre, log_w, amp, freq = params
    m, s = a + centre * width, 10.0**log_w * width

    def f(x):
        return (
            1.0 + quad2 * x**2 + height * np.exp(-(((x - m) / s) ** 2))
            + amp * (1.0 + np.sin(freq * x))
        )

    return f, tuple(sorted({a, a + width, *(a + c * width for c in cuts)}))


def _seeded_row(u, p):
    """t^4 (|u| / peak)^p past its head, on the panel edges a norm of u on
    D = 5 starts from: 71 panels, seeded onto the peak at p >= 128."""
    scan = u.value_peak
    seeded = norms_module._seeded_edges(scan, p)
    upper = norms_module._body_upper(u, seeded)
    eps = quadrature_module._head_eps(upper, seeded)
    return (
        lambda t: t**4.0 * (np.abs(u.value(t)) / scan.value) ** p,
        quadrature_module._panel_edges(eps, upper, seeded),
    )


def _narrow_row(a, ulps, freq):
    """cos(freq x) on [a, a + ulps ulp]: no panel narrower than two ulp can
    be split, and the tolerance is far below the panels' errors, so the row
    ends with its error on panels too narrow to split."""
    return lambda x: np.cos(freq * x), (a, a + ulps * math.ulp(a))


def _noisy_row(a, width, amp, freq):
    """1 + amp sin(freq x): noise to the K15 rule, which no panel tree
    certifies to REL_TOL when amp is above it, so the row stops at round-off."""
    return lambda x: 1.0 + amp * np.sin(freq * x), (a, a + width)


_rows = st.one_of(
    st.builds(_smooth_row, _smooth_integrands, st.lists(st.floats(0.01, 0.99), max_size=5)),
    st.builds(
        _seeded_row,
        st.sampled_from([bump(1.0, 1.5), bump(0.6, 0.5), gaussian(1.0), tent(1.0)]),
        st.floats(math.log(128.0), math.log(1e8)).map(math.exp),
    ),
    st.builds(_narrow_row, st.floats(0.5, 4.0), st.integers(2, 6), st.floats(1e15, 1e16)),
    st.builds(
        _noisy_row,
        st.floats(-1.0, 1.0),
        st.floats(0.1, 2.0),
        st.floats(-9.0, -6.0).map(lambda e: 10.0**e),
        st.floats(9.0, 12.0).map(lambda e: 10.0**e),
    ),
)


def _with_partners(rows, partners, bases):
    """(funcs, edge rows, base values) of ``rows``, each followed by the
    partner it draws on its own edges: 2 f at twice the base, whose panel
    tree coincides with f's, or f + 1, which shares only the first panels."""
    funcs, edge_rows, base_values = [], [], []
    for (f, edges), partner, base in zip(rows, partners, bases):
        funcs.append(f)
        edge_rows.append(edges)
        base_values.append(base)
        if partner == "double":
            funcs.append(lambda x, f=f: 2.0 * f(x))
            base_values.append(2.0 * base)
        elif partner == "shift":
            funcs.append(lambda x, f=f: f(x) + 1.0)
            base_values.append(base)
        if partner != "none":
            edge_rows.append(edges)
    return funcs, edge_rows, base_values


def _equals_the_generator_row_by_row(funcs, edge_rows, base_values):
    """Assert that ``_refine_rows`` gives each row the value repr and the
    diagnostics of ``_refinement`` run on that row alone; returns the rows."""
    family = _family(funcs)
    batched = quadrature_module._refine_rows(family, edge_rows, base_values)
    alone = _rows_one_by_one(_refinement)(family, edge_rows, base_values)
    for r, ((value, diag), (want, want_diag)) in enumerate(zip(batched, alone)):
        assert (repr(value), diag.to_dict()) == (repr(want), want_diag.to_dict()), r
    return batched


class TestHeapLoopInPlace:
    """``_refine_rows`` keeps each row's heap loop in place; every row has
    the bits, the diagnostics and the neval of the generator it replaced,
    driven on that row alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(_rows, st.sampled_from(["none", "double", "shift"]),
                           st.sampled_from([0.0, 0.5, -3.0, 1e6])),
                 min_size=1, max_size=5),
    )
    def test_each_row_equals_its_generator(self, rows):
        drawn, partners, bases = zip(*rows)
        _equals_the_generator_row_by_row(*_with_partners(drawn, partners, bases))

    def test_a_batch_of_every_kind(self):
        smooth = (0.0, 2.0, 1.0, 50.0, 0.3, -2.0, 0.5, 20.0)
        rows = [
            _smooth_row(smooth, []),
            _smooth_row(smooth, [0.25, 0.5]),
            _seeded_row(bump(1.0, 1.5), 1e8),
            _seeded_row(gaussian(1.0), 300.0),
            _narrow_row(1.0, 4, 1e16),
            _noisy_row(0.0, 1.0, 1e-7, 1e10),
        ]
        partners = ["double", "none", "shift", "none", "none", "double"]
        funcs, edge_rows, bases = _with_partners(rows, partners, [0.0] * len(rows))
        out = _equals_the_generator_row_by_row(funcs, edge_rows, bases)
        seeded, narrow, noisy = out[3][1], out[6][1], out[7][1]
        assert len(edge_rows[3]) == len(edge_rows[5]) == 72  # 71 seeded panels
        assert seeded.panels > 71
        # the narrow row's error sits on panels it cannot split
        assert (narrow.panels, narrow.converged) == (4, False)
        assert noisy.notes[0].startswith("round-off detected after ")
