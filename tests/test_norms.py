import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

import glsobolev.norms as norms_module

from glsobolev.errors import DivergentIntegralError, DomainError, QuadratureError
from glsobolev.exponents import as_exponent_tuple
from glsobolev.grand import _exponent_grid
from glsobolev.norms import (
    angular_mass,
    ball_mass,
    radial_integral,
    sup_norm,
    weighted_gradient_norm,
    weighted_lp_norm,
)
from glsobolev.profiles import (
    bump, extremal_profile, gaussian, make_profile, power_tail, step, tent
)
from glsobolev.quadrature import _raise_error

mpmath.mp.dps = 30


def gaussian_norm_reference(A, p: float, scale: float = 1.0) -> float:
    """||exp(-(r/s)^2)||_{p, A} = (sigma_A s^D Gamma(D/2) / (2 p^(D/2)))^(1/p)."""
    A = as_exponent_tuple(A)
    D = A.effective_dimension
    integral = angular_mass(A) * scale**D * math.gamma(D / 2.0) / (2.0 * p ** (D / 2.0))
    return integral ** (1.0 / p)


class TestAngularMass:
    def test_unweighted_sphere_areas(self):
        # sigma_0 in m dimensions is the area of the unit sphere
        assert angular_mass([0.0, 0.0]) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert angular_mass([0.0, 0.0, 0.0]) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_weighted_plane(self):
        # int_{S^1} |x| |y| ds = 2, and the formula gives 2 Gamma(1)^2 / Gamma(2)
        assert angular_mass([1.0, 1.0]) == pytest.approx(2.0, rel=1e-14)

    def test_matches_direct_angular_integral(self):
        # one octant integral of cos^a sin^b over (0, pi/2), doubled per axis
        a_, b_ = 2.0, 3.0
        ref = 4.0 * float(
            mpmath.quad(
                lambda t: mpmath.cos(t) ** a_ * mpmath.sin(t) ** b_, [0, mpmath.pi / 2]
            )
        )
        assert angular_mass([a_, b_]) == pytest.approx(ref, rel=1e-12)


class TestBallMass:
    def test_ball_mass_closed_form(self):
        # sigma = 2, D = 4: |B_R| = 2 R^4 / 4
        assert ball_mass([1.0, 1.0], 2.0) == pytest.approx(2.0 * 16.0 / 4.0, rel=1e-14)

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            ball_mass([1.0, 1.0], -1.0)

    def test_nan_radius(self):
        with pytest.raises(DomainError, match="radius must be nonnegative, got nan"):
            ball_mass([1.0, 1.0], math.nan)


class TestWeightedLpNorm:
    @pytest.mark.parametrize(
        "A,p,scale",
        [
            ([1.0, 2.0], 2.0, 1.0),
            ([1.0, 2.0], 3.7, 0.5),
            ([0.0, 0.0, 0.0], 2.0, 1.3),
            ([0.5, 0.5], 1.0, 2.0),
            ([4.0], 2.5, 1.0),
        ],
    )
    def test_gaussian_closed_form(self, A, p, scale):
        u = gaussian(scale)
        assert weighted_lp_norm(u, A, p) == pytest.approx(
            gaussian_norm_reference(A, p, scale), rel=1e-9
        )

    def test_step_closed_form(self):
        # ||1_{B_R}||_p = (sigma R^D / D)^(1/p)
        A = [1.0, 2.0]
        R, p = 1.4, 2.3
        exact = (angular_mass(A) * R**5.0 / 5.0) ** (1.0 / p)
        assert weighted_lp_norm(step(R), A, p) == pytest.approx(exact, rel=1e-10)

    def test_tent_closed_form(self):
        # ||(1 - r/R)_+||_p^p = sigma R^D B(D, p + 1) via the Beta function
        A = [1.0, 1.0]
        D = 4.0
        R, p = 2.0, 3.0
        beta = math.gamma(D) * math.gamma(p + 1.0) / math.gamma(D + p + 1.0)
        exact = (angular_mass(A) * R**D * beta) ** (1.0 / p)
        assert weighted_lp_norm(tent(R), A, p) == pytest.approx(exact, rel=1e-10)

    def test_power_tail_closed_form(self):
        # ||(1 + r^2)^(-e/2)||_{p,A}^p reduces to a Beta integral when e p > D
        A = [1.0, 2.0]
        D, e, p = 5.0, 4.0, 2.0
        half = (
            mpmath.gamma(mpmath.mpf(D) / 2)
            * mpmath.gamma((mpmath.mpf(e) * p - D) / 2)
            / (2 * mpmath.gamma(mpmath.mpf(e) * p / 2))
        )
        exact = float((angular_mass(A) * half) ** (1.0 / p))
        assert weighted_lp_norm(power_tail(e, 1.0), A, p) == pytest.approx(exact, rel=1e-9)

    def test_zero_profile(self):
        zero = tent(1.0)
        scaled = type(zero)(
            value=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            derivative=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            support=zero.support,
            check=False,
        )
        assert weighted_lp_norm(scaled, [1.0, 2.0], 2.0) == 0.0

    def test_weight_whose_effective_dimension_overflows(self):
        # rejected before any quadrature runs, so no RuntimeWarning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                weighted_lp_norm(bump(1.0, 1.0), [1e308, 1e308], 2.0)

    def test_divergent_norm_raises(self):
        with pytest.raises(DivergentIntegralError):
            weighted_lp_norm(power_tail(1.0, 1.0), [1.0, 2.0], 2.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(DomainError):
            weighted_lp_norm(gaussian(), [1.0, 2.0], 0.5)

    def test_details_flag(self):
        val, diag = weighted_lp_norm(gaussian(), [1.0, 2.0], 2.0, details=True)
        assert val == pytest.approx(weighted_lp_norm(gaussian(), [1.0, 2.0], 2.0))
        assert diag.converged
        assert diag.panels > 0


class TestLargeExponents:
    def test_norm_tends_to_sup(self):
        # ||u||_p -> max|u| as p -> inf; gaussian max is 1
        u = gaussian(1.0)
        for p, tol in ((1e4, 5e-3), (1e6, 5e-5), (1e8, 5e-7)):
            assert weighted_lp_norm(u, [1.0, 2.0], p) == pytest.approx(1.0, abs=tol)

    def test_interior_peak_large_p(self):
        # |u'| of a gaussian peaks at r = s/sqrt(2); at huge p the gradient
        # norm converges to that peak value sqrt(2/e)
        u = gaussian(1.0)
        peak = math.sqrt(2.0 / math.e)
        assert weighted_gradient_norm(u, [1.0, 2.0], 1e6) == pytest.approx(
            peak, rel=1e-4
        )

    def test_a_zero_integral_under_the_peak_is_not_certified(self):
        # at p = 1e20 every node misses the bump's peak and the integral is
        # 0, although the norm is about 1 (0.99999999999990 at p = 1e15);
        # the batched row flags it the same way
        u, A, p = bump(1.0, 1.0), (1.0, 2.0), 1e20
        value, diag = weighted_lp_norm(u, A, p, details=True)
        assert not diag.converged
        assert diag.notes == ["integral 0.0 under a positive peak: every node missed the peak"]
        [(row_value, row_diag)] = norms_module._slice_rows(u, False, A, [p])
        assert (row_value, row_diag.to_dict()) == (value, diag.to_dict())

    @pytest.mark.parametrize(
        "p, note",
        [
            (1e8, "round-off detected after"),
            (1e20, "integral 0.0 under a positive peak"),
        ],
    )
    def test_bare_value_of_an_unconverged_norm_raises(self, p, note):
        # without details there is no diagnostics object to carry the flag,
        # so the norm raises instead of returning an uncertified number
        u, A = bump(1.0, 1.0), (1.0, 2.0)
        _, diag = weighted_lp_norm(u, A, p, details=True)
        assert not diag.converged
        with pytest.raises(QuadratureError) as info:
            weighted_lp_norm(u, A, p)
        assert str(info.value) == diag.notes[0]
        assert str(info.value).startswith(note)
        assert info.value.diagnostics == diag.to_dict()

    def test_large_p_closed_form(self):
        # gaussian closed form still holds at p = 512
        A = [1.0, 2.0]
        p = 512.0
        assert weighted_lp_norm(gaussian(), A, p) == pytest.approx(
            gaussian_norm_reference(A, p), rel=1e-8
        )


class TestGradientNorm:
    def test_gaussian_gradient_closed_form(self):
        # |u'| = 2 r e^(-r^2): ||u'||_{p,A}^p = sigma 2^p int r^(D-1+p) e^(-p r^2)
        A = [1.0, 1.0]
        D, p = 4.0, 2.0
        integral = float(
            2.0**p
            * mpmath.quad(
                lambda r: r ** (D - 1 + p) * mpmath.e ** (-p * r**2), [0, mpmath.inf]
            )
        )
        exact = (angular_mass(A) * integral) ** (1.0 / p)
        assert weighted_gradient_norm(gaussian(), A, p) == pytest.approx(exact, rel=1e-10)

    def test_tent_gradient_is_measure_root(self):
        # |tent'| = 1/R on the ball: norm = (sigma R^D / D)^(1/p) / R
        A = [1.0, 2.0]
        R, p = 1.5, 2.0
        exact = (angular_mass(A) * R**5.0 / 5.0) ** (1.0 / p) / R
        assert weighted_gradient_norm(tent(R), A, p) == pytest.approx(exact, rel=1e-10)

    def test_a_tail_unspent_at_the_cap_raises_even_with_details(self):
        # |u'| of extremal(3, 2) decays like rho^-2, so each tail block
        # [R, 2R] of rho^2 |u'|^2 adds about 1 / (2R): the tail is spent only
        # past the radius cap, and details gives no number either
        u = extremal_profile(3.0, 2.0)
        with pytest.raises(QuadratureError, match="tail below divergence threshold but unspent"):
            weighted_gradient_norm(u, (0.0, 0.0, 0.0), 2.0, details=True)


class TestRadialIntegral:
    def test_matches_norm_assembly(self):
        # int_0^inf r^(D-1) |u| dr for a bump, checked against the p = 1 norm
        A = [1.0, 2.0]
        u = bump(1.0, 1.0)
        integral, diag = radial_integral(
            lambda r: np.abs(np.asarray(u.value(r), dtype=float)), 4.0, u
        )
        assert angular_mass(A) * integral == pytest.approx(
            weighted_lp_norm(u, A, 1.0), rel=1e-10
        )
        assert diag.converged


class TestSupNorm:
    def test_interior_max(self):
        u = gaussian(1.0)
        assert sup_norm(u) == pytest.approx(1.0, rel=1e-9)

    def test_gradient_peak_via_profile(self):
        du = type(gaussian(1.0))(
            value=gaussian(1.0).derivative,
            derivative=gaussian(1.0).derivative,
            support=gaussian(1.0).support,
            check=False,
        )
        assert sup_norm(du) == pytest.approx(math.sqrt(2.0 / math.e), rel=1e-6)


class TestPeakPerProfile:
    def test_peaks_are_cached_and_read_only(self):
        u = bump(1.0, 1.0)
        assert u.value_peak is u.value_peak
        assert u.derivative_peak is u.derivative_peak
        assert u.value_peak.value == 1.0 and u.value_peak.rho_star == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            u.value_peak = None

    def test_copies_scan_their_own_peaks(self):
        A = [1.0, 2.0]
        u = bump(1.0, 1.0)
        for p in (2.0, 300.0):  # caches both peaks on u
            weighted_lp_norm(u, A, p)
            weighted_gradient_norm(u, A, p)
        for p in (2.0, 300.0):
            fresh = bump(1.0, 1.0)
            assert weighted_lp_norm(u, A, p) == weighted_lp_norm(fresh, A, p)
            assert weighted_gradient_norm(u, A, p) == weighted_gradient_norm(fresh, A, p)
            assert weighted_gradient_norm(u.dilated(2.0), A, p) == weighted_gradient_norm(
                bump(1.0, 1.0).dilated(2.0), A, p
            )
            scaled = dataclasses.replace(u, value=lambda r: 3.0 * u.value(r), check=False)
            fresh_scaled = dataclasses.replace(
                fresh, value=lambda r: 3.0 * fresh.value(r), check=False
            )
            assert weighted_lp_norm(scaled, A, p) == weighted_lp_norm(fresh_scaled, A, p)
        broken = dataclasses.replace(u, value=lambda r: np.full_like(r, np.nan), check=False)
        with pytest.raises(DomainError, match="non-finite"):
            weighted_lp_norm(broken, A, 2.0)


def _outcome(run):
    """(repr of the value, diagnostics dict), or (exception type, message,
    diagnostics dict of a QuadratureError)."""
    try:
        value, diag = run()
    except (DomainError, QuadratureError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "diagnostics", None)
    return repr(value), diag.to_dict()


class TestSliceRows:
    @pytest.mark.parametrize("make", [bump, gaussian, tent, power_tail, step])
    @pytest.mark.parametrize("A", [(1.0, 2.0), (0.0,), (0.0, 0.0, 0.0)])
    @pytest.mark.parametrize("gradient", [False, True])
    def test_each_row_is_its_standalone_norm(self, make, A, gradient):
        # p = 2 squares, p >= 128 seeds the peak, p = 0.5 and inf are rejected,
        # and power_tail diverges at low p
        ps = [0.5, 1.0, 1.7, 2.0, 2.0, 3.3, 127.0, 128.0, 500.0, math.inf]
        u = make()
        rows = norms_module._slice_rows(u, gradient, A, ps)
        for p, row in zip(ps, rows):
            got = _outcome(lambda: _raise_error(row))
            alone = _outcome(lambda: norms_module._norm(u, gradient, A, p, True))
            assert got == alone, p

    @pytest.mark.parametrize(
        "generator, params",
        [
            ("bump", ()),
            ("gaussian", ()),
            ("tent", ()),
            ("step", ()),
            ("smoothed_step", (1.0, 0.3)),
            ("power_tail", ()),
            ("power_tail", (2.0,)),
            ("extremal", ()),
        ],
    )
    @pytest.mark.parametrize("gradient", [False, True])
    def test_each_dilation_row_is_the_norm_of_its_dilated_profile(self, generator, params, gradient):
        # p = 2 squares and p = 200 seeds the peak; on D = 5 power_tail(2)
        # diverges at p = 1.5 and 2, and its gradient diverges at p = 1.5 and
        # is unspent at the radius cap at p = 2; tails started at R / 8, R
        # and 8 R double onto the same radii, so rows of different dilations
        # share tail blocks
        u, A = make_profile(generator, *params), (1.0, 2.0)
        cases = [(p, lam) for p in (1.5, 2.0, 200.0) for lam in (0.125, 1.0, 8.0)]
        ps, lams = zip(*cases)
        rows = norms_module._slice_rows(u, gradient, A, ps, lams)
        norm_fn = weighted_gradient_norm if gradient else weighted_lp_norm
        for (p, lam), row in zip(cases, rows):
            got = _outcome(lambda: _raise_error(row))
            alone = _outcome(lambda: norm_fn(u.dilated(lam), A, p, details=True))
            assert got == alone, (p, lam)


class TestSeededEdges:
    def test_a_sup_scan_grid_builds_its_seeded_edges_once(self, monkeypatch):
        # every p of the grid reaches the seeding threshold, and all 64 rows
        # share u's one peak scan and so one tuple of seeded edges
        A, ps = (1.0, 2.0), [float(p) for p in _exponent_grid(128.0, 1e8, 64)]
        u = bump(1.0, 1.5)
        real = norms_module._peak_edges
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(norms_module, "_peak_edges", counted)
        rows = norms_module._slice_rows(u, False, A, ps)
        assert len(calls) == 1
        for p, row in zip(ps, rows):
            got = _outcome(lambda: _raise_error(row))
            assert got == _outcome(lambda: norms_module._norm(u, False, A, p, True)), p


def _counting(u):
    """u with its value and derivative counting the points they are sent,
    its peak scans done beforehand; returns (profile, [count])."""
    sent = [0]

    def counted(fn):
        def call(r):
            sent[0] += np.size(r)
            return fn(r)

        return call

    v = dataclasses.replace(
        u, value=counted(u.value), derivative=counted(u.derivative), check=False
    )
    _ = v.value_peak, v.derivative_peak
    sent[0] = 0
    return v, sent


class TestSharedNodes:
    @pytest.mark.parametrize("gradient, most", [(False, 237), (True, 597)])
    def test_a_sup_scan_grid_sends_each_shared_node_once(self, gradient, most):
        # 64 rows of nearby p split the same panels and halve their heads to
        # the same eps: 12,453 (gradient 17,643) points without sharing, and
        # the README's 237 (gradient 597) with it
        A, ps = (1.0, 2.0), [float(p) for p in _exponent_grid(1.5, 4.0, 64)]
        u, sent = _counting(bump(1.0, 1.0))
        rows = norms_module._slice_rows(u, gradient, A, ps)
        assert sent[0] <= most
        for p, row in zip(ps, rows):
            got = _outcome(lambda: _raise_error(row))
            assert got == _outcome(lambda: norms_module._norm(u, gradient, A, p, True)), p

    @pytest.mark.parametrize("gradient, points", [(False, 17_397), (True, 17_937)])
    def test_dilated_rows_share_no_nodes(self, gradient, points):
        # each row evaluates at lam * x and shares no point row, not even
        # the first panels of p = 1.5 and 2 at one lam, which start on the
        # same edges; the dilated profiles' peak scans are counted too
        cases = [(p, lam) for p in (1.5, 2.0, 200.0) for lam in (0.125, 1.0, 8.0)]
        ps, lams = zip(*cases)
        u, sent = _counting(bump(1.0, 1.0))
        norms_module._slice_rows(u, gradient, (1.0, 2.0), ps, lams)
        assert sent[0] == points
