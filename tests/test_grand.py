import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

import glsobolev.grand as grand_module
import glsobolev.quadrature as quadrature_module

from glsobolev.constants import sharp_constant
from glsobolev.errors import DivergentIntegralError, DomainError, InputError, QuadratureError
from glsobolev.exponents import sobolev_exponent
from glsobolev.grand import (
    PsiFunction,
    _psi_from_spec,
    constant_psi,
    calibrate_morrey_constant,
    fundamental_function,
    gls_gradient_norm,
    gls_norm,
    modulus_of_continuity,
    morrey_bound,
    morrey_transform,
    power_endpoint_psi,
    tabulated_psi,
    verify_gls_sobolev,
    zeta_transform,
)
from glsobolev.norms import (
    ball_mass,
    weighted_gradient_norm,
    weighted_lp_norm,
)
from glsobolev.profiles import (
    _SCAN_POINTS,
    Compact,
    RadialProfile,
    _as_radial,
    bump,
    gaussian,
    power_tail,
    smoothed_step,
    step,
    tent,
)
from glsobolev.verify import extremal_profile


class TestPsiFamilies:
    def test_constant_is_one(self):
        psi = constant_psi(1.5, 4.0)
        assert psi(2.0) == 1.0
        np.testing.assert_allclose(psi(np.array([1.6, 3.9])), 1.0)

    def test_constant_allows_infinite_b(self):
        psi = constant_psi(2.0, math.inf)
        assert psi(1e6) == 1.0

    def test_power_endpoint_normalized(self):
        psi = power_endpoint_psi(1.5, 3.0, 0.5, 1.0)
        p_star = (0.5 * 3.0 + 1.0 * 1.5) / 1.5
        assert psi(p_star) == pytest.approx(1.0, rel=1e-14)
        # interior minimum, blow-up toward both endpoints
        assert psi(1.5 + 1e-6) > 10.0
        assert psi(3.0 - 1e-6) > 10.0

    @pytest.mark.parametrize(
        "alpha, beta, flat, steep",
        [(0.0, 0.5, 1.5 + 1e-9, 3.0 - 1e-9), (0.5, 0.0, 3.0 - 1e-9, 1.5 + 1e-9)],
    )
    def test_power_endpoint_one_sided(self, alpha, beta, flat, steep):
        # psi -> 1 at the end whose exponent is 0 and blows up at the other
        psi = power_endpoint_psi(1.5, 3.0, alpha, beta)
        grid = np.linspace(1.5 + 1e-6, 3.0 - 1e-6, 257)
        assert np.all(psi(grid) >= 1.0)
        assert psi(flat) == pytest.approx(1.0, abs=1e-8)
        assert psi(steep) > 1e4

    def test_power_endpoint_degenerate_is_constant(self):
        psi = power_endpoint_psi(1.5, 3.0, 0.0, 0.0)
        assert psi.family == "constant"

    def test_power_endpoint_validation(self):
        with pytest.raises(InputError):
            power_endpoint_psi(1.5, math.inf, 0.5, 0.5)
        with pytest.raises(InputError):
            power_endpoint_psi(1.5, 3.0, -0.1, 0.5)

    @pytest.mark.parametrize("a, b", [(1.5, 0.5), (2.0, 2.0)])
    def test_power_endpoint_needs_a_below_b(self, a, b):
        # the log of p_star - a once raised a bare "math domain error" first
        with pytest.raises(InputError, match=f"^need a < b, got a = {a}, b = {b}$"):
            power_endpoint_psi(a, b, 4.0, 2.0)

    def test_tabulated_hits_nodes(self):
        psi = tabulated_psi([1.5, 2.0, 3.0], [2.0, 1.0, 4.0])
        assert psi(2.0) == pytest.approx(1.0, rel=1e-14)
        # interpolation is monotone between nodes, no overshoot below min
        grid = np.linspace(1.55, 2.95, 41)
        assert np.all(psi(grid) >= 1.0 - 1e-12)

    def test_tabulated_validation(self):
        with pytest.raises(InputError):
            tabulated_psi([2.0, 1.5], [1.0, 1.0])
        with pytest.raises(InputError):
            tabulated_psi([1.5, 2.0], [1.0, -1.0])
        with pytest.raises(InputError):
            tabulated_psi([1.5], [1.0])

    @pytest.mark.parametrize("node", [math.inf, math.nan, -math.inf])
    def test_tabulated_rejects_a_non_finite_node(self, node):
        with pytest.raises(InputError, match="exponent nodes must be finite"):
            tabulated_psi([1.5, 3.0, node], [1.0, 2.0, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.floats(1e-3, 5.0), min_size=1, max_size=7).map(
                lambda gaps: np.cumsum([1.01, *gaps])),
            # far tables, like the bench's, reaching p = 1e8 and beyond
            st.lists(st.floats(0.01, 6.0), min_size=1, max_size=7).map(
                lambda log_gaps: 1.5 * np.exp(np.cumsum([0.0, *log_gaps]))),
        ),
        st.one_of(
            st.lists(st.floats(0.5, 5.0), min_size=8, max_size=8),
            # plateaus and sign changes of the secant slopes
            st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=8, max_size=8),
        ),
        st.lists(st.floats(-0.1, 1.1), max_size=40),
    )
    @example([1.5, 4.0, 1e8], [1.0, 1.0, 1000.0] + [1.0] * 5, [1e-8, 1e-6, 0.5])
    @example([1.5, 10.0], [2.0, 1.0] + [1.0] * 6, [0.25, 0.5])
    def test_tabulated_is_scipy_pchip_bit_for_bit(self, nodes, values, fractions):
        ps = np.asarray(nodes, dtype=float)
        vs = np.array(values[: ps.size])
        a, b = ps[0], ps[-1]
        points = np.concatenate([
            a + (b - a) * np.array(fractions),
            ps,
            [np.nextafter(a, -np.inf), np.nextafter(b, np.inf), 0.5 * a, 2.0 * b],
            [np.nan, np.inf, -np.inf],
        ])
        oracle = PchipInterpolator(ps, vs / np.min(vs), extrapolate=False)(points)
        got = tabulated_psi(ps, vs).func(points)
        assert np.array_equal(got, np.nan_to_num(oracle, nan=np.inf), equal_nan=True)

    def test_support_validation(self):
        with pytest.raises(InputError):
            PsiFunction(a=-1.0, b=2.0, func=lambda p: np.ones_like(p))
        with pytest.raises(InputError):
            PsiFunction(a=2.0, b=1.0, func=lambda p: np.ones_like(p))
        with pytest.raises(InputError):
            # sign change inside the support is rejected at construction
            PsiFunction(a=1.0, b=2.0, func=lambda p: p - 1.5)

    def test_call_outside_support(self):
        psi = constant_psi(1.5, 3.0)
        with pytest.raises(DomainError):
            psi(1.5)
        with pytest.raises(DomainError):
            psi(3.5)

    def test_call_rejects_nan_and_names_the_exponent(self):
        psi = constant_psi(1.5, 2.5)
        with pytest.raises(DomainError, match=r"exponent nan outside psi support \(1.5, 2.5\)$"):
            psi(math.nan)
        with pytest.raises(DomainError, match="exponent nan outside"):
            psi(np.array([2.0, math.nan]))
        with pytest.raises(DomainError, match="exponent -1.0 outside"):
            psi(-1.0)
        with pytest.raises(DomainError, match="exponent 3.0 outside"):
            psi(np.array([[2.0, 3.0]]))

    def test_call_keeps_the_shape_of_p(self):
        psi = power_endpoint_psi(1.5, 3.0, 0.5, 1.0)
        assert isinstance(psi(2.0), float)
        assert psi(np.array([2.0, 2.5])).shape == (2,)
        assert psi(np.array([[2.0], [2.5]])).shape == (2, 1)
        assert psi(2.0) == psi(np.array([2.0]))[0]

    def test_describe_round_trip(self):
        psi = power_endpoint_psi(1.5, 3.0, 0.5, 1.0)
        d = psi.describe()
        assert d["family"] == "power-endpoint"
        assert d["a"] == 1.5 and d["b"] == 3.0
        assert ["alpha", 0.5] in d["params"]

    @pytest.mark.parametrize("spec, psi", [
        ({"family": "constant", "a": 4.0}, constant_psi(4.0, math.inf)),
        ({"family": "constant", "a": 4.0, "b": 7.0}, constant_psi(4.0, 7.0)),
        ({"family": "power-endpoint", "a": 1.5, "b": 3.0, "alpha": 0.5, "beta": 1.0},
         power_endpoint_psi(1.5, 3.0, 0.5, 1.0)),
        ({"family": "tabulated", "nodes": [1.5, 2.0, 3.0], "values": [2.0, 1.0, 2.0]},
         tabulated_psi([1.5, 2.0, 3.0], [2.0, 1.0, 2.0])),
    ], ids=["constant-a", "constant-a-b", "power-endpoint", "tabulated"])
    def test_spec_with_its_familys_keys(self, spec, psi):
        assert _psi_from_spec(spec).describe() == psi.describe()

    @pytest.mark.parametrize("spec, message", [
        ({"family": "constant", "a": 4, "b": 7, "alpha": 0.3},
         "psi family 'constant' takes no key 'alpha'; its keys are a, b"),
        ({"family": "tabulated", "nodes": [1.5, 3.0], "values": [1.0, 1.0], "a": 1.5},
         "psi family 'tabulated' takes no key 'a'"),
        ({"a": 4, "b": 7, "alpha": 0.3, "beta": 0.3}, "psi spec is missing key 'family'"),
        ({"family": "power", "a": 4, "b": 7}, "unknown psi family 'power'"),
    ], ids=["constant-with-alpha", "tabulated-with-a", "no-family", "unknown-family"])
    def test_spec_rejects_a_key_outside_its_family(self, spec, message):
        # these once built constant_psi(4, 7) and dropped the exponents
        with pytest.raises(InputError, match=message):
            _psi_from_spec(spec)


class TestGlsNorm:
    def test_indicator_matches_fundamental_function(self):
        # the grand norm of an indicator is the fundamental function at the
        # measure of its support: ||1_E||_p = |E|^(1/p)
        A = [1.0, 2.0]
        psi = power_endpoint_psi(1.5, 4.0, 0.3, 0.7)
        for R in (0.5, 2.0):
            mass = ball_mass(A, R)
            assert gls_norm(step(R), psi, A) == pytest.approx(
                fundamental_function(psi, mass), rel=1e-7
            )

    def test_brute_force_interior_sup(self):
        # gaussian slice norms decrease in p; an endpoint weight pushes the
        # sup into the interior where golden section must locate it
        A = [1.0, 1.0]
        psi = power_endpoint_psi(1.2, 6.0, 0.4, 0.4)
        u = gaussian(1.0)
        val, res = gls_norm(u, psi, A, details=True)
        neg = lambda p: -weighted_lp_norm(u, A, p) / psi(p)
        opt = minimize_scalar(neg, bounds=(1.3, 5.9), method="bounded",
                              options={"xatol": 1e-10})
        assert val == pytest.approx(-opt.fun, rel=1e-8)
        assert res.argmax == pytest.approx(opt.x, rel=1e-4)
        assert not res.at_boundary
        assert not res.diverged

    def test_divergent_slice_is_inf(self):
        # slice norms blow up for p <= D / tail exponent inside the support
        u = power_tail(1.2, 1.0)
        val, res = gls_norm(u, constant_psi(2.0, 6.0), [1.0, 2.0], details=True)
        assert math.isinf(val)
        assert res.diverged

    def test_rejects_subunit_support(self):
        with pytest.raises(InputError):
            gls_norm(gaussian(), constant_psi(0.5, 2.0), [1.0, 1.0])

    # bounded profiles, compactly supported or gaussian, have every slice
    # norm finite, so no scan of theirs may report a divergence; the example
    # is a smoothed_step whose sampled sup|u'| sits just below the true one,
    # so its gradient slices overflow to inf past p ~ 3.8e7
    @example(u=smoothed_step(1.0, 0.1), gradient=True, psi=constant_psi(10.0, math.inf),
             A=(1.0,))
    @settings(max_examples=40, deadline=None)
    @given(
        u=st.one_of(
            st.builds(bump, st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
            st.builds(gaussian, st.floats(0.3, 3.0)),
            st.builds(lambda R, f: smoothed_step(R, f * R), st.floats(0.3, 3.0),
                      st.floats(0.05, 1.0)),
            st.builds(tent, st.floats(0.3, 3.0)),
        ),
        gradient=st.booleans(),
        psi=st.one_of(
            st.builds(constant_psi, st.floats(1.0, 20.0), st.just(math.inf)),
            st.builds(lambda a, w: constant_psi(a, a + w), st.floats(1.0, 20.0),
                      st.floats(0.5, 50.0)),
        ),
        A=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3).map(tuple),
    )
    def test_a_bounded_profile_is_finite_or_uncertified(self, u, gradient, psi, A):
        norm_fn = gls_gradient_norm if gradient else gls_norm
        try:
            value, res = norm_fn(u, psi, A, details=True)
        except QuadratureError as exc:
            assert not isinstance(exc, DivergentIntegralError)
            return
        assert math.isfinite(value) and not res.diverged

    def test_gradient_variant(self):
        A = [1.0, 1.0]
        psi = constant_psi(1.5, 2.5)
        val = gls_gradient_norm(gaussian(), psi, A)
        grid = np.geomspace(1.5 + 1e-8, 2.5 - 1e-8, 200)
        brute = max(weighted_gradient_norm(gaussian(), A, p) for p in grid)
        assert val >= brute - 1e-12
        assert val == pytest.approx(brute, rel=1e-3)


class TestFundamentalFunction:
    def test_interior_max_brute_force(self):
        psi = power_endpoint_psi(1.5, 4.0, 0.5, 0.5)
        for delta in (1e-3, 0.1, 1.0, 10.0, 1e3):
            val = fundamental_function(psi, delta)
            neg = lambda p: -(delta ** (1.0 / p)) / psi(p)
            opt = minimize_scalar(neg, bounds=(1.5 + 1e-7, 4.0 - 1e-7),
                                  method="bounded", options={"xatol": 1e-12})
            assert val == pytest.approx(-opt.fun, rel=1e-8)

    def test_nondecreasing_in_delta(self):
        psi = power_endpoint_psi(2.0, 5.0, 0.25, 1.0)
        deltas = np.geomspace(1e-4, 1e4, 60)
        vals = [fundamental_function(psi, d) for d in deltas]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))

    def test_delta_one_is_inverse_min_psi(self):
        # at delta = 1 the numerator is constant, so phi(1) = 1/min psi = 1
        psi = power_endpoint_psi(1.5, 4.0, 0.5, 2.0)
        assert fundamental_function(psi, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_invalid_delta(self):
        psi = constant_psi(1.5, 3.0)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                fundamental_function(psi, bad)


class TestZetaTransform:
    def test_support_is_exponent_law_image(self):
        A = [1.0, 2.0]
        D = 5.0
        zeta = zeta_transform(constant_psi(1.5, 2.5), A)
        assert zeta.a == pytest.approx(D * 1.5 / (D - 1.5), rel=1e-12)
        assert zeta.b == pytest.approx(D * 2.5 / (D - 2.5), rel=1e-12)

    def test_critical_right_endpoint_maps_to_inf(self):
        zeta = zeta_transform(constant_psi(1.5, 5.0), [1.0, 2.0])
        assert math.isinf(zeta.b)

    def test_right_endpoint_inside_guard_maps_to_inf(self):
        # q(b) ~ 5e13 is finite, but b sits within ENDPOINT_GUARD of D = 5
        zeta = zeta_transform(constant_psi(1.5, 5.0 - 5e-13), [1.0, 2.0])
        assert math.isinf(zeta.b)

    def test_left_endpoint_one_is_exact_exponent_law(self):
        A = [1.0, 2.0]
        zeta = zeta_transform(constant_psi(1.0, 3.0), A)
        assert zeta.a == sobolev_exponent(A, A, 1.0) == 1.25

    def test_values_factor_through_sharp_constant(self):
        A = [1.0, 2.0]
        D = 5.0
        psi = power_endpoint_psi(1.5, 2.5, 0.5, 0.5)
        zeta = zeta_transform(psi, A)
        for p in (1.7, 2.0, 2.3):
            q = sobolev_exponent(A, A, p)
            assert zeta(q) == pytest.approx(
                sharp_constant(A, p) * psi(p), rel=1e-10
            )

    def test_psi_is_evaluated_once_per_call(self):
        A = [1.0, 2.0]
        base = power_endpoint_psi(1.5, 2.5, 0.5, 0.5)
        seen = []
        psi = dataclasses.replace(base, func=lambda p: seen.append(len(p)) or base.func(p))
        zeta = zeta_transform(psi, A)
        qs = np.array([sobolev_exponent(A, A, p) for p in (1.7, 2.0, 2.3)])
        seen.clear()
        values = zeta(qs)
        assert seen == [3]
        assert [zeta(float(q)) for q in qs] == values.tolist()

    def test_literal_variant_propagates(self):
        A = [1.0, 2.0]
        psi = constant_psi(1.5, 2.5)
        z_corr = zeta_transform(psi, A, variant="corrected")
        z_lit = zeta_transform(psi, A, variant="literal")
        q = sobolev_exponent(A, A, 2.0)
        ratio = z_lit(q) / z_corr(q)
        assert ratio == pytest.approx(
            sharp_constant(A, 2.0, variant="literal") / sharp_constant(A, 2.0),
            rel=1e-12,
        )

    def test_rejects_supercritical_support(self):
        with pytest.raises(InputError):
            zeta_transform(constant_psi(1.5, 6.0), [1.0, 2.0])
        with pytest.raises(InputError):
            zeta_transform(constant_psi(0.5, 2.0), [1.0, 2.0])


class TestMorreyTransform:
    def test_values(self):
        A = [1.0, 1.0]
        D = 4.0
        psi = constant_psi(5.0, 9.0)
        md = morrey_transform(psi, A, c2=1.5)
        for p in (6.0, 8.0):
            assert md(p) == pytest.approx(1.5 * p / (p - D), rel=1e-14)

    def test_requires_supercritical_support(self):
        with pytest.raises(InputError):
            morrey_transform(constant_psi(3.0, 9.0), [1.0, 1.0])
        with pytest.raises(InputError):
            morrey_transform(constant_psi(5.0, 9.0), [1.0, 1.0], c2=0.0)

    def test_bound_scales_linearly_in_c2(self):
        A = [1.0, 1.0]
        psi = constant_psi(5.0, 9.0)
        u = bump(1.0, 1.0)
        b1 = morrey_bound(u, psi, A, 0.3, c2=1.0)
        b2 = morrey_bound(u, psi, A, 0.3, c2=2.0)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-9)

    def test_bound_details(self):
        A = [1.0, 1.0]
        psi = constant_psi(5.0, 9.0)
        bound, info = morrey_bound(tent(1.0), psi, A, 0.25, details=True)
        assert bound > 0.0
        assert info["gradient-gls-norm"] > 0.0
        assert info["fundamental-value"] > 0.0


def _full_grid_modulus(u, delta):
    """The modulus scan with u evaluated at every grid and shifted point."""
    if isinstance(u.support, Compact):
        r_hi = u.support.radius + delta
    else:
        r_hi = 32.0 * u.support.radius + delta
    grid = np.linspace(0.0, r_hi, 4096)
    base = np.asarray(u.value(grid), dtype=float)
    best = 0.0
    for j in range(1, 17):
        h = delta * j / 16
        shifted = np.asarray(u.value(grid + h), dtype=float)
        best = max(best, float(np.max(np.abs(shifted - base))))
    return best


def _cut_off(u, R):
    """u - u(R) on [0, R) and 0 beyond: a hand-built Compact profile."""
    c = float(u.value(R))

    def value(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < R, np.asarray(u.value(r), dtype=float) - c, 0.0)

    def derivative(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < R, np.asarray(u.derivative(r), dtype=float), 0.0)

    return RadialProfile(
        value=_as_radial(value), derivative=_as_radial(derivative),
        support=Compact(R), name=f"cut-{u.name}", check=False,
    )


def _recording(u, points):
    """u whose value callable appends each array it is called on to points."""
    value = u.value

    def recorded(r):
        points.append(np.array(r, dtype=float))
        return value(r)

    return dataclasses.replace(u, value=recorded, check=False)


# (scale, shape in [0, 1]) -> profile, for the modulus property below
_MODULUS_PROFILES = {
    "bump": lambda s, x: bump(s, 5.0 ** (2.0 * x - 1.0)),
    "tent": lambda s, x: tent(s),
    "step": lambda s, x: step(s),
    "smoothed_step": lambda s, x: smoothed_step(s, s * (0.05 + 0.95 * x)),
    "gaussian": lambda s, x: gaussian(s),
    "power_tail": lambda s, x: power_tail(0.5 + 5.5 * x, s),
    "extremal": lambda s, x: extremal_profile(2.0 + 6.0 * x, 1.5 + 0.5 * x),
    "dilated-bump": lambda s, x: bump(1.0, 5.0 ** (2.0 * x - 1.0)).dilated(1.0 / s),
    "cut-extremal": lambda s, x: _cut_off(extremal_profile(5.0, 2.0), s * (1.0 + 3.0 * x)),
}


class TestModulusOfContinuity:
    def test_tent_closed_form(self):
        # slope 1/R everywhere on the support: omega(delta) = delta / R
        assert modulus_of_continuity(tent(2.0), 0.5) == pytest.approx(
            0.25, rel=1e-6
        )

    def test_small_delta_slope_limit(self):
        # omega(delta) ~ delta * max|u'| as delta -> 0
        u = gaussian(1.0)
        slope = math.sqrt(2.0 / math.e)
        assert modulus_of_continuity(u, 1e-2) == pytest.approx(
            1e-2 * slope, rel=5e-3
        )

    def test_large_delta_saturates_at_range(self):
        # once delta exceeds the support the modulus is the full swing
        assert modulus_of_continuity(tent(1.0), 5.0) == pytest.approx(
            1.0, rel=1e-9
        )

    def test_invalid_delta(self):
        with pytest.raises(DomainError):
            modulus_of_continuity(tent(1.0), 0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.tuples(
            st.sampled_from(sorted(_MODULUS_PROFILES)),
            st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
            st.floats(0.0, 1.0),
        ),
        ratio=st.floats(-6.0, math.log10(20.0)).map(lambda e: 10.0**e),
    )
    @example(case=("bump", 1.0, 0.5), ratio=0.5)  # bump(1, 1) at delta = 0.5
    def test_equals_the_full_grid_scan(self, case, ratio):
        # a compact u is evaluated only on its support; every bit is kept
        name, scale, shape = case
        u = _MODULUS_PROFILES[name](scale, shape)
        delta = u.support.radius * ratio
        assert modulus_of_continuity(u, delta).hex() == _full_grid_modulus(u, delta).hex()

    def test_a_compact_profile_is_evaluated_only_on_its_support(self):
        # undeclared, so all 16 shifts run
        points = []
        u = dataclasses.replace(bump(1.0, 1.0), nonincreasing=False)
        assert modulus_of_continuity(_recording(u, points), 0.5) == 0.81363696359566373
        seen = np.concatenate(points)
        assert seen.max() <= 1.0
        grid = np.linspace(0.0, 1.5, 4096)
        inside = sum(int(np.sum(grid + 0.5 * j / 16 <= 1.0)) for j in range(17))
        assert seen.size == inside < 17 * 4096

    def test_a_decaying_profile_is_evaluated_on_the_whole_grid(self):
        points = []
        u = dataclasses.replace(gaussian(1.0), nonincreasing=False)
        modulus_of_continuity(_recording(u, points), 0.5)
        assert [p.size for p in points] == [4096] * 17

    def test_a_nonincreasing_compact_profile_is_scanned_at_the_full_shift(self):
        points = []
        assert modulus_of_continuity(_recording(bump(1.0, 1.0), points), 0.5) == 0.81363696359566373
        seen = np.concatenate(points)
        assert seen.size == 4097
        assert seen.max() <= 1.0

    def test_a_nonincreasing_decaying_profile_is_scanned_at_the_full_shift(self):
        points = []
        modulus_of_continuity(_recording(gaussian(1.0), points), 0.5)
        assert [p.size for p in points] == [4096, 4096]

    def test_an_undeclared_profile_needs_every_shift(self):
        # (1 - rho/4) sin^2(pi rho) rises and falls; sin^2(pi rho) has
        # period 1, so the shift delta = 1 alone sees only the factor's
        # drop of 1/4, not the swing from a peak to the zero half a period on
        def value(r):
            r = np.asarray(r, dtype=float)
            return (1.0 - r / 4.0) * np.sin(np.pi * r) ** 2

        def derivative(r):
            r = np.asarray(r, dtype=float)
            s, c = np.sin(np.pi * r), np.cos(np.pi * r)
            return -(s**2) / 4.0 + (1.0 - r / 4.0) * 2.0 * np.pi * s * c

        u = RadialProfile(
            value=_as_radial(value), derivative=_as_radial(derivative),
            support=Compact(4.0), name="waves",
        )
        assert modulus_of_continuity(u, 1.0) == pytest.approx(0.8760, abs=5e-5)
        full_shift_only = dataclasses.replace(u, nonincreasing=True, check=False)
        assert modulus_of_continuity(full_shift_only, 1.0) == pytest.approx(0.2500, abs=5e-5)


class TestCalibration:
    def test_calibrated_bound_dominates_and_is_tight(self):
        A = [1.0, 1.0]
        psi = constant_psi(5.0, 9.0)
        profiles = [bump(1.0, 1.0), tent(1.5), gaussian(0.8)]
        deltas = (0.1, 0.5, 1.0)
        c2 = calibrate_morrey_constant(profiles, psi, A, deltas)
        ratios = [
            modulus_of_continuity(u, d) / morrey_bound(u, psi, A, d, c2=c2)
            for u in profiles
            for d in deltas
        ]
        assert max(ratios) <= 1.0
        assert max(ratios) > 1.0 - 1e-9

    def test_unconverged_slice_raises(self, unconverged_grand_slices):
        unconverged_grand_slices(gradient=True)
        with pytest.raises(QuadratureError, match="tent"):
            calibrate_morrey_constant([tent(1.5)], constant_psi(5.0, 9.0), [1.0, 1.0], (0.5,))

    def test_zero_unit_bound_raises(self):
        # a step has no gradient, so its unit bound is 0 and no c2 can be taken
        with pytest.raises(InputError, match=r"degenerate unit bound 0.0 for profile 'step\(R=1\)'"):
            calibrate_morrey_constant([step(1.0)], constant_psi(5.0, 9.0), (1.0, 1.0), (0.5,))


class TestVerifyGlsSobolev:
    def test_bump_passes(self):
        report = verify_gls_sobolev(bump(1.0, 1.0), constant_psi(1.5, 2.5), [1.0, 2.0])
        assert report.passed
        assert report.status == "pass"
        assert 0.0 < report.ratio <= 1.0 + 1e-6
        assert 0.0 < report.extra["slice-ratio-sup"] <= 1.0 + 1e-6
        assert report.quadrature["converged"]

    def test_slice_sup_dominates_headline_ratio(self):
        # sup(f/g) <= sup over slices of the normalized slice ratio
        report = verify_gls_sobolev(
            gaussian(1.0), power_endpoint_psi(1.5, 3.0, 0.5, 0.5), [0.5, 0.5, 0.0]
        )
        assert report.ratio <= report.extra["slice-ratio-sup"] * (1.0 + 1e-9)

    def test_amplitude_invariance(self):
        u = bump(1.0, 1.0)
        scaled = type(u)(
            value=lambda r: 3.0 * np.asarray(u.value(r), dtype=float),
            derivative=lambda r: 3.0 * np.asarray(u.derivative(r), dtype=float),
            support=u.support,
            name="scaled-bump",
            check=False,
        )
        psi = constant_psi(1.5, 2.5)
        r1 = verify_gls_sobolev(u, psi, [1.0, 2.0])
        r3 = verify_gls_sobolev(scaled, psi, [1.0, 2.0])
        assert r3.ratio == pytest.approx(r1.ratio, rel=1e-8)

    def test_dilation_invariance_of_slice_sup(self):
        u = bump(1.0, 1.0)
        psi = constant_psi(1.5, 2.5)
        base = verify_gls_sobolev(u, psi, [1.0, 2.0])
        dil = verify_gls_sobolev(u.dilated(2.0), psi, [1.0, 2.0])
        assert dil.extra["slice-ratio-sup"] == pytest.approx(
            base.extra["slice-ratio-sup"], rel=1e-8
        )

    def test_narrow_support_reduces_to_single_exponent(self):
        # squeezing psi onto one exponent recovers the plain inequality
        A = [1.0, 2.0]
        D = 5.0
        p0 = 2.0
        u = bump(1.0, 1.0)
        q0 = sobolev_exponent(A, A, p0)
        direct = weighted_lp_norm(u, A, q0) / (
            sharp_constant(A, p0) * weighted_gradient_norm(u, A, p0)
        )
        w = 0.005
        report = verify_gls_sobolev(u, constant_psi(p0 - w, p0 + w), A)
        assert report.ratio == pytest.approx(direct, rel=1e-2)
        assert report.extra["slice-ratio-sup"] == pytest.approx(direct, rel=1e-2)


def _recording_profile(u):
    """Copy of u whose callables record the size of every array they see."""
    sizes = {"value": [], "derivative": []}

    def recording(fn, kind):
        def wrapped(r):
            sizes[kind].append(int(np.size(r)))
            return fn(r)

        return wrapped

    copy = dataclasses.replace(
        u,
        value=recording(u.value, "value"),
        derivative=recording(u.derivative, "derivative"),
        check=False,
    )
    return copy, sizes


def _reference_scan(objective, a, b):
    """The golden loop as it ran with one probe per call, before its probes
    were batched, on an objective of finite values: its probes in order,
    and (value, argmax, at_boundary)."""
    grid = grand_module._exponent_grid(a, b, grand_module.SUP_GRID_POINTS)
    vals = [float(v) for v in objective(grid)]
    i = int(np.argmax(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    best_x, best_v = float(grid[i]), vals[i]
    probes = []

    def probe(x):
        probes.append(x)
        return float(objective(np.array([x]))[0])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = probe(x1), probe(x2)
    for _ in range(200):
        for x, v in ((x1, f1), (x2, f2)):
            if v > best_v:
                best_x, best_v = x, v
        if hi - lo <= grand_module.SUP_REL_TOL * max(abs(lo), abs(hi)):
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = probe(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = probe(x2)
    return probes, (best_v, best_x, i in (0, len(grid) - 1))


def _assert_calls_follow(calls, probes, a, b):
    """The grid is the first call, and each later call starts at the probe
    the reference loop takes next among those no golden call computed yet;
    every reference probe gets computed."""
    grid = grand_module._exponent_grid(a, b, grand_module.SUP_GRID_POINTS)
    assert all(isinstance(ps, np.ndarray) and ps.ndim == 1 for ps in calls)
    assert calls[0].tolist() == grid.tolist()
    computed = set()
    for ps in calls[1:]:
        assert ps[0] == next(x for x in probes if x not in computed)
        computed.update(ps.tolist())
    assert computed.issuperset(probes)


class TestScanProtocol:
    """_scan_sup calls its objective with 1-d float arrays and reads one
    outcome per exponent: a value or the QuadratureError of its slice."""

    @staticmethod
    def _peaked(ps):
        return [-((p - 2.0) ** 2) for p in ps]

    @staticmethod
    def _lopsided(ps):
        # steeper right of the peak, so a parabola through three points
        # misplaces the vertex and some computed points are never probed
        return [-((p - 2.0) ** 2) * (4.0 if p > 2.0 else 1.0) for p in ps]

    def test_grid_comes_first_and_each_call_starts_at_the_loops_next_probe(self):
        calls = []

        def objective(ps):
            calls.append(ps)
            return self._peaked(ps)

        probes, expected = _reference_scan(self._peaked, 1.5, 3.0)
        res = grand_module._scan_sup(objective, 1.5, 3.0)
        _assert_calls_follow(calls, probes, 1.5, 3.0)
        # the model orders a parabola's probes exactly: each call holds the
        # next SUP_LOOKAHEAD + 1 probes of the path, and none off it
        full = grand_module.SUP_LOOKAHEAD + 1
        assert [len(ps) for ps in calls[1:-1]] == [full] * (len(calls) - 2)
        assert sum(len(ps) for ps in calls[1:]) == len(probes) > 2 * full
        assert (res.value, res.argmax, res.at_boundary) == expected
        assert res.argmax == pytest.approx(2.0, rel=1e-7) and not res.diverged

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(1.0, 4.0),
        width=st.floats(0.1, 30.0),
        unbounded=st.booleans(),
        centre=st.floats(-0.5, 1.5),
        scale=st.floats(0.02, 2.0),
        skew=st.floats(-2.0, 2.0),
        ripple=st.floats(0.0, 0.5),
    )
    def test_batched_probes_keep_the_one_at_a_time_result(
        self, a, width, unbounded, centre, scale, skew, ripple
    ):
        m, s = a + centre * width, scale * width
        b = math.inf if unbounded else a + width

        def smooth(ps):
            return [
                math.exp(-(((p - m) / s) ** 2)) * (1.0 + skew * math.tanh((p - m) / s))
                + ripple * math.sin(5.0 * (p - m) / s)
                for p in ps
            ]

        calls = []

        def objective(ps):
            calls.append(ps)
            return smooth(ps)

        probes, expected = _reference_scan(smooth, a, b)
        res = grand_module._scan_sup(objective, a, b)
        _assert_calls_follow(calls, probes, a, b)
        assert (res.value, res.argmax, res.at_boundary) == expected

    @pytest.mark.parametrize(
        "b, slope",
        [(3.0, -1.0), (math.inf, -1.0), (3.0, 1.0)],
        ids=["decreasing", "decreasing-to-inf", "increasing"],
    )
    def test_an_end_cell_sup_computes_its_golden_path_in_batches(self, b, slope):
        # a monotone objective peaks at an end of the grid, where no three
        # values give a concave parabola; the path toward that end is the
        # one the loop takes, so each call holds the next SUP_LOOKAHEAD + 1
        # probes of it, and none off it
        def monotone(ps):
            return [math.exp(slope * p) for p in ps]

        calls = []

        def objective(ps):
            calls.append(ps)
            return monotone(ps)

        probes, expected = _reference_scan(monotone, 1.5, b)
        res = grand_module._scan_sup(objective, 1.5, b)
        _assert_calls_follow(calls, probes, 1.5, b)
        full = grand_module.SUP_LOOKAHEAD + 1
        assert [len(ps) for ps in calls[1:-1]] == [full] * (len(calls) - 2)
        assert sum(len(ps) for ps in calls[1:]) == len(probes) > 2 * full
        assert (res.value, res.argmax, res.at_boundary) == expected
        assert res.at_boundary and not res.diverged

    def test_uncertified_grid_slices_raise(self):
        def objective(ps):
            return [QuadratureError(f"at {p:.3f}") if p < 2.0 else -p for p in ps]

        expected = r"of 64 slices could not be certified \(first: at 1.5"
        with pytest.raises(QuadratureError, match=expected):
            grand_module._scan_sup(objective, 1.5, 3.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_a_non_finite_grid_value_is_uncertified_not_divergent(self, value):
        # only a DivergentIntegralError proves a divergence; a value of inf
        # (an overflow) once made the supremum a certified inf
        def objective(ps):
            out = [-((p - 2.0) ** 2) for p in ps]
            out[10] = value
            return out

        expected = rf"1 of 64 slices could not be certified \(first: value {value} is not finite"
        with pytest.raises(QuadratureError, match=expected):
            grand_module._scan_sup(objective, 1.5, 3.0)

    def test_a_divergent_grid_slice_outranks_uncertified_ones(self):
        def objective(ps):
            out = [QuadratureError("uncertified") for _ in ps]
            out[-1] = DivergentIntegralError("diverges")
            return out

        res = grand_module._scan_sup(objective, 1.5, 3.0)
        assert res.diverged and res.value == math.inf
        assert res.argmax == pytest.approx(3.0, rel=1e-7)

    def test_divergent_golden_step_makes_the_sup_inf(self):
        grid = grand_module._exponent_grid(1.5, 3.0, grand_module.SUP_GRID_POINTS).tolist()

        def objective(ps):
            return [
                -((p - 2.0) ** 2) if p in grid else DivergentIntegralError("diverges")
                for p in ps.tolist()
            ]

        res = grand_module._scan_sup(objective, 1.5, 3.0)
        assert res.diverged and res.value == math.inf and not res.at_boundary
        assert 1.9 < res.argmax < 2.1

    def test_uncertified_golden_step_raises(self):
        grid = grand_module._exponent_grid(1.5, 3.0, grand_module.SUP_GRID_POINTS).tolist()

        def objective(ps):
            return [
                -((p - 2.0) ** 2) if p in grid else QuadratureError("uncertified step")
                for p in ps.tolist()
            ]

        expected = r"refinement hit an uncertified slice \(first: uncertified step"
        with pytest.raises(QuadratureError, match=expected):
            grand_module._scan_sup(objective, 1.5, 3.0)

    @pytest.mark.parametrize(
        "error", [DivergentIntegralError("diverges"), QuadratureError("uncertified")],
        ids=["divergent", "uncertified"],
    )
    def test_errors_at_points_the_loop_never_probes_change_nothing(self, error):
        probes, expected = _reference_scan(self._lopsided, 1.5, 3.0)
        grid = grand_module._exponent_grid(1.5, 3.0, grand_module.SUP_GRID_POINTS).tolist()
        unprobed = []

        def objective(ps):
            out = self._lopsided(ps)
            for k, p in enumerate(ps.tolist()):
                if p not in grid and p not in probes:
                    unprobed.append(p)
                    out[k] = error
            return out

        res = grand_module._scan_sup(objective, 1.5, 3.0)
        assert unprobed
        assert (res.value, res.argmax, res.at_boundary) == expected and not res.diverged

    def test_slice_table_keeps_each_outcome_and_raises_domain_errors(self):
        diag = grand_module.QuadratureDiagnostics()
        table = grand_module._SliceTable(False, power_tail(3.0, 1.0), (1.0, 2.0), diag)
        first = table.outcomes([1.4, 3.0, 1.4])
        assert isinstance(first[0], DivergentIntegralError) and first[2] is first[0]
        assert first[1] == weighted_lp_norm(power_tail(3.0, 1.0), (1.0, 2.0), 3.0)
        assert table.outcomes([3.0, 1.4]) == [first[1], first[0]]
        neval = diag.neval
        assert neval > 0
        with pytest.raises(DomainError):
            table.outcomes([0.5, 4.0])
        assert diag.neval == neval

    def test_a_lone_slice_that_fails_stands_as_its_outcome(self, monkeypatch):
        # a one-point call computes its slice through grand.weighted_lp_norm,
        # and the error that raises is the outcome, through psi too
        calls = []

        def failing(u, A, p, *, details):
            calls.append(p)
            raise QuadratureError(f"lone slice at {p}")

        monkeypatch.setattr(grand_module, "weighted_lp_norm", failing)
        diag = grand_module.QuadratureDiagnostics()
        table = grand_module._SliceTable(False, bump(1.0, 1.0), (1.0, 2.0), diag)
        objective = grand_module._over_psi(table, constant_psi(1.5, 2.5))
        (outcome,) = objective(np.array([2.0]))
        assert isinstance(outcome, QuadratureError) and str(outcome) == "lone slice at 2.0"
        assert objective(np.array([2.0])) == [outcome] and calls == [2.0]
        assert diag.neval == 0

    def test_uncertified_lp_slices_of_the_slice_scan_raise(self, monkeypatch):
        # the slice scan's grid asks for the lp slices at q(p), p on the grid
        # of (1.5, 2.5); each failed one stands as the outcome of its ratio,
        # so the report raises
        A = (1.0, 2.0)
        grid = grand_module._exponent_grid(1.5, 2.5, grand_module.SUP_GRID_POINTS)
        slice_grid = [sobolev_exponent(A, A, p) for p in grid]
        real = grand_module._slice_rows
        failed = []

        def slice_grid_fails(u, gradient, A, ps):
            if not gradient and list(ps) == slice_grid:
                failed.append(ps)
                return [QuadratureError(f"lp slice at {p}") for p in ps]
            return real(u, gradient, A, ps)

        monkeypatch.setattr(grand_module, "_slice_rows", slice_grid_fails)
        expected = r"64 of 64 slices could not be certified \(first: lp slice at"
        with pytest.raises(QuadratureError, match=expected):
            verify_gls_sobolev(bump(1.0, 1.0), constant_psi(1.5, 2.5), A)
        assert len(failed) == 1

    def test_uncertified_gradient_slices_raise_from_the_real_scan(self):
        with pytest.raises(QuadratureError, match="33 of 64 slices could not be certified"):
            gls_gradient_norm(extremal_profile(3.0, 2.0), constant_psi(1.6, 2.5), (0, 0, 0))


class TestWorkNotRepeated:
    @pytest.mark.parametrize(
        "norm_fn, kind", [(gls_norm, "value"), (gls_gradient_norm, "derivative")]
    )
    def test_one_peak_scan_per_grand_norm(self, norm_fn, kind):
        # the window reaches past p = 128, where slices seed the peak
        u, sizes = _recording_profile(bump(1.0, 1.5))
        norm_fn(u, constant_psi(1.5, 300.0), [1.0, 2.0])
        assert sizes[kind].count(_SCAN_POINTS) == 1
        other = "derivative" if kind == "value" else "value"
        assert sizes[other] == []

    def test_verify_gls_computes_each_gradient_slice_once(self, monkeypatch):
        calls = {"weighted_lp_norm": [], "weighted_gradient_norm": []}
        for name, log in calls.items():
            real = getattr(grand_module, name)

            def recording(u, A, p, *, details, _real=real, _log=log):
                value, diag = _real(u, A, p, details=True)
                _log.append((float(p), diag.neval))
                return (value, diag) if details else value

            monkeypatch.setattr(grand_module, name, recording)
        real_rows = grand_module._slice_rows

        def recording_rows(u, gradient, A, ps):
            outcomes = real_rows(u, gradient, A, ps)
            log = calls["weighted_gradient_norm" if gradient else "weighted_lp_norm"]
            log.extend((float(p), diag.neval) for p, (_, diag) in zip(ps, outcomes))
            return outcomes

        monkeypatch.setattr(grand_module, "_slice_rows", recording_rows)
        report = verify_gls_sobolev(
            bump(1.0, 1.0), power_endpoint_psi(1.3, 3.4, 0.4, 0.4), [1.0, 2.0]
        )
        gradient_ps = [p for p, _ in calls["weighted_gradient_norm"]]
        assert len(gradient_ps) == len(set(gradient_ps))
        computed = sum(neval for log in calls.values() for _, neval in log)
        assert report.quadrature["neval"] == computed

    def test_verify_gls_probes_each_grid_in_few_profile_calls(self):
        # the slices of each probe grid, and the golden probes computed ahead
        # with them, share their profile calls; computing every slice alone
        # takes 1,330 calls here
        u, sizes = _recording_profile(bump(1.0, 1.0))
        verify_gls_sobolev(u, power_endpoint_psi(1.3, 3.4, 0.4, 0.4), (1.0, 2.0))
        assert len(sizes["value"]) + len(sizes["derivative"]) <= 200

    def test_tails_of_a_divergent_window_share_their_profile_calls(self):
        # the low-p slices diverge in their tails; doubling each slice's
        # tail on its own takes 982 calls here
        u, sizes = _recording_profile(power_tail(2.5, 1.0))
        assert gls_norm(u, constant_psi(1.2, 4.0), (1.0, 2.0)) == math.inf
        assert len(sizes["value"]) + len(sizes["derivative"]) <= 60

    def test_tails_of_a_gradient_scan_share_their_profile_calls(self):
        # doubling each slice's tail on its own takes 422 calls here
        u, sizes = _recording_profile(gaussian(1.0))
        gls_gradient_norm(u, power_endpoint_psi(1.3, 3.4, 0.4, 0.4), (1.0, 2.0))
        assert len(sizes["value"]) + len(sizes["derivative"]) <= 80

    @pytest.mark.parametrize(
        "u, psi, bound",
        [
            # a table reaching p = 1e8: 4,089 calls when those slices refine
            # round-off up to the panel budget
            (bump(1.0, 1.5), tabulated_psi([1.5, 4.0, 1e8], [1.0, 1.0, 1000.0]), 200),
            # a window to p = inf: 20,204 calls without the round-off stop
            (bump(1.0, 1.0), constant_psi(1.5, math.inf), 300),
        ],
        ids=["table-to-1e8", "window-to-inf"],
    )
    def test_slices_stop_refining_round_off(self, u, psi, bound):
        u, sizes = _recording_profile(u)
        gls_norm(u, psi, (1.0, 2.0))
        assert len(sizes["value"]) + len(sizes["derivative"]) <= bound

    def test_verify_gls_with_round_off_slices_stays_inconclusive_in_few_calls(self):
        # 4,741 calls without the round-off stop
        u, sizes = _recording_profile(gaussian(0.94))
        report = verify_gls_sobolev(u, constant_psi(1.5, 5.0), (1.0, 2.0))
        assert report.status == "inconclusive"
        assert len(sizes["value"]) + len(sizes["derivative"]) <= 1000

    def test_an_end_cell_sup_computes_its_golden_path_in_few_profile_calls(self):
        # the sup sits at the start of (1.5, inf), where the objective is
        # monotone; computing each golden probe alone takes 345 calls here
        u, sizes = _recording_profile(gaussian(2.0))
        gls_norm(u, constant_psi(1.5, math.inf), (1.0, 2.0))
        assert len(sizes["value"]) + len(sizes["derivative"]) <= 100

    def test_verify_gls_with_end_cell_sups_stays_inconclusive_in_few_calls(self):
        # 733 calls when each golden probe of an end-cell sup goes alone
        u, sizes = _recording_profile(gaussian(0.94))
        report = verify_gls_sobolev(u, constant_psi(1.5, 5.0), (1.0, 2.0))
        assert report.status == "inconclusive"
        assert len(sizes["value"]) + len(sizes["derivative"]) <= 250

    def test_shared_gradient_gives_the_same_morrey_numbers(self):
        A = [1.0, 1.0]
        psi = constant_psi(5.0, 9.0)
        profiles = [bump(1.0, 1.0), tent(1.5)]
        deltas = (0.1, 0.5)
        gradients = [gls_gradient_norm(u, psi, A, details=True)[1] for u in profiles]
        c2 = calibrate_morrey_constant(profiles, psi, A, deltas)
        assert calibrate_morrey_constant(profiles, psi, A, deltas, gradients=gradients) == c2
        for u, gradient in zip(profiles, gradients):
            before = gradient.quadrature.to_dict()
            for d in deltas:
                shared = morrey_bound(u, psi, A, d, c2=c2, details=True, gradient=gradient)
                own = morrey_bound(u, psi, A, d, c2=c2, details=True)
                assert shared[0] == own[0]
                assert shared[1]["quadrature"].to_dict() == own[1]["quadrature"].to_dict()
            assert gradient.quadrature.to_dict() == before

    def test_calibration_needs_one_gradient_per_profile(self):
        psi = constant_psi(5.0, 9.0)
        gradient = gls_gradient_norm(tent(1.5), psi, [1.0, 1.0], details=True)[1]
        with pytest.raises(InputError, match="one gradient norm per profile"):
            calibrate_morrey_constant(
                [tent(1.5), bump(1.0, 1.0)], psi, [1.0, 1.0], (0.5,), gradients=[gradient]
            )


    @pytest.mark.parametrize("moduli", [[[0.1]], [[0.1, 0.2], [0.3, 0.4]]])
    def test_calibration_needs_one_modulus_per_profile_and_delta(self, moduli):
        with pytest.raises(InputError, match="need one sampled modulus per profile and delta"):
            calibrate_morrey_constant(
                [tent(1.5), bump(1.0, 1.0)], constant_psi(5.0, 9.0), [1.0, 1.0], (0.5,),
                moduli=moduli,
            )


class TestSliceTableReuse:
    @pytest.mark.parametrize(
        "u, psi",
        [
            (bump(1.0, 1.0), power_endpoint_psi(1.3, 3.4, 0.4, 0.4)),
            (gaussian(1.0), constant_psi(2.0, 300.0)),
            (power_tail(3.0, 1.0), constant_psi(1.2, 4.0)),
            (tent(1.5), constant_psi(1.5, 3.0)),
            (smoothed_step(1.0, 0.3), power_endpoint_psi(1.3, 3.4, 0.4, 0.4)),
            (bump(1.0, 1.5), constant_psi(100.0, 160.0)),
            (gaussian(2.0), constant_psi(1.5, math.inf)),
        ],
        ids=[
            "bump-power-endpoint",
            "gaussian-past-seeding",
            "power-tail-divergent-low-p",
            "tent",
            "smoothed-step",
            "bump-window-crossing-128",
            "gaussian-end-cell-to-inf",
        ],
    )
    def test_scan_slices_equal_standalone_norms(self, monkeypatch, u, psi):
        """Batching the grid and the golden probes inside a scan changes how
        many points are evaluated and nothing else: every slice of the scan
        has the value (or the exception) and the diagnostics, neval
        included, of a standalone call."""
        A = (1.0, 2.0)
        real_norm = grand_module.weighted_lp_norm
        real_rows = grand_module._slice_rows
        real_k15 = quadrature_module._k15_panels
        k15_calls = [0]

        def counted(*args):
            k15_calls[0] += 1
            return real_k15(*args)

        seen = []
        batches = []

        def recording(*args, **kwargs):
            out = real_norm(*args, **kwargs)
            seen.append((args[2], out))
            return out

        def recording_rows(u, gradient, A, ps):
            outcomes = real_rows(u, gradient, A, ps)
            batches.append(list(ps))
            seen.extend(zip(ps, outcomes))
            return outcomes

        monkeypatch.setattr(quadrature_module, "_k15_panels", counted)
        monkeypatch.setattr(grand_module, "weighted_lp_norm", recording)
        monkeypatch.setattr(grand_module, "_slice_rows", recording_rows)
        result = gls_norm(u, psi, A, details=True)[1]
        in_scan = k15_calls[0]
        k15_calls[0] = 0
        grid = grand_module._exponent_grid(psi.a, psi.b, grand_module.SUP_GRID_POINTS)
        assert batches[0] == grid.tolist()
        if not result.diverged:
            assert len(seen) > grand_module.SUP_GRID_POINTS
        for p, outcome in seen:
            if isinstance(outcome, Exception):
                with pytest.raises(type(outcome)) as alone_exc:
                    real_norm(u, A, p, details=True)
                assert str(alone_exc.value) == str(outcome)
                continue
            value, diag = outcome
            alone, alone_diag = real_norm(u, A, p, details=True)
            assert value == alone
            assert diag.to_dict() == alone_diag.to_dict()
        assert in_scan < k15_calls[0]

    @pytest.mark.parametrize("a", [1.5, 2.0])
    @pytest.mark.parametrize("scale", [1.5, 2.0])
    def test_an_end_cell_scan_has_the_bits_of_one_probe_at_a_time(self, scale, a):
        """A sup at the start of (a, inf) batches its golden probes; value,
        argmax and merged diagnostics are those of a scan that computes
        each slice as a standalone norm and merges it in probe order."""
        u, A, psi = gaussian(scale), (1.0, 2.0), constant_psi(a, math.inf)
        diag = grand_module.QuadratureDiagnostics()
        values = {}

        def one_at_a_time(ps):
            for p in ps.tolist():
                if p not in values:
                    values[p], slice_diag = weighted_lp_norm(u, A, p, details=True)
                    diag.merge(slice_diag)
            return [values[p] for p in ps.tolist()]

        _, (value, argmax, at_boundary) = _reference_scan(one_at_a_time, psi.a, psi.b)
        result = gls_norm(u, psi, A, details=True)[1]
        assert at_boundary and result.at_boundary
        assert (result.value, result.argmax) == (value, argmax)
        assert result.quadrature.to_dict() == diag.to_dict()
