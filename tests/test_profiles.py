import dataclasses
import math

import numpy as np
import pytest

from glsobolev.errors import InputError
from glsobolev.profiles import (
    Compact,
    Decaying,
    RadialProfile,
    bump,
    gaussian,
    generator_names,
    make_profile,
    power_tail,
    smoothed_step,
    step,
    tent,
)


class TestDerivativeCheck:
    def test_wrong_derivative_is_caught(self):
        with pytest.raises(InputError, match="disagrees"):
            RadialProfile(
                value=lambda r: np.exp(-np.asarray(r) ** 2),
                derivative=lambda r: -np.asarray(r) * np.exp(-np.asarray(r) ** 2),  # missing 2
                support=Decaying(tail_exponent=8.0, radius=2.0),
                name="broken",
            )

    def test_sign_flip_is_caught(self):
        with pytest.raises(InputError):
            RadialProfile(
                value=lambda r: np.exp(-np.asarray(r)),
                derivative=lambda r: np.exp(-np.asarray(r)),
                support=Decaying(tail_exponent=4.0, radius=1.0),
            )

    @pytest.mark.parametrize(
        "generator, params",
        [
            ("bump", (0.007, 0.5)),
            ("bump", (1e-150, 0.5)),
            ("gaussian", (1e-5,)),
            ("power_tail", (3.0, 1e-5)),
            ("smoothed_step", (1e-5, 2.5e-6)),
            ("bump", (1e100, 0.5)),
        ],
    )
    def test_a_valid_profile_passes_at_any_scale(self, generator, params):
        # the step once was 1e-6 (1 + rho), huge next to a small support
        make_profile(generator, *params)

    @pytest.mark.parametrize("s", [1e-4, 1.0, 1e4])
    def test_a_derivative_off_by_a_thousandth_is_caught_at_any_scale(self, s):
        def value(r):
            return np.exp(-((np.asarray(r) / s) ** 2))

        with pytest.raises(InputError, match="disagrees"):
            RadialProfile(
                value=value,
                derivative=lambda r: -2.002 * np.asarray(r) / s**2 * value(r),  # 0.1% off
                support=Decaying(tail_exponent=16.0, radius=3.0 * s),
            )

    def test_check_can_be_disabled(self):
        p = RadialProfile(
            value=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            derivative=lambda r: np.ones_like(np.asarray(r, dtype=float)),  # wrong on purpose
            support=Compact(1.0),
            check=False,
        )
        assert p.value(0.5) == 1.0

    def test_a_false_nonincreasing_declaration_is_refused(self):
        # the hump rho (1 - rho)^2 rises on [0, 1/3]
        with pytest.raises(InputError, match=r"'hump' is declared non-increasing but u'\(0\.03125\) = 0\.8[0-9]* > 0"):
            RadialProfile(
                value=lambda r: np.asarray(r) * (1.0 - np.asarray(r)) ** 2,
                derivative=lambda r: (1.0 - np.asarray(r)) * (1.0 - 3.0 * np.asarray(r)),
                support=Compact(1.0),
                name="hump",
                nonincreasing=True,
            )

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_every_generator_declares_nonincreasing_and_passes(self, scale):
        params = {
            "bump": (scale, 2.0),
            "gaussian": (scale,),
            "tent": (scale,),
            "step": (scale,),
            "smoothed_step": (scale, 0.3 * scale),
            "power_tail": (3.0, scale),
            "extremal": (5.0, 2.0),
        }
        assert sorted(params) == sorted(generator_names())
        for name, args in params.items():
            assert make_profile(name, *args).nonincreasing, name


class TestSupports:
    def test_compact_validation(self):
        with pytest.raises(InputError):
            Compact(0.0)
        with pytest.raises(InputError):
            Compact(-1.0)

    def test_decaying_validation(self):
        with pytest.raises(InputError):
            Decaying(tail_exponent=0.0)
        with pytest.raises(InputError):
            Decaying(tail_exponent=2.0, radius=0.0)

    def test_scan_radius(self):
        assert Compact(2.0).scan_radius == 2.0
        assert Decaying(tail_exponent=3.0, radius=2.0).scan_radius == 8.0
        assert gaussian(1.0).dilated(0.5).support.scan_radius == pytest.approx(24.0)
        with pytest.raises(AttributeError):
            Compact(2.0).scan_radius = 3.0


class TestFactories:
    @pytest.mark.parametrize("name", generator_names())
    def test_vectorized_and_scalar_calls(self, name):
        u = make_profile(name)
        r = np.linspace(0.0, 3.0, 17)
        vals = u.value(r)
        assert vals.shape == r.shape
        assert isinstance(u.value(1.1), float)
        assert isinstance(u.derivative(1.1), float)

    def test_bump_vanishes_outside(self):
        u = bump(1.0, 2.0)
        assert u.value(1.0) == 0.0
        assert u.value(5.0) == 0.0
        assert u.derivative(1.5) == 0.0
        assert u.value(0.0) == pytest.approx(1.0)

    def test_bump_near_edge_underflows_cleanly(self):
        u = bump(1.0, 1.0)
        vals = u.value(np.array([0.999999999, 1.0 - 1e-15]))
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)

    def test_gaussian_values(self):
        u = gaussian(2.0)
        assert u.value(2.0) == pytest.approx(math.exp(-1.0))
        assert u.derivative(2.0) == pytest.approx(-math.exp(-1.0))

    def test_tent_kink(self):
        u = tent(2.0)
        assert u.value(1.0) == pytest.approx(0.5)
        assert u.derivative(1.0) == pytest.approx(-0.5)
        assert u.value(3.0) == 0.0
        assert u.derivative(3.0) == 0.0

    def test_step_indicator(self):
        u = step(1.5)
        assert u.value(1.0) == 1.0
        assert u.value(2.0) == 0.0

    def test_smoothed_step_is_c1(self):
        u = smoothed_step(1.0, 0.25)
        assert u.value(0.5) == 1.0
        assert u.value(1.0) == pytest.approx(0.0, abs=1e-15)
        assert u.derivative(0.74) == 0.0
        assert u.derivative(0.875) == pytest.approx(-math.pi / 0.5, rel=1e-12)

    def test_power_tail_asymptotics(self):
        u = power_tail(3.0, 1.0)
        big = 1e6
        assert u.value(big) * big**3 == pytest.approx(1.0, rel=1e-6)

    def test_make_profile_errors(self):
        with pytest.raises(InputError):
            make_profile("nope")
        with pytest.raises(InputError):
            make_profile("bump", 1.0, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize(
        "args",
        [("bump", -1.0), ("gaussian", 0.0), ("tent", -2.0), ("power_tail", 0.0)],
    )
    def test_factory_parameter_validation(self, args):
        with pytest.raises(InputError):
            make_profile(*args)


class TestDilation:
    def test_values_transform(self):
        u = bump(1.0, 1.0)
        v = u.dilated(2.0)
        r = np.linspace(0.0, 0.49, 9)
        assert np.allclose(v.value(r), u.value(2.0 * r))
        assert np.allclose(v.derivative(r), 2.0 * u.derivative(2.0 * r))

    def test_support_shrinks(self):
        v = bump(1.0, 1.0).dilated(4.0)
        assert isinstance(v.support, Compact)
        assert v.support.radius == pytest.approx(0.25)

    def test_decaying_support_radius(self):
        v = gaussian(1.0).dilated(0.5)
        assert isinstance(v.support, Decaying)
        assert v.support.radius == pytest.approx(6.0)
        assert v.support.tail_exponent == gaussian(1.0).support.tail_exponent

    def test_dilation_and_replace_keep_the_nonincreasing_declaration(self):
        u = bump(1.0, 1.0)
        assert u.dilated(3.0).nonincreasing
        assert dataclasses.replace(u, check=False).nonincreasing
        assert dataclasses.replace(u.dilated(0.5), check=False).nonincreasing
        hand = RadialProfile(value=u.value, derivative=u.derivative, support=u.support)
        assert not hand.nonincreasing
        assert not hand.dilated(3.0).nonincreasing

    def test_bad_factor(self):
        with pytest.raises(InputError):
            bump().dilated(0.0)
        with pytest.raises(InputError):
            bump().dilated(math.inf)


class TestParametersArePositiveAndFinite:
    # an infinite exponent once built power_tail(e=inf) and extremal(D=inf),
    # whose norms read 0; an infinite or nan sharpness failed only later, on
    # the profile's values, without naming the parameter
    @pytest.mark.parametrize(
        "generator, params, key",
        [
            ("power_tail", (math.inf, 1.0), "exponent"),
            ("power_tail", (3.0, math.nan), "scale"),
            ("extremal", (math.inf, 2.0), "D"),
            ("bump", (1.0, math.inf), "sharpness"),
            ("bump", (1.0, math.nan), "sharpness"),
            ("bump", (-1.0, 1.0), "radius"),
            ("gaussian", (math.inf,), "scale"),
            ("tent", (math.nan,), "radius"),
            ("step", (0.0,), "radius"),
            ("smoothed_step", (1.0, math.inf), "width"),
        ],
    )
    def test_parameter_is_named(self, generator, params, key):
        with pytest.raises(InputError, match=f"^{generator} {key} must be positive and finite"):
            make_profile(generator, *params)

    @pytest.mark.parametrize(
        "generator, params, key",
        [("bump", (5e-324, 1.0), "radius"), ("gaussian", (1e-310,), "scale"),
         ("smoothed_step", (1.0, 1e-320), "width")],
    )
    def test_a_subnormal_parameter_is_named(self, generator, params, key):
        with pytest.raises(InputError, match=f"^{generator} {key} must not be subnormal"):
            make_profile(generator, *params)

    @pytest.mark.parametrize(
        "generator, params, key",
        [("gaussian", (1e-200,), "scale"), ("power_tail", (3.0, 1e-160), "scale"),
         ("bump", (1e-300, 2.0), "radius")],
    )
    def test_a_parameter_whose_square_underflows_is_named(self, generator, params, key):
        # s**2 was 0: numpy warned and the norm read 0
        with pytest.raises(
            InputError, match=f"^{generator} {key} must have a normal square, .* underflows$"
        ):
            make_profile(generator, *params)

    @pytest.mark.parametrize(
        "generator, params, key",
        [("gaussian", (1e160,), "scale"), ("bump", (1.0, 1e200), "sharpness")],
    )
    def test_a_parameter_whose_square_overflows_is_named(self, generator, params, key):
        with pytest.raises(OverflowError, match=f"^{generator} {key} = .*: its square overflows$"):
            make_profile(generator, *params)

    def test_smoothed_step_width_still_bounded_by_its_radius(self):
        with pytest.raises(InputError, match="width 2.0 must not exceed its radius 1.0"):
            smoothed_step(1.0, 2.0)
