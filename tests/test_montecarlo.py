import math

import numpy as np
import pytest

from glsobolev.errors import DomainError, InputError, QuadratureError
from glsobolev.montecarlo import (
    MonteCarloResult,
    SamplerConfig,
    monte_carlo_lp_norm,
    monte_carlo_weighted_integral,
)
from glsobolev.norms import ball_mass, weighted_lp_norm
from glsobolev.profiles import gaussian, step, tent


def _radius(x):
    return np.sqrt(np.sum(x * x, axis=1))


class TestWeightedIntegral:
    def test_ball_mass(self):
        # int 1_{|x| < R} x^A dx against the closed form
        A = [1.0, 1.0]
        R = 1.5
        exact = ball_mass(A, R)
        res = monte_carlo_weighted_integral(
            lambda x: (_radius(x) < R).astype(float),
            A,
            config=SamplerConfig(n_samples=200_000, seed=3, proposal_scale=1.0),
        )
        assert res.agrees_with(exact)

    def test_gaussian_moment(self):
        # int e^(-2 r^2) |x||y| dx = sigma/2 * Gamma(2)/2^2 with sigma = 2
        exact = 0.25 * math.gamma(2.0)
        res = monte_carlo_weighted_integral(
            lambda x: np.exp(-2.0 * _radius(x) ** 2),
            [1.0, 1.0],
            config=SamplerConfig(n_samples=150_000, seed=7),
        )
        assert res.agrees_with(exact)

    def test_zero_integrand(self):
        res = monte_carlo_weighted_integral(
            lambda x: np.zeros(x.shape[0]),
            [1.0, 1.0],
            config=SamplerConfig(n_samples=1000, seed=0),
        )
        assert res.value == 0.0
        assert res.std_error == 0.0

    def test_seed_determinism(self):
        cfg = SamplerConfig(n_samples=20_000, seed=42)
        f = lambda x: np.exp(-_radius(x) ** 2)
        a = monte_carlo_weighted_integral(f, [0.5, 1.5], config=cfg)
        b = monte_carlo_weighted_integral(f, [0.5, 1.5], config=cfg)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_seed_variation(self):
        f = lambda x: np.exp(-_radius(x) ** 2)
        a = monte_carlo_weighted_integral(
            f, [0.5, 1.5], config=SamplerConfig(n_samples=20_000, seed=1)
        )
        b = monte_carlo_weighted_integral(
            f, [0.5, 1.5], config=SamplerConfig(n_samples=20_000, seed=2)
        )
        assert a.value != b.value

    def test_degenerate_support_flagged(self):
        # an indicator deep in the proposal tail leaves a handful of live
        # samples; the collapsed ESS must be reported, not silently wrong
        with pytest.raises(QuadratureError):
            monte_carlo_weighted_integral(
                lambda x: (_radius(x) > 4.0).astype(float),
                [1.0, 1.0],
                config=SamplerConfig(n_samples=10_000, seed=0, proposal_scale=1.0),
            )

    def test_empty_support_returns_zero(self):
        # nothing hit at all: a zero estimate, flagged by zero SE, is honest
        res = monte_carlo_weighted_integral(
            lambda x: (_radius(x) > 50.0).astype(float),
            [1.0, 1.0],
            config=SamplerConfig(n_samples=10_000, seed=0, proposal_scale=1.0),
        )
        assert res.value == 0.0


class TestLpNorm:
    @pytest.mark.parametrize(
        "profile,A,p",
        [
            (gaussian(1.0), [1.0, 2.0], 2.0),
            (gaussian(0.7), [0.5, 0.5], 3.0),
            (tent(2.0), [1.0, 1.0], 2.0),
            (step(1.2), [2.0], 1.5),
        ],
    )
    def test_agrees_with_quadrature(self, profile, A, p):
        exact = weighted_lp_norm(profile, A, p)
        res = monte_carlo_lp_norm(
            profile, A, p, config=SamplerConfig(n_samples=100_000, seed=11)
        )
        assert res.agrees_with(exact)

    def test_std_error_scales(self):
        # quadrupling the sample count should roughly halve the SE
        small = monte_carlo_lp_norm(
            gaussian(), [1.0, 1.0], 2.0, config=SamplerConfig(n_samples=25_000, seed=5)
        )
        large = monte_carlo_lp_norm(
            gaussian(), [1.0, 1.0], 2.0, config=SamplerConfig(n_samples=400_000, seed=5)
        )
        assert large.std_error < 0.45 * small.std_error

    @pytest.mark.parametrize("p", [math.nan, 0.5, math.inf])
    def test_rejects_a_meaningless_exponent(self, p):
        with pytest.raises(DomainError, match="norm exponent p must satisfy"):
            monte_carlo_lp_norm(tent(1.0), (1.0, 1.0), p)


class TestSamplerConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_samples": 1}, "need at least 2 samples, got 1"),
            ({"proposal_scale": 0.0}, "proposal scale must be positive"),
            ({"proposal_scale": math.nan}, "proposal scale must be positive"),
            ({"proposal_scale": math.inf}, "proposal scale must be positive"),
        ],
    )
    def test_malformed_settings_are_input_errors(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            SamplerConfig(**kwargs)


class TestResultType:
    def test_agreement_window(self):
        res = MonteCarloResult(
            value=1.0, std_error=0.01, n_samples=100, effective_samples=80.0
        )
        assert res.agrees_with(1.02)
        assert not res.agrees_with(1.2)

    def test_zero_se_exact_match(self):
        res = MonteCarloResult(
            value=2.0, std_error=0.0, n_samples=10, effective_samples=10.0
        )
        assert res.agrees_with(2.0)
        assert not res.agrees_with(2.0000001)
