"""Importance-sampled Monte Carlo integrals against monomial weights.

Serves as an independent oracle for the radial-reduction quadrature: draws
from an isotropic Gaussian proposal, reweights by x^A / proposal density in
log space, and reports the standard error plus an effective sample size so
a badly matched proposal is flagged instead of silently biasing the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, QuadratureError
from .exponents import as_exponent_tuple, check_norm_exponent, monomial_weight

_MIN_ESS_FRACTION = 1e-3


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the importance sampler."""

    n_samples: int = 100_000
    seed: int = 0
    proposal_scale: float = 1.0

    def __post_init__(self):
        if self.n_samples < 2:
            raise InputError(f"need at least 2 samples, got {self.n_samples}")
        if not (self.proposal_scale > 0.0 and math.isfinite(self.proposal_scale)):
            raise InputError(f"proposal scale must be positive, got {self.proposal_scale}")


@dataclass(frozen=True)
class MonteCarloResult:
    value: float
    std_error: float
    n_samples: int
    effective_samples: float

    def agrees_with(self, reference: float, n_sigma: float = 3.0) -> bool:
        return abs(self.value - reference) <= n_sigma * self.std_error


def monte_carlo_weighted_integral(f, A, config: SamplerConfig | None = None) -> MonteCarloResult:
    """Estimate int_{R^m} f(x) x^A dx.

    Parameters
    ----------
    f : callable
        Maps an (n, m) array of points to an (n,) array of values.
    A : exponent tuple or sequence
        Monomial weight exponents.
    config : SamplerConfig, optional
        Sample count, seed, and Gaussian proposal scale.

    Returns
    -------
    MonteCarloResult
        Estimate, standard error, and effective sample size.

    Raises
    ------
    QuadratureError
        If the effective sample size collapses (proposal mismatch).
    """
    A = as_exponent_tuple(A)
    cfg = config or SamplerConfig()
    m = A.dimension
    s = cfg.proposal_scale
    rng = np.random.default_rng(cfg.seed)
    x = rng.normal(0.0, s, size=(cfg.n_samples, m))

    # log of x^A / q(x) with q the proposal density
    with np.errstate(divide="ignore"):
        log_w = np.log(monomial_weight(A, x))
    log_q = (
        -0.5 * m * math.log(2.0 * math.pi * s * s)
        - np.sum(x * x, axis=1) / (2.0 * s * s)
    )
    w = np.exp(log_w - log_q)

    vals = np.asarray(f(x), dtype=float)
    contrib = np.where(w > 0.0, vals * w, 0.0)
    if not np.all(np.isfinite(contrib)):
        raise QuadratureError("non-finite contributions; proposal tail too light")
    est = float(np.mean(contrib))
    se = float(np.std(contrib, ddof=1) / math.sqrt(cfg.n_samples))

    # the ESS of the |contribution| sizes, not of the bare weights: the
    # weights alone are unbounded under a Gaussian proposal even when the
    # estimator itself has tiny variance
    active = np.abs(contrib[contrib != 0.0])
    if active.size == 0:
        return MonteCarloResult(0.0, 0.0, cfg.n_samples, float(cfg.n_samples))
    ess = float(np.sum(active) ** 2 / np.sum(active**2))
    if ess < _MIN_ESS_FRACTION * cfg.n_samples:
        raise QuadratureError(
            f"effective sample size {ess:.1f} of {cfg.n_samples} draws; "
            "proposal scale poorly matched to the integrand",
            diagnostics={"effective-samples": ess, "n-samples": cfg.n_samples},
        )
    return MonteCarloResult(
        value=est,
        std_error=se,
        n_samples=cfg.n_samples,
        effective_samples=ess,
    )


def monte_carlo_lp_norm(
    u,
    A,
    p: float,
    config: SamplerConfig | None = None,
) -> MonteCarloResult:
    """||u||_{p, A} estimated directly in R^m (no radial reduction).

    The p-th power is integrated by importance sampling and the root and
    its standard error are propagated with the delta method.
    """
    A = as_exponent_tuple(A)
    check_norm_exponent(p)

    def integrand(x):
        r = np.sqrt(np.sum(x * x, axis=1))
        return np.abs(np.asarray(u.value(r), dtype=float)) ** p

    base = monte_carlo_weighted_integral(integrand, A, config)
    if base.value <= 0.0:
        return MonteCarloResult(0.0, 0.0, base.n_samples, base.effective_samples)
    root = base.value ** (1.0 / p)
    se = root / p * base.std_error / base.value
    return MonteCarloResult(root, se, base.n_samples, base.effective_samples)
