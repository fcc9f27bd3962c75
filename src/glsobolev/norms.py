"""Weighted Lebesgue norms of radial functions.

For a monomial weight with exponent tuple A and effective dimension
D = len(A) + sum(A), the norm of a radial u reduces to a one-dimensional
integral,

    ||u||_{p, A} = ( sigma_A * int_0^inf rho^(D-1) |u(rho)|^p d rho )^(1/p),

where sigma_A = 2 prod Gamma((a_i + 1)/2) / Gamma(D/2) is the weighted
surface mass of the unit sphere.  For radial u the gradient norm uses
|u'(rho)| in place of |u(rho)|.

Large p is handled in log space: |u|^p is rescaled by its maximum so the
quadrature only ever sees O(1) integrands, and the peak is pre-seeded with
geometrically shrinking panel edges so it cannot slip between Kronrod
nodes.  The maximum comes from the profile's ``value_peak`` or
``derivative_peak``, scanned once per profile object, so a sweep over p
(a grand-norm sup scan, say) scans each profile once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import _log_gamma_product
from .errors import DomainError, InputError
from .exponents import ExponentTuple, as_exponent_tuple
from .gammafn import log_gamma
from .profiles import Decaying, RadialProfile
from .quadrature import (
    DEFAULT_REL_TOL,
    QuadratureDiagnostics,
    _power_weighted,
    extend_tail,
    integrate_power_weighted,
)

_SEED_P_THRESHOLD = 128.0


@lru_cache(maxsize=256)
def _log_angular_mass(entries: tuple) -> float:
    A = ExponentTuple(entries)
    return math.log(2.0) + _log_gamma_product(A) - log_gamma(A.effective_dimension / 2.0)


def angular_mass(A) -> float:
    """Weighted measure of the unit sphere, sigma_A."""
    A = as_exponent_tuple(A)
    return math.exp(_log_angular_mass(A.entries))


@dataclass(frozen=True)
class WeightedMeasure:
    """The measure x^A dx on R^len(A), with its radial reduction data."""

    A: ExponentTuple

    def __post_init__(self):
        object.__setattr__(self, "A", as_exponent_tuple(self.A))

    @property
    def effective_dimension(self) -> float:
        return self.A.effective_dimension

    @property
    def angular_mass(self) -> float:
        return angular_mass(self.A)

    def ball_mass(self, radius: float) -> float:
        """Measure of the centered ball of the given radius."""
        if radius < 0.0:
            raise DomainError(f"radius must be nonnegative, got {radius}")
        D = self.effective_dimension
        return self.angular_mass * radius**D / D


def _peak_edges(rho_star: float, span: float) -> list[float]:
    """Panel edges accumulating geometrically onto the peak from both sides."""
    edges = []
    for k in range(1, 41):
        off = span * 2.0**-k
        edges.append(rho_star - off)
        edges.append(rho_star + off)
    return [e for e in edges if e > 0.0]


def radial_integral(
    fn,
    gamma_exp: float,
    profile: RadialProfile,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    initial_edges=None,
) -> tuple[float, QuadratureDiagnostics]:
    """int_0^inf rho^gamma_exp fn(rho) d rho over the profile's support.

    ``fn`` is any vectorized function derived from the profile (the caller
    owns the pointwise transform); the support descriptor decides whether a
    geometric tail extension is appended.  ``rel_tol`` must lie in (0, 1).
    """
    if not 0.0 < rel_tol < 1.0:
        raise InputError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    support = profile.support
    decaying = isinstance(support, Decaying)
    upper = support.radius
    if decaying and initial_edges is not None:
        seeded_max = max((x for x in initial_edges if math.isfinite(x)), default=0.0)
        upper = max(upper, 2.0 * seeded_max)
    value, diag = integrate_power_weighted(
        fn, gamma_exp, upper, rel_tol=rel_tol, initial_edges=initial_edges
    )
    if decaying:
        tail, tdiag = extend_tail(
            _power_weighted(fn, gamma_exp), upper, rel_tol=rel_tol, base_value=value
        )
        diag.merge(tdiag)
        value += tail
    return value, diag


def _norm(u: RadialProfile, gradient: bool, A, p: float, rel_tol: float, details: bool):
    """||u||_{p, A}, or || |u'| ||_{p, A} with ``gradient``: the body of
    weighted_lp_norm and weighted_gradient_norm."""
    A = as_exponent_tuple(A)
    if not (p >= 1.0 and math.isfinite(p)):
        raise DomainError(f"norm exponent p must satisfy 1 <= p < inf, got {p}")
    D = A.effective_dimension
    values_fn, scan = (u.derivative, u.derivative_peak) if gradient else (u.value, u.value_peak)
    peak = scan.value
    if not np.isfinite(peak):
        raise DomainError("profile takes non-finite values on its support")
    if peak == 0.0:
        return (0.0, QuadratureDiagnostics()) if details else 0.0
    rho_star = scan.rho_star

    def g(r):
        return (np.abs(np.asarray(values_fn(r), dtype=float)) / peak) ** p

    edges = None
    if p >= _SEED_P_THRESHOLD:
        span = scan.scan_end if rho_star > 0.0 else scan.scan_end * 0.5
        edges = _peak_edges(max(rho_star, scan.first_node), span)
    integral, diag = radial_integral(g, D - 1.0, u, rel_tol=rel_tol, initial_edges=edges)
    value = 0.0
    if integral > 0.0:
        log_norm = math.log(peak) + (_log_angular_mass(A.entries) + math.log(integral)) / p
        value = math.exp(log_norm)
    return (value, diag) if details else value


def weighted_lp_norm(
    u: RadialProfile,
    A,
    p: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    details: bool = False,
):
    """||u||_{p, A} for a radial profile u.

    Parameters
    ----------
    u : RadialProfile
        Radial function with declared support.
    A : exponent tuple or sequence
        Monomial weight exponents, all nonnegative.
    p : float
        Lebesgue exponent, p >= 1.
    rel_tol : float, optional
        Relative tolerance requested from the quadrature.
    details : bool, optional
        When true, return ``(value, diagnostics)``.

    Returns
    -------
    float or (float, QuadratureDiagnostics)

    Raises
    ------
    DivergentIntegralError
        If the tail blocks stop decaying (the norm is infinite or nearly so).
    QuadratureError
        If the requested tolerance cannot be certified.
    """
    return _norm(u, False, A, p, rel_tol, details)


def weighted_gradient_norm(
    u: RadialProfile,
    A,
    p: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    details: bool = False,
):
    """|| |grad u| ||_{p, A}; for radial u this is the norm of |u'(rho)|."""
    return _norm(u, True, A, p, rel_tol, details)


def sup_norm(u: RadialProfile) -> float:
    """Grid-scanned supremum of |u| (refined once around the peak)."""
    scan = u.value_peak
    fine = np.linspace(*scan.bracket, 513)
    return float(max(scan.value, np.max(np.abs(np.asarray(u.value(fine), dtype=float)))))
