"""Sharp constants of the weighted Sobolev and trace inequalities.

Two families are provided:

* the unweighted sharp constant of the classical Sobolev inequality on R^m
  (:func:`talenti_constant`), and
* the sharp constant of the monomial-weight inequality
  |u|_{q, mu_A} <= C(p) |grad u|_{p, mu_A} with q = D p / (D - p)
  (:func:`sharp_constant`, with its p -> 1 limit :func:`sharp_constant_p1`).

For the monomial family the default ``variant="corrected"`` evaluates the
normalization attained by the radial extremal profile on the whole space:

    C1   = D^{-1} (Gamma(1 + D/2) / prod_i Gamma((A(i)+1)/2))^{1/D}
    C(p) = C1 * D^{1 - 1/D - 1/p} * ((p-1)/(D-p))^{1 - 1/p}
              * (p' Gamma(D) / (Gamma(D/p) Gamma(D/p')))^{1/D}

which at A = 0 coincides with the Talenti constant exactly.
``variant="literal"`` keeps the other published transcription of the pair
(inverted Gamma quotient, shifted half-integer argument, opposite sign on
the 1 - 1/D exponent); it fails both the p -> 1 limit and the extremal
sharpness check and is retained for side-by-side inspection only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, InputError
from .exponents import ExponentTuple, _guard_open_endpoint, as_exponent_tuple, trace_exponent
from .gammafn import log_gamma

_VARIANTS = ("corrected", "literal")


def _valid_variant(variant: str) -> str:
    """``variant`` itself when it names a constant variant; InputError otherwise."""
    if variant not in _VARIANTS:
        raise InputError(f"unknown constant variant {variant!r}; use one of {_VARIANTS}")
    return variant


def _where_defined(constant, *args, **kwargs):
    """``constant(*args, **kwargs)``, or None where its own guard raises DomainError."""
    try:
        return constant(*args, **kwargs)
    except DomainError:
        return None


def talenti_constant(m: int, p: float) -> float:
    """Sharp constant of the Sobolev inequality on R^m, 1 <= p < m, m >= 3.

    K(m, p) = pi^{-1/2} m^{-1/p} ((p-1)/(m-p))^{1-1/p}
              * (Gamma(1 + m/2) Gamma(m) / (Gamma(m/p) Gamma(1 + m - m/p)))^{1/m}

    with the p = 1 value taken as the limit (the middle factor is 1 there).
    """
    if int(m) != m or m < 3:
        raise DomainError(f"talenti_constant requires integer m >= 3, got {m}")
    m = int(m)
    p = float(p)
    if p == 1.0:
        log_mid = 0.0
    else:
        _guard_open_endpoint(p, 1.0, float(m))
        log_mid = (1.0 - 1.0 / p) * math.log((p - 1.0) / (m - p))
    log_bracket = (
        log_gamma(1.0 + m / 2.0)
        + log_gamma(float(m))
        - log_gamma(m / p)
        - log_gamma(1.0 + m - m / p)
    ) / m
    return math.exp(-0.5 * math.log(math.pi) - math.log(m) / p + log_mid + log_bracket)


def _log_gamma_product(A) -> float:
    """sum_i log Gamma((A(i) + 1) / 2), shared by C1 and the sphere mass sigma_A."""
    return sum(log_gamma((a + 1.0) / 2.0) for a in A.entries)


def sharp_constant_p1(A, variant: str = "corrected") -> float:
    """The p -> 1+ limit constant C1 of the monomial Sobolev inequality.

    In the corrected normalization this is the weighted isoperimetric
    constant (1/D) * (D / sigma_A)^{1/D}: the smoothed indicator of a ball
    attains it in the p = 1 inequality.
    """
    A = as_exponent_tuple(A)
    D = A.effective_dimension
    if D <= 1.0:
        raise DomainError(f"effective dimension D = {D} must exceed 1")
    _valid_variant(variant)
    lgp = _log_gamma_product(A)
    if variant == "corrected":
        return math.exp(-math.log(D) + (log_gamma(1.0 + D / 2.0) - lgp) / D)
    k = A.positive_count
    return math.exp(
        math.log(D) + (lgp - k * math.log(2.0) - log_gamma((1.0 + D) / 2.0)) / D
    )


@lru_cache(maxsize=256)
def _weight_terms(entries: tuple, variant: str) -> tuple:
    """(C1, log Gamma(D)) of the weight with these entries: the terms of
    C(p) that depend on A alone.  An error is not cached, so it raises on
    every call."""
    A = ExponentTuple(entries)
    return sharp_constant_p1(A, variant), log_gamma(A.effective_dimension)


def sharp_constant(A, p: float, variant: str = "corrected") -> float:
    """Sharp constant C(p) of |u|_{q, mu_A} <= C(p) |grad u|_{p, mu_A}.

    Parameters
    ----------
    A : ExponentTuple or sequence of float
        Monomial weight exponents; D(A) > 1 required.
    p : float
        Gradient integrability exponent, 1 < p < D(A); both endpoints are
        guarded to 1e-12 (p = 1 itself belongs to :func:`sharp_constant_p1`).
    variant : {"corrected", "literal"}

    Returns
    -------
    float
    """
    A = as_exponent_tuple(A)
    c1, log_gamma_d = _weight_terms(A.entries, variant)  # validates D > 1 and the variant
    D = A.effective_dimension
    p = float(p)
    _guard_open_endpoint(p, 1.0, D)
    pprime = p / (p - 1.0)
    if variant == "corrected":
        d_exp = 1.0 - 1.0 / D - 1.0 / p
    else:
        d_exp = 1.0 / D - 1.0 - 1.0 / p
    log_mid = (1.0 - 1.0 / p) * math.log((p - 1.0) / (D - p))
    log_bracket = (
        math.log(pprime) + log_gamma_d - log_gamma(D / p) - log_gamma(D / pprime)
    ) / D
    return c1 * math.exp(d_exp * math.log(D) + log_mid + log_bracket)


@dataclass(frozen=True)
class TraceBoundPair:
    """Bracket [M, M*Q] for the radial trace inequality constant W, with
    Q >= 1 whenever p > 1 and q > 1."""

    M: float
    Q: float


def trace_bounds(
    A,
    B,
    r: int,
    p: float,
    q: float | None = None,
) -> TraceBoundPair:
    """Two-sided bracket for the radial trace inequality constant.

    M = D_r^{-1/r} ((p-1)/(D-r))^{1-1/p} and Q = (q/(q-1))^{1-1/p} q^{1/q},
    implemented literally as printed.

    r and B are validated by trace_exponent, and q defaults to its law
    D_r(B) * p / (D(A) - p).
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    q_law = trace_exponent(A, B, r, p)  # validates r and B
    q = q_law if q is None else float(q)
    p = float(p)
    D = A.effective_dimension
    r = int(r)
    if D <= r:
        raise DomainError(f"D(A) = {D} must exceed r = {r} for the M factor")
    _guard_open_endpoint(p, 1.0, D)
    if not (math.isfinite(q) and q > 1.0):
        raise DomainError(f"q must be finite and exceed 1, got q = {q}")
    Dr = B.effective_dimension
    M = Dr ** (-1.0 / r) * ((p - 1.0) / (D - r)) ** (1.0 - 1.0 / p)
    Q = (q / (q - 1.0)) ** (1.0 - 1.0 / p) * q ** (1.0 / q)
    return TraceBoundPair(M=M, Q=Q)
