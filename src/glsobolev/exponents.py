"""Monomial weights and the exponent algebra of the weighted Sobolev embedding.

A monomial weight on R^m is x |-> prod_i |x_i|^{A(i)} with all A(i) >= 0
(convention 0^0 = 1).  Its effective dimension is

    D(A) = m + sum_i A(i),

which plays the role of the space dimension everywhere: the embedding
exponent law reads q = D(B) * p / (D(A) - p) for 1 <= p < D(A).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DomainError, InputError

#: exponents closer to a domain endpoint than this are rejected
ENDPOINT_GUARD = 1e-12


@dataclass(frozen=True)
class ExponentTuple:
    """Non-negative exponents of a monomial weight on R^m.

    Parameters
    ----------
    entries : tuple of float
        The exponents A(1), ..., A(m); m >= 1, every entry finite and >= 0,
        and D(A) = m + sum_i A(i) finite.
    """

    entries: tuple[float, ...]

    def __post_init__(self):
        entries = tuple(float(a) for a in self.entries)
        if len(entries) < 1:
            raise DomainError("exponent tuple needs at least one entry")
        for a in entries:
            if not math.isfinite(a) or a < 0:
                raise DomainError(f"exponent entries must be finite and >= 0, got {a}")
        object.__setattr__(self, "entries", entries)
        D = self.effective_dimension
        if not math.isfinite(D):
            raise DomainError(f"exponent entries {entries} overflow D(A) = m + sum A(i) to {D}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def dimension(self) -> int:
        """Ambient dimension m."""
        return len(self.entries)

    @property
    def effective_dimension(self) -> float:
        """D(A) = m + sum_i A(i)."""
        return len(self.entries) + float(sum(self.entries))

    @property
    def positive_count(self) -> int:
        """Number of strictly positive entries."""
        return sum(1 for a in self.entries if a > 0)


def as_exponent_tuple(A) -> ExponentTuple:
    """Coerce a sequence of numbers (or an ExponentTuple) to ExponentTuple."""
    if isinstance(A, ExponentTuple):
        return A
    return ExponentTuple(tuple(A))


def monomial_weight(A, x):
    """Evaluate prod_i |x_i|^{A(i)} with the 0^0 = 1 convention.

    Parameters
    ----------
    A : ExponentTuple or sequence of float
    x : array_like, shape (m,) or (n, m)

    Returns
    -------
    float or ndarray of shape (n,)
    """
    import numpy as np

    A = as_exponent_tuple(A)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != A.dimension:
        raise DomainError(
            f"point dimension {pts.shape[1]} does not match weight dimension {A.dimension}"
        )
    out = np.ones(pts.shape[0])
    for i, a in enumerate(A.entries):
        if a == 0.0:
            continue  # |x_i|^0 == 1 even at x_i == 0
        out *= np.abs(pts[:, i]) ** a
    return float(out[0]) if single else out


def _whole_number(key: str, value) -> int:
    """``value`` as an int; InputError unless it is a whole number (int()
    would truncate 2.5 to 2)."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise InputError(f"'{key}' must be a whole number, got {value!r}")
    return int(value)


def _guard_open_endpoint(p: float, lo: float, hi: float):
    """Reject p outside (lo, hi) or within ENDPOINT_GUARD of either endpoint."""
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p}")
    if p - lo < ENDPOINT_GUARD:
        raise DomainError(f"p = {p} at or within {ENDPOINT_GUARD} of endpoint {lo}")
    if hi - p < ENDPOINT_GUARD:
        raise DomainError(f"p = {p} at or within {ENDPOINT_GUARD} of endpoint {hi}")


def check_norm_exponent(p: float):
    """Reject a Lebesgue exponent p outside [1, inf), nan included."""
    if not (p >= 1.0 and math.isfinite(p)):
        raise DomainError(f"norm exponent p must satisfy 1 <= p < inf, got {p}")


def sobolev_exponent(A, B, p: float) -> float:
    """Embedding exponent q = D(B) * p / (D(A) - p).

    Requires 1 <= p < D(A) and D(A) > 1.  With B = A this is the exponent
    for which the weighted Sobolev inequality is scale balanced; for B != A
    the value is returned without any validity claim.
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    DA = A.effective_dimension
    DB = B.effective_dimension
    if DA <= 1.0:
        raise DomainError(f"effective dimension D(A) = {DA} must exceed 1")
    p = float(p)
    if p != 1.0:
        _guard_open_endpoint(p, 1.0, DA)
    return DB * p / (DA - p)


def sobolev_exponent_inverse(A, q: float) -> float:
    """Inverse exponent law p(q) = q * D / (q + D) for the B = A case.

    Maps (D/(D-1), inf) back onto (1, D); q at or below D/(D-1), and a
    nan q, are rejected.
    """
    A = as_exponent_tuple(A)
    D = A.effective_dimension
    if D <= 1.0:
        raise DomainError(f"effective dimension D(A) = {D} must exceed 1")
    q = float(q)
    if q == math.inf:
        return D
    q_lo = D / (D - 1.0)
    if not q > q_lo + ENDPOINT_GUARD:
        raise DomainError(f"q = {q} must exceed D/(D-1) = {q_lo}")
    return q * D / (q + D)


def trace_exponent(A, B, r: int, p: float) -> float:
    """Trace embedding exponent q = D_r(B) * p / (D(A) - p).

    This is the exponent law of sobolev_exponent with B on the
    r-dimensional trace subspace: A lives on R^d, B has r entries and
    D_r(B) = r + sum B(i).  r = d is admitted; r > d is rejected, and so is
    a fractional r.
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    d = A.dimension
    r = _whole_number("r", r)
    if r < 1 or r > d:
        raise InputError(f"trace dimension r = {r} must satisfy 1 <= r <= d = {d}")
    if B.dimension != r:
        raise InputError(
            f"trace exponent tuple has {B.dimension} entries, expected r = {r}"
        )
    return sobolev_exponent(A, B, p)
