"""Radial test profiles u(|x|) with analytic derivatives.

A profile bundles vectorized callables for u and u' together with a support
descriptor used by the quadrature layer: ``Compact(radius)`` means u
vanishes beyond the radius, ``Decaying(tail_exponent, radius)`` means
|u(rho)| <= c rho^{-tail_exponent} beyond the radius.  Each support also
owns its ``scan_radius``, the end of the window [0, scan_radius] sampled
for peaks and derivative checks: the radius itself for ``Compact``, four
radii for ``Decaying``.  On construction the derivative is spot-checked
against central differences at 32 points of that window so a mistyped
formula fails loudly instead of skewing every norm downstream; the
difference step at rho is 1e-6 (radius + rho), so the check reads every
dilation of a profile alike.  Callers rely on the ``Compact`` contract:
``grand.modulus_of_continuity`` evaluates a compact u only on its support
and takes it to be 0 beyond the radius.

A profile may also declare ``nonincreasing``: u(a) >= u(b) whenever
a <= b.  Like the support it is a fact about u, not a tuning option; every
registered generator declares it, ``dilated()`` and
``dataclasses.replace`` carry it over, and a hand-built profile leaves it
False.  With the derivative check on, a declaration is refused when any of
the 32 sampled derivatives is above 0.  ``grand.modulus_of_continuity``
relies on it to scan a declared u at the full shift only.

The peaks of |u| and |u'| on a 2,049-point grid over the same window are
profile properties, ``value_peak`` and ``derivative_peak``: each is
scanned once per profile object, on first use, and kept on it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DomainError, InputError

_FD_POINTS = 32
_FD_RTOL = 1e-4
_SCAN_POINTS = 2049


@dataclass(frozen=True)
class Compact:
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise InputError(f"compact support radius must be positive, got {self.radius}")

    @property
    def scan_radius(self) -> float:
        """End of the sampled window: u vanishes beyond it."""
        return self.radius


@dataclass(frozen=True)
class Decaying:
    tail_exponent: float
    radius: float = 1.0

    def __post_init__(self):
        if not (self.tail_exponent > 0.0):
            raise InputError(f"tail exponent must be positive, got {self.tail_exponent}")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise InputError(f"decay radius must be positive, got {self.radius}")

    @property
    def scan_radius(self) -> float:
        """End of the sampled window: four decay radii."""
        return 4.0 * self.radius


Support = Union[Compact, Decaying]


def _scan_grid(support: Support) -> np.ndarray:
    return np.linspace(0.0, support.scan_radius, _SCAN_POINTS)


@dataclass(frozen=True)
class Peak:
    """Largest |f| on the scan grid of [0, scan_radius].

    ``rho_star`` is the first grid point where it is attained, ``bracket``
    the grid points either side of it (clipped to the window), and
    ``first_node`` and ``scan_end`` the grid's second and last points.  A
    non-finite sample makes ``value`` non-finite; callers decide whether
    that is an error.
    """

    value: float
    rho_star: float
    bracket: tuple
    first_node: float
    scan_end: float


def _scan_peak(fn: Callable, support: Support) -> Peak:
    grid = _scan_grid(support)
    sample = np.abs(np.asarray(fn(grid), dtype=float))
    i = int(np.argmax(sample))
    return Peak(
        value=float(np.max(sample)),
        rho_star=float(grid[i]),
        bracket=(float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])),
        first_node=float(grid[1]),
        scan_end=float(grid[-1]),
    )


def _as_radial(fn: Callable) -> Callable:
    """Wrap a 1-d vectorized function so scalars come back as floats."""

    def wrapped(r):
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.asarray(fn(arr), dtype=float)
        if np.ndim(r) == 0:
            return float(out[0])
        return out.reshape(np.shape(r))

    return wrapped


@dataclass(frozen=True)
class RadialProfile:
    """u(rho) and u'(rho) on [0, inf) with a declared support.

    ``nonincreasing`` declares that u never increases in rho; when
    ``check`` is on, a sampled u' above 0 refuses the declaration with an
    InputError.  ``dilated()`` and ``dataclasses.replace`` keep it.

    ``value_peak`` and ``derivative_peak`` are scanned on first use and
    kept on this object; ``dilated()`` and ``dataclasses.replace`` build
    new objects, which scan afresh.
    """

    value: Callable = field(compare=False)
    derivative: Callable = field(compare=False)
    support: Support
    name: str = "profile"
    check: bool = field(default=True, repr=False, compare=False)
    nonincreasing: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.check:
            self._check_derivative()

    def _check_derivative(self):
        r_hi = self.support.scan_radius
        rho = np.linspace(r_hi / _FD_POINTS, r_hi * (1.0 - 1.0 / (2 * _FD_POINTS)), _FD_POINTS)
        h = 1e-6 * (self.support.radius + rho)
        fd = (self.value(rho + h) - self.value(rho - h)) / (2.0 * h)
        dv = self.derivative(rho)
        scale = np.maximum(np.abs(dv), 1e-3 * np.max(np.abs(dv)) + 1e-12)
        bad = np.abs(fd - dv) > _FD_RTOL * scale
        if np.any(bad):
            i = int(np.argmax(np.abs(fd - dv) / scale))
            raise InputError(
                f"derivative of profile '{self.name}' disagrees with central "
                f"differences at rho = {rho[i]:.6g}: analytic {dv[i]:.6g}, "
                f"numeric {fd[i]:.6g}"
            )
        if self.nonincreasing and np.any(dv > 0.0):
            i = int(np.argmax(dv > 0.0))
            raise InputError(
                f"profile '{self.name}' is declared non-increasing but "
                f"u'({rho[i]:.6g}) = {dv[i]:.6g} > 0"
            )

    @cached_property
    def value_peak(self) -> Peak:
        """Peak of |u| on the scan grid."""
        return _scan_peak(self.value, self.support)

    @cached_property
    def derivative_peak(self) -> Peak:
        """Peak of |u'| on the scan grid."""
        return _scan_peak(self.derivative, self.support)

    def dilated(self, lam: float) -> "RadialProfile":
        """Profile rho -> u(lam * rho)."""
        if not (lam > 0.0 and math.isfinite(lam)):
            raise InputError(f"dilation factor must be positive, got {lam}")
        u, du = self.value, self.derivative
        return RadialProfile(
            value=_as_radial(lambda r: u(lam * r)),
            derivative=_as_radial(lambda r: lam * du(lam * r)),
            support=replace(self.support, radius=self.support.radius / lam),
            name=f"{self.name}|dilate({lam:g})",
            check=False,
            nonincreasing=self.nonincreasing,
        )


def _positive_finite(generator: str, **params) -> tuple[float, ...]:
    """The values of ``params`` as floats; InputError naming the first
    that is not positive and finite, is subnormal (below
    sys.float_info.min, where 1/value overflows) or has a square below
    sys.float_info.min (where s**2 is 0 and 1/s**2 overflows), and
    OverflowError naming the first whose square overflows."""
    for key, value in params.items():
        if not (value > 0.0 and math.isfinite(value)):
            raise InputError(f"{generator} {key} must be positive and finite, got {value}")
        if value < sys.float_info.min:
            raise InputError(f"{generator} {key} must not be subnormal, got {value}")
        square = float(value) * float(value)
        if square < sys.float_info.min:
            raise InputError(f"{generator} {key} must have a normal square, got {value}, "
                             "whose square underflows")
        if square == math.inf:
            raise OverflowError(f"{generator} {key} = {value}: its square overflows")
    return tuple(float(value) for value in params.values())


def bump(radius: float = 1.0, sharpness: float = 1.0) -> RadialProfile:
    """Smooth compactly supported bump exp(k (1 - 1/(1 - t^2))), t = rho/R."""
    R, k = _positive_finite("bump", radius=radius, sharpness=sharpness)

    def u(r):
        t = r / R
        out = np.zeros_like(t)
        m = t < 1.0
        s = 1.0 - t[m] ** 2
        out[m] = np.exp(k * (1.0 - 1.0 / s))
        return out

    def du(r):
        t = r / R
        out = np.zeros_like(t)
        m = t < 1.0
        s = 1.0 - t[m] ** 2
        out[m] = np.exp(k * (1.0 - 1.0 / s)) * (-2.0 * k * t[m] / s**2) / R
        return out

    return RadialProfile(
        value=_as_radial(u),
        derivative=_as_radial(du),
        support=Compact(R),
        name=f"bump(R={R:g},k={k:g})",
        nonincreasing=True,
    )


def gaussian(scale: float = 1.0) -> RadialProfile:
    """exp(-(rho/s)^2); decays faster than any declared power tail."""
    (s,) = _positive_finite("gaussian", scale=scale)

    def u(r):
        return np.exp(-((r / s) ** 2))

    def du(r):
        return -2.0 * r / s**2 * np.exp(-((r / s) ** 2))

    return RadialProfile(
        value=_as_radial(u),
        derivative=_as_radial(du),
        support=Decaying(tail_exponent=16.0, radius=3.0 * s),
        name=f"gaussian(s={s:g})",
        nonincreasing=True,
    )


def tent(radius: float = 1.0) -> RadialProfile:
    """Piecewise linear max(1 - rho/R, 0); kink at R, so no derivative check."""
    (R,) = _positive_finite("tent", radius=radius)

    def u(r):
        return np.maximum(1.0 - r / R, 0.0)

    def du(r):
        return np.where(r < R, -1.0 / R, 0.0)

    return RadialProfile(
        value=_as_radial(u),
        derivative=_as_radial(du),
        support=Compact(R),
        name=f"tent(R={R:g})",
        check=False,
        nonincreasing=True,
    )


def step(radius: float = 1.0) -> RadialProfile:
    """Indicator of the ball; derivative identically 0 away from the jump."""
    (R,) = _positive_finite("step", radius=radius)

    def u(r):
        return np.where(r < R, 1.0, 0.0)

    def du(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    return RadialProfile(
        value=_as_radial(u),
        derivative=_as_radial(du),
        support=Compact(R),
        name=f"step(R={R:g})",
        check=False,
        nonincreasing=True,
    )


def smoothed_step(radius: float = 1.0, width: float = 0.25) -> RadialProfile:
    """1 on [0, R - w], cosine ramp down to 0 at R; C^1 everywhere."""
    R, w = _positive_finite("smoothed_step", radius=radius, width=width)
    if w > R:
        raise InputError(f"smoothed_step width {w} must not exceed its radius {R}")

    def u(r):
        out = np.ones_like(r)
        out[r >= R] = 0.0
        m = (r > R - w) & (r < R)
        out[m] = 0.5 * (1.0 + np.cos(math.pi * (r[m] - (R - w)) / w))
        return out

    def du(r):
        out = np.zeros_like(r)
        m = (r > R - w) & (r < R)
        out[m] = -0.5 * math.pi / w * np.sin(math.pi * (r[m] - (R - w)) / w)
        return out

    return RadialProfile(
        value=_as_radial(u),
        derivative=_as_radial(du),
        support=Compact(R),
        name=f"smoothed_step(R={R:g},w={w:g})",
        nonincreasing=True,
    )


def power_tail(exponent: float = 3.0, scale: float = 1.0) -> RadialProfile:
    """(1 + (rho/s)^2)^(-exponent/2), asymptotically rho^-exponent.

    Useful for exercising tail truncation and divergence detection: the
    weighted p-norm with effective dimension D is finite iff exponent * p > D.
    """
    e, s = _positive_finite("power_tail", exponent=exponent, scale=scale)

    def u(r):
        return (1.0 + (r / s) ** 2) ** (-e / 2.0)

    def du(r):
        return -e * (r / s**2) * (1.0 + (r / s) ** 2) ** (-e / 2.0 - 1.0)

    return RadialProfile(
        value=_as_radial(u),
        derivative=_as_radial(du),
        support=Decaying(tail_exponent=e, radius=s),
        name=f"power_tail(e={e:g},s={s:g})",
        nonincreasing=True,
    )


def extremal_profile(D: float = 5.0, p: float = 2.0) -> RadialProfile:
    """Optimizer of the sharp embedding at effective dimension D.

    u(rho) = (1 + rho^p')^((p - D)/p) with p' = p/(p - 1); the ratio
    ||u||_q / (C(p) || |u'| ||_p) equals 1 on this profile, up to the
    truncation of its power tail.
    """
    if not (1.0 < p < D):
        raise DomainError(f"need 1 < p < D = {D}, got p = {p}")
    D, p = _positive_finite("extremal", D=D, p=p)
    pp = p / (p - 1.0)
    expo = (p - D) / p

    def u(r):
        return (1.0 + r**pp) ** expo

    def du(r):
        return expo * pp * r ** (pp - 1.0) * (1.0 + r**pp) ** (expo - 1.0)

    tail = pp * (D - p) / p
    return RadialProfile(
        value=_as_radial(u),
        derivative=_as_radial(du),
        support=Decaying(tail_exponent=tail, radius=1.0),
        name=f"extremal(D={D:g},p={p:g})",
        nonincreasing=True,
    )


_GENERATORS = {
    "bump": bump,
    "gaussian": gaussian,
    "tent": tent,
    "step": step,
    "smoothed_step": smoothed_step,
    "power_tail": power_tail,
    "extremal": extremal_profile,
}


def make_profile(generator: str, *params: float) -> RadialProfile:
    """Build a named profile; see ``generator_names()`` for the registry."""
    if generator not in _GENERATORS:
        raise InputError(
            f"unknown profile generator '{generator}'; "
            f"known: {', '.join(sorted(_GENERATORS))}"
        )
    try:
        return _GENERATORS[generator](*params)
    except TypeError as exc:
        raise InputError(f"bad parameters for profile '{generator}': {exc}") from None


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(_GENERATORS))
