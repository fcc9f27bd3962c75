"""Grand Lebesgue space norms and the exponent-law transforms between them.

A grand space is described by a weight psi, continuous and positive on an
interval (a, b) of Lebesgue exponents; the norm is

    ||f||_{G(psi)} = sup_{a < p < b} ||f||_{p, mu} / psi(p),

and its fundamental function is phi(delta) = sup_p delta^(1/p) / psi(p).
The supremum is located on a 64-point geometric grid (in 1/p when b is
infinite) and refined by golden section; a divergent slice norm makes the
whole supremum +inf, which is reported as a first-class value rather than
an error.

``zeta_transform`` pushes a gradient-side weight forward through the
exponent law q = D p / (D - p) and multiplies in the sharp constant, so
the embedding theorem takes the normalized form ||u||_{G(zeta)} <=
||grad u||_{G(psi)}.  ``morrey_transform`` builds the companion weight
c2 * p / (p - D) * psi(p) used for the continuity-modulus bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .constants import sharp_constant
from .errors import DivergentIntegralError, DomainError, InputError, QuadratureError
from .exponents import (
    ENDPOINT_GUARD,
    as_exponent_tuple,
    sobolev_exponent,
    sobolev_exponent_inverse,
)
from .norms import weighted_gradient_norm, weighted_lp_norm
from .profiles import Compact, RadialProfile
from .quadrature import DEFAULT_REL_TOL, QuadratureDiagnostics
from .reports import DEFAULT_SLACK, VerificationReport

SUP_GRID_POINTS = 64
SUP_REL_TOL = 1e-8


@dataclass(frozen=True)
class PsiFunction:
    """Weight p -> psi(p) on the open exponent interval (a, b)."""

    a: float
    b: float
    func: Callable = field(compare=False)
    family: str = "custom"
    params: tuple = ()

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise InputError(f"left endpoint must be positive and finite, got {self.a}")
        if not (self.b > self.a):
            raise InputError(f"need a < b, got a = {self.a}, b = {self.b}")
        probe = _exponent_grid(self.a, self.b, 33)
        vals = np.asarray(self.func(probe), dtype=float)
        if not np.all(np.isfinite(vals) & (vals > 0.0)):
            raise InputError(
                f"psi ({self.family}) must be positive and finite on ({self.a}, {self.b})"
            )

    def __call__(self, p):
        arr = np.atleast_1d(np.asarray(p, dtype=float))
        if np.any(arr <= self.a) or np.any(arr >= self.b):
            raise DomainError(
                f"exponent outside psi support ({self.a}, {self.b})"
            )
        out = np.asarray(self.func(arr), dtype=float)
        if np.ndim(p) == 0:
            return float(out[0])
        return out.reshape(np.shape(p))

    def describe(self) -> dict:
        return {
            "family": self.family,
            "a": self.a,
            "b": self.b,
            "params": [list(pair) for pair in self.params],
        }


def constant_psi(a: float, b: float) -> PsiFunction:
    """psi identically 1; the grand norm is then sup_p ||f||_p."""
    return PsiFunction(a=float(a), b=float(b), func=lambda p: np.ones_like(p), family="constant")


def power_endpoint_psi(a: float, b: float, alpha: float, beta: float) -> PsiFunction:
    """psi blowing up like (p - a)^-alpha and (b - p)^-beta, normalized to min 1.

    With one exponent 0 the infimum 1 is approached at that open end.
    """
    a, b = float(a), float(b)
    alpha, beta = float(alpha), float(beta)
    if not math.isfinite(b):
        raise InputError("power-endpoint weight needs a finite right endpoint")
    if alpha < 0.0 or beta < 0.0:
        raise InputError("endpoint exponents must be nonnegative")
    if alpha == 0.0 and beta == 0.0:
        return constant_psi(a, b)
    p_star = (alpha * b + beta * a) / (alpha + beta)
    log_min = 0.0
    if alpha > 0.0:
        log_min -= alpha * math.log(p_star - a)
    if beta > 0.0:
        log_min -= beta * math.log(b - p_star)

    def func(p):
        p = np.asarray(p, dtype=float)
        return np.exp(
            -alpha * np.log(p - a) - beta * np.log(b - p) - log_min
        )

    return PsiFunction(
        a=a,
        b=b,
        func=func,
        family="power-endpoint",
        params=(("alpha", alpha), ("beta", beta)),
    )


def tabulated_psi(exponents, values) -> PsiFunction:
    """Monotone cubic interpolation through (p_i, psi_i), normalized to min 1."""
    ps = np.asarray(exponents, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ps.ndim != 1 or ps.shape != vs.shape or ps.size < 2:
        raise InputError("need matching 1-d arrays with at least 2 nodes")
    if np.any(np.diff(ps) <= 0.0):
        raise InputError("exponent nodes must be strictly increasing")
    if np.any(~np.isfinite(vs) | (vs <= 0.0)):
        raise InputError("tabulated psi values must be positive and finite")
    vs = vs / np.min(vs)
    interp = PchipInterpolator(ps, vs, extrapolate=False)

    def func(p):
        out = interp(np.asarray(p, dtype=float))
        return np.nan_to_num(out, nan=np.inf)

    return PsiFunction(
        a=float(ps[0]),
        b=float(ps[-1]),
        func=func,
        family="tabulated",
        params=(("nodes", tuple(float(x) for x in ps)), ("values", tuple(float(x) for x in vs))),
    )


def _psi_from_spec(spec: dict) -> PsiFunction:
    """Build a psi weight from its config dict, keyed by ``family``."""
    family = spec.get("family", "constant")
    if family == "constant":
        return constant_psi(spec["a"], spec.get("b", math.inf))
    if family == "power-endpoint":
        return power_endpoint_psi(spec["a"], spec["b"], spec["alpha"], spec["beta"])
    if family == "tabulated":
        return tabulated_psi(spec["nodes"], spec["values"])
    raise InputError(f"unknown psi family '{family}'")


def _exponent_grid(a: float, b: float, n: int) -> np.ndarray:
    """Geometric probe grid strictly inside (a, b); 1/p spacing when b = inf."""
    if math.isinf(b):
        t_hi = (1.0 - 1e-8) / a
        t_lo = min(1e-8, t_hi * 1e-4)
        return np.sort(1.0 / np.geomspace(t_lo, t_hi, n))
    eps = max(1e-8, 1e-8 * (b - a))
    lo, hi = a + eps, b - eps
    if not lo < hi:
        raise InputError(f"exponent interval ({a}, {b}) too narrow to probe")
    return np.geomspace(lo, hi, n)


@dataclass(frozen=True)
class SupremumResult:
    """Located supremum of an objective over an exponent interval."""

    value: float
    argmax: float
    at_boundary: bool
    diverged: bool = False
    quadrature: QuadratureDiagnostics = field(default_factory=QuadratureDiagnostics)


def _scan_sup(objective, a: float, b: float) -> SupremumResult:
    """Grid scan plus golden-section refinement of sup objective(p).

    DivergentIntegralError from a slice makes the supremum +inf.  A slice
    that merely fails certification (QuadratureError) is tolerated only if
    some other slice proved divergence; otherwise the error is re-raised
    once the scan finishes, since an uncertified slice could hide the true
    supremum.
    """
    pending: list[QuadratureError] = []

    def safe(p: float) -> float:
        try:
            v = float(objective(p))
        except DivergentIntegralError:
            return math.inf
        except QuadratureError as exc:
            pending.append(exc)
            return -math.inf
        return v if not math.isnan(v) else -math.inf

    grid = _exponent_grid(a, b, SUP_GRID_POINTS)
    vals = np.array([safe(p) for p in grid])
    i = int(np.argmax(vals))
    if math.isinf(vals[i]) and vals[i] > 0:
        return SupremumResult(math.inf, float(grid[i]), False, diverged=True)
    if pending:
        raise QuadratureError(
            f"{len(pending)} of {len(grid)} slices could not be certified "
            f"(first: {pending[0]})"
        )
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    best_x, best_v = float(grid[i]), float(vals[i])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = safe(x1), safe(x2)
    for _ in range(200):
        for x, v in ((x1, f1), (x2, f2)):
            if math.isinf(v) and v > 0:
                return SupremumResult(math.inf, x, False, diverged=True)
            if v > best_v:
                best_x, best_v = x, v
        if hi - lo <= SUP_REL_TOL * max(abs(lo), abs(hi)):
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = safe(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = safe(x2)
    if pending:
        raise QuadratureError(
            f"refinement hit an uncertified slice (first: {pending[0]})"
        )
    return SupremumResult(
        value=best_v,
        argmax=best_x,
        at_boundary=i in (0, len(grid) - 1),
        diverged=False,
    )


def _slice_table(norm_fn, u, A, rel_tol: float, diag: QuadratureDiagnostics):
    """p -> norm_fn(u, A, p) for one grand call, each p computed once and its
    diagnostics merged once into ``diag``.  ``norm_fn`` is this module's
    weighted_lp_norm or weighted_gradient_norm as the caller looks it up, so
    wrappers of either see every computed slice."""
    values: dict[float, float] = {}

    def slice_norm(p: float) -> float:
        if p not in values:
            value, slice_diag = norm_fn(u, A, p, rel_tol=rel_tol, details=True)
            diag.merge(slice_diag)
            values[p] = value
        return values[p]

    return slice_norm


def _gls(norm_fn, u, psi: PsiFunction, A, rel_tol: float, details: bool):
    """sup_p norm_fn(u, A, p) / psi(p): the body of gls_norm and gls_gradient_norm."""
    A = as_exponent_tuple(A)
    if psi.a < 1.0:
        raise InputError(f"psi support must start at p >= 1, got {psi.a}")
    diag = QuadratureDiagnostics()
    slices = _slice_table(norm_fn, u, A, rel_tol, diag)
    res = replace(_scan_sup(lambda p: slices(p) / psi(p), psi.a, psi.b), quadrature=diag)
    return (res.value, res) if details else res.value


def gls_norm(
    u: RadialProfile,
    psi: PsiFunction,
    A,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    details: bool = False,
):
    """Grand norm sup_p ||u||_{p, A} / psi(p) over the support of psi.

    Returns +inf (flagged in the SupremumResult) when some slice norm
    diverges.  With ``details`` the SupremumResult carries the quadrature
    diagnostics merged over every slice.
    """
    return _gls(weighted_lp_norm, u, psi, A, rel_tol, details)


def gls_gradient_norm(
    u: RadialProfile,
    psi: PsiFunction,
    A,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    details: bool = False,
):
    """Grand norm of |grad u|: sup_p || |u'| ||_{p, A} / psi(p)."""
    return _gls(weighted_gradient_norm, u, psi, A, rel_tol, details)


def fundamental_function(
    psi: PsiFunction,
    delta: float,
    *,
    details: bool = False,
):
    """phi(delta) = sup_p delta^(1/p) / psi(p).

    This is the grand norm of the indicator of a set of measure delta, so
    it is nondecreasing in delta and scales the Morrey continuity bound.
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be positive and finite, got {delta}")
    log_delta = math.log(delta)

    def objective(p: float) -> float:
        return math.exp(log_delta / p) / psi(p)

    res = _scan_sup(objective, psi.a, psi.b)
    return (res.value, res) if details else res.value


def zeta_transform(psi: PsiFunction, A, variant: str = "corrected") -> PsiFunction:
    """Push psi through the exponent law and weight by the sharp constant.

    The result zeta(q) = C(p(q)) psi(p(q)), with p(q) = q D / (q + D), lives
    on the image interval (q(a), q(b)); q(b) is infinite when b lies within
    ENDPOINT_GUARD of the effective dimension.  With this weight the
    embedding reads ||u||_{G(zeta)} <= ||grad u||_{G(psi)} with constant
    exactly 1.
    """
    A = as_exponent_tuple(A)
    D = A.effective_dimension
    if psi.a < 1.0:
        raise InputError(f"gradient-side support must start at p >= 1, got {psi.a}")
    if psi.b > D + ENDPOINT_GUARD:
        raise InputError(
            f"gradient-side support must end at or below the effective "
            f"dimension {D}, got b = {psi.b}"
        )
    q_lo = sobolev_exponent(A, A, psi.a)
    q_hi = math.inf if D - psi.b < ENDPOINT_GUARD else sobolev_exponent(A, A, psi.b)
    p_lo = math.nextafter(psi.a, math.inf)
    p_hi = math.nextafter(psi.b, -math.inf)

    def func(q):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        out = np.empty_like(q)
        for i, qi in enumerate(q):
            pi = min(max(sobolev_exponent_inverse(A, float(qi)), p_lo), p_hi)
            out[i] = sharp_constant(A, pi, variant=variant) * psi(pi)
        return out

    return PsiFunction(
        a=q_lo,
        b=q_hi,
        func=func,
        family="zeta",
        params=(
            ("source-family", psi.family),
            ("A", A.entries),
            ("variant", variant),
        ),
    )


def morrey_transform(psi: PsiFunction, A, c2: float = 1.0) -> PsiFunction:
    """Companion weight c2 * p / (p - D) * psi(p) for supercritical psi.

    Requires the whole support of psi to sit above the effective dimension
    D, where single-exponent embeddings control the continuity modulus.
    """
    A = as_exponent_tuple(A)
    D = A.effective_dimension
    if not (c2 > 0.0 and math.isfinite(c2)):
        raise InputError(f"c2 must be positive and finite, got {c2}")
    if psi.a <= D + ENDPOINT_GUARD:
        raise InputError(
            f"continuity bound needs the psi support above the effective "
            f"dimension {D}, got a = {psi.a}"
        )

    def func(p):
        p = np.asarray(p, dtype=float)
        return c2 * p / (p - D) * np.asarray(psi.func(p), dtype=float)

    return PsiFunction(
        a=psi.a,
        b=psi.b,
        func=func,
        family="morrey",
        params=(("source-family", psi.family), ("A", A.entries), ("c2", float(c2))),
    )


def morrey_bound(
    u: RadialProfile,
    psi: PsiFunction,
    A,
    delta: float,
    *,
    c2: float = 1.0,
    rel_tol: float = DEFAULT_REL_TOL,
    details: bool = False,
    gradient: SupremumResult | None = None,
):
    """Upper bound on the two-point modulus |u(x) - u(y)| for |x - y| <= delta.

    bound = ||grad u||_{G(psi)} * delta / phi_{G(psi_D)}(delta^D), where
    psi_D is the morrey transform with calibration constant c2.  The
    gradient norm does not depend on delta or c2: pass ``gradient``, the
    SupremumResult of ``gls_gradient_norm(u, psi, A, rel_tol=rel_tol,
    details=True)``, to reuse one across calls; with None it is computed
    here.  With ``details`` the info dict also holds, under ``quadrature``,
    the QuadratureDiagnostics of the gradient norm's slices (the object
    ``gradient`` carries, shared and not copied).
    """
    A = as_exponent_tuple(A)
    D = A.effective_dimension
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be positive and finite, got {delta}")
    psi_d = morrey_transform(psi, A, c2)
    if gradient is None:
        _, gradient = gls_gradient_norm(u, psi, A, rel_tol=rel_tol, details=True)
    grad = gradient.value
    phi, phi_res = fundamental_function(psi_d, delta**D, details=True)
    bound = grad * delta / phi
    if details:
        return bound, {
            "gradient-gls-norm": grad,
            "gradient-argmax": gradient.argmax,
            "fundamental-value": phi,
            "fundamental-argmax": phi_res.argmax,
            "quadrature": gradient.quadrature,
        }
    return bound


def modulus_of_continuity(u: RadialProfile, delta: float) -> float:
    """Sampled two-point modulus sup {|u(x) - u(y)| : |x - y| <= delta}.

    For radial u every achievable value pair occurs along a single ray, so
    the scan runs over a 4096-point radial grid shifted by the 16 offsets
    delta * j / 16, j = 1, ..., 16.
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be positive and finite, got {delta}")
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


def calibrate_morrey_constant(
    profiles,
    psi: PsiFunction,
    A,
    deltas,
    *,
    gradients=None,
) -> float:
    """Smallest c2 for which every sampled modulus sits below the bound.

    Returns max over the battery of omega(u, delta) / bound(c2 = 1),
    rounded up by one ulp so the certified comparisons hold under
    floating-point rounding.  The gradient grand norm of each profile is
    computed once for all deltas; ``gradients``, one SupremumResult of
    ``gls_gradient_norm(u, psi, A, details=True)`` per profile in order,
    supplies them instead.  Raises QuadratureError when a gradient slice
    behind some unit bound is not certified.
    """
    profiles = list(profiles)
    if gradients is None:
        gradients = (gls_gradient_norm(u, psi, A, details=True)[1] for u in profiles)
    elif len(gradients) != len(profiles):
        raise InputError(
            f"need one gradient norm per profile, got {len(gradients)} "
            f"for {len(profiles)} profiles"
        )
    worst = 0.0
    for u, gradient in zip(profiles, gradients):
        for delta in deltas:
            omega = modulus_of_continuity(u, delta)
            unit, info = morrey_bound(
                u, psi, A, delta, c2=1.0, details=True, gradient=gradient
            )
            if not info["quadrature"].converged:
                raise QuadratureError(
                    f"unit bound for profile '{u.name}' at delta = {delta} "
                    f"rests on an unconverged gradient slice"
                )
            if unit <= 0.0 or not math.isfinite(unit):
                raise InputError(
                    f"degenerate unit bound {unit} for profile '{u.name}'"
                )
            worst = max(worst, omega / unit)
    return float(np.nextafter(worst, math.inf))


def verify_gls_sobolev(
    u: RadialProfile,
    psi: PsiFunction,
    A,
    *,
    variant: str = "corrected",
    slack: float = DEFAULT_SLACK,
    rel_tol: float = DEFAULT_REL_TOL,
) -> VerificationReport:
    """Check ||u||_{G(zeta)} <= ||grad u||_{G(psi)} on one profile.

    Besides the two grand norms the report carries ``slice-ratio-sup``, the
    supremum over p of ||u||_{q(p)} / (C(p) || |u'| ||_p).  The psi weight
    cancels slice by slice, so that number is exactly dilation invariant
    and is the sharp content of the embedding; the headline ratio of the
    two suprema is bounded by it.
    """
    A = as_exponent_tuple(A)
    D = A.effective_dimension
    zeta = zeta_transform(psi, A, variant=variant)

    # The slice scan reads the rhs scan's gradient table (their windows agree
    # when b <= D); diagnostics merge in the order rhs, lhs, slice scan.
    diag = QuadratureDiagnostics()
    gradient = _slice_table(weighted_gradient_norm, u, A, rel_tol, diag)
    rhs_res = _scan_sup(lambda p: gradient(p) / psi(p), psi.a, psi.b)
    lhs, lhs_res = _gls(weighted_lp_norm, u, zeta, A, rel_tol, True)
    diag.merge(lhs_res.quadrature)
    lp = _slice_table(weighted_lp_norm, u, A, rel_tol, diag)

    def slice_objective(p: float) -> float:
        num = lp(sobolev_exponent(A, A, p))
        den = gradient(p)
        c = sharp_constant(A, p, variant=variant)
        return num / (c * den) if den > 0.0 else math.nan

    slice_res = _scan_sup(slice_objective, psi.a, min(psi.b, D))

    return VerificationReport(
        inequality_id="gls-5.6",
        lhs=lhs,
        rhs=rhs_res.value,
        constant=1.0,
        inputs={
            "check": "gls-embedding",
            "profile": u.name,
            "A": list(A.entries),
            "psi": psi.describe(),
            "variant": variant,
            "slack": slack,
        },
        tolerances={"slack": slack, "sup-rel-tol": SUP_REL_TOL, "quad-rel-tol": rel_tol},
        quadrature=diag.to_dict(),
        extra={
            "slice-ratio-sup": slice_res.value,
            "slice-argmax": slice_res.argmax,
            "lhs-argmax": lhs_res.argmax,
            "rhs-argmax": rhs_res.argmax,
            "lhs-at-boundary": lhs_res.at_boundary,
            "rhs-at-boundary": rhs_res.at_boundary,
        },
        slack=slack,
    )
