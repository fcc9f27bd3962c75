"""Grand Lebesgue space norms and the exponent-law transforms between them.

A grand space is described by a weight psi, continuous and positive on an
interval (a, b) of Lebesgue exponents; the norm is

    ||f||_{G(psi)} = sup_{a < p < b} ||f||_{p, mu} / psi(p),

and its fundamental function is phi(delta) = sup_p delta^(1/p) / psi(p).
The supremum is located on a 64-point geometric grid (in 1/p when b is
infinite) and refined by golden section.  A slice whose tail was proven
divergent (a DivergentIntegralError) makes the whole supremum +inf, which
is reported as a first-class value rather than an error; that is the one
way to +inf.  Any other non-finite slice value, such as the inf of a
power that overflowed, proves nothing: it is an uncertified slice, like
one that raised a QuadratureError.

Every scan runs one protocol from slice to supremum: its objective maps a
1-d array of exponents to one outcome each, a value or the QuadratureError
of that slice.  The 64-point grid is one call, whose slices the slice table
computes in one lockstep batch (norms._slice_rows), each p keeping its own
refinement tree, diagnostics and every bit of a standalone norm; psi is
evaluated once on the whole grid.  The golden-section probes are computed
ahead in batches too: the scan and its lookahead iterate one loop, _golden,
and a probe not yet computed goes in one call with the next SUP_LOOKAHEAD
points that _golden values when run on a model of the objective, which are
bitwise the points the scan asks for whenever the objective orders its
probes as the model does.  The model peaks at the vertex of a parabola
through the best values (Brent's model step) or, with no concave one and
the grid's best point at an end of the grid, at that end, toward which the
objective of a supremum at the edge of its window often rises
monotonically.  A batch of several slices is again one _slice_rows batch;
a lone slice goes through this module's weighted_lp_norm /
weighted_gradient_norm.  A slice's diagnostics merge once, when it is
computed, so they count the work of computed points the loop never probes.

``zeta_transform`` pushes a gradient-side weight forward through the
exponent law q = D p / (D - p) and multiplies in the sharp constant, so
the embedding theorem takes the normalized form ||u||_{G(zeta)} <=
||grad u||_{G(psi)}.  ``morrey_transform`` builds the companion weight
c2 * p / (p - D) * psi(p) used for the continuity-modulus bound.

``tabulated_psi`` interpolates its table with the monotone cubic of
Fritsch and Carlson (PCHIP) in numpy, in the same floating-point operations
as scipy's PchipInterpolator, so a tabulated psi loads no scipy.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .constants import sharp_constant
from .errors import DivergentIntegralError, DomainError, InputError, QuadratureError
from .exponents import (
    ENDPOINT_GUARD,
    as_exponent_tuple,
    sobolev_exponent,
    sobolev_exponent_inverse,
)
from .norms import _slice_rows, weighted_gradient_norm, weighted_lp_norm
from .profiles import Compact, RadialProfile
from .quadrature import QuadratureDiagnostics
from .reports import DEFAULT_SLACK, VerificationReport, _check_report

SUP_GRID_POINTS = 64
SUP_LOOKAHEAD = 12
SUP_REL_TOL = 1e-8

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PsiFunction:
    """Weight p -> psi(p) on the open exponent interval (a, b)."""

    a: float
    b: float
    func: Callable = field(compare=False)
    family: str = "custom"
    params: tuple = ()

    def __post_init__(self):
        # a subnormal a would overflow the 1/p grid of an infinite window
        if not (self.a >= sys.float_info.min and math.isfinite(self.a)):
            raise InputError(
                f"left endpoint must be positive, finite and not subnormal, got {self.a}"
            )
        if not (self.b > self.a):
            raise InputError(f"need a < b, got a = {self.a}, b = {self.b}")
        probe = _exponent_grid(self.a, self.b, 33)
        with np.errstate(all="ignore"):  # the isfinite test below judges every value
            vals = np.asarray(self.func(probe), dtype=float)
        if not np.all(np.isfinite(vals) & (vals > 0.0)):
            raise InputError(
                f"psi ({self.family}) must be positive and finite on ({self.a}, {self.b})"
            )

    def __call__(self, p):
        arr = np.asarray(p, dtype=float)
        outside = ~((arr > self.a) & (arr < self.b))  # nan is outside too
        if np.any(outside):
            raise DomainError(
                f"exponent {arr[outside].flat[0]} outside psi support ({self.a}, {self.b})"
            )
        out = np.asarray(self.func(np.atleast_1d(arr)), dtype=float).reshape(arr.shape)
        return float(out) if arr.ndim == 0 else out

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
    if not b > a:  # before the logs of p_star - a and b - p_star below
        raise InputError(f"need a < b, got a = {a}, b = {b}")
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
    """Monotone cubic interpolation through (p_i, psi_i), normalized to min 1.

    The cubic is Fritsch and Carlson's PCHIP (SIAM J. Numer. Anal. 17, 1980):
    an interior node takes the weighted harmonic mean of its two secant
    slopes, or 0 where they differ in sign or one is 0; an end node takes
    Moler's one-sided three-point slope (pchiptx), limited to keep the
    shape; two nodes give a straight line.  Its values are bitwise those of
    scipy's ``PchipInterpolator(ps, vs, extrapolate=False)``.  Outside
    [p_0, p_n], and at a nan exponent, the weight is +inf.
    """
    ps = np.asarray(exponents, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ps.ndim != 1 or ps.shape != vs.shape or ps.size < 2:
        raise InputError("need matching 1-d arrays with at least 2 nodes")
    if not np.all(np.isfinite(ps)):
        raise InputError(f"exponent nodes must be finite, got {ps.tolist()}")
    if np.any(np.diff(ps) <= 0.0):
        raise InputError("exponent nodes must be strictly increasing")
    if np.any(~np.isfinite(vs) | (vs <= 0.0)):
        raise InputError("tabulated psi values must be positive and finite")
    vs = vs / np.min(vs)
    interp = _pchip(ps, vs)

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


def _pchip_end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point slope at an end node, shape-limited."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y):
    """The PCHIP cubic through (x, y), as a function that is nan off [x_0, x_n].

    Each step is the floating-point operation of scipy's PchipInterpolator
    (its node derivatives, its Hermite coefficients and its evaluation
    c3 + c2 s + c1 s^2 + c0 s^3 in s = p - x_k), in the same order, so the
    values agree bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.empty_like(y)
    if y.size == 2:
        d[:] = m[0]
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]

    def evaluate(p):
        inside = (p >= x[0]) & (p <= x[-1])  # nan is outside too
        k = np.minimum(np.searchsorted(x, p, side="right") - 1, x.size - 2)
        s = np.where(inside, p - x[k], 0.0)
        ss = s * s
        value = ((c3[k] + c2[k] * s) + c1[k] * ss) + c0[k] * (ss * s)
        return np.where(inside, value, np.nan)

    return evaluate


# the keys each psi family's config dict may hold besides "family"
_PSI_KEYS = {
    "constant": ("a", "b"),
    "power-endpoint": ("a", "b", "alpha", "beta"),
    "tabulated": ("nodes", "values"),
}


def _psi_from_spec(spec: dict) -> PsiFunction:
    """Build a psi weight from its config dict, keyed by ``family``.

    A missing family, an unknown one, or a key outside the family's own
    (constant: a and an optional b; power-endpoint: a, b, alpha, beta;
    tabulated: nodes, values) raises InputError naming it.
    """
    if "family" not in spec:
        raise InputError("psi spec is missing key 'family'")
    family = spec["family"]
    if family not in _PSI_KEYS:
        raise InputError(f"unknown psi family '{family}'")
    for key in spec:
        if key != "family" and key not in _PSI_KEYS[family]:
            raise InputError(
                f"psi family '{family}' takes no key {key!r}; "
                f"its keys are {', '.join(_PSI_KEYS[family])}"
            )
    if family == "constant":
        return constant_psi(spec["a"], spec.get("b", math.inf))
    if family == "power-endpoint":
        return power_endpoint_psi(spec["a"], spec["b"], spec["alpha"], spec["beta"])
    return tabulated_psi(spec["nodes"], spec["values"])


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


def _golden(state, value):
    """Golden-section search from ``state`` (lo, hi, x1, x2, f1, f2): bracket,
    inner points x1 < x2 and their values, None where unvalued.  Yields each
    state once ``value(x, state)`` has valued its unvalued points, x1 first;
    stops after the first whose bracket has reached SUP_REL_TOL."""
    while True:
        lo, hi, x1, x2, f1, f2 = state
        if f1 is None:
            f1 = value(x1, state)
        if f2 is None:
            f2 = value(x2, (lo, hi, x1, x2, f1, f2))
        yield lo, hi, x1, x2, f1, f2
        if hi - lo <= SUP_REL_TOL * max(abs(lo), abs(hi)):
            return
        if f1 >= f2:  # keep [lo, x2], whose upper inner point is x1
            state = lo, x2, x2 - _INVPHI * (x2 - lo), x1, None, f1
        else:  # keep [x1, hi], whose lower inner point is x2
            state = x1, hi, x2, x1 + _INVPHI * (hi - x1), f2, None


def _vertex(points) -> float | None:
    """The x of the vertex of the parabola through three (value, x) points,
    or None unless that parabola is concave with a finite vertex."""
    (fa, a), (fb, b), (fc, c) = sorted(points, key=lambda point: point[1])
    if not a < b < c:
        return None
    d1 = (fb - fa) / (b - a)
    curvature = ((fc - fb) / (c - b) - d1) / (c - a)
    if not curvature < 0.0:
        return None
    x = 0.5 * (a + b) - d1 / (2.0 * curvature)
    return x if math.isfinite(x) else None


def _golden_path(state, peak: float) -> list:
    """The points ``_golden`` values from ``state`` on, its unvalued points
    first, when the objective is the model -|x - peak|: up to SUP_LOOKAHEAD
    after the first, fewer where the bracket closes."""
    path = []

    def model(x, _state) -> float:
        path.append(x)
        return -abs(x - peak)

    lo, hi, x1, x2, f1, f2 = state
    f1 = None if f1 is None else -abs(x1 - peak)
    f2 = None if f2 is None else -abs(x2 - peak)
    for _ in _golden((lo, hi, x1, x2, f1, f2), model):
        if len(path) > SUP_LOOKAHEAD:
            break
    return path


def _scan_sup(objective, a: float, b: float) -> SupremumResult:
    """Grid scan plus golden-section refinement of sup objective(p).

    ``objective`` maps a 1-d float array of exponents to one outcome per
    exponent: its value, or the QuadratureError its slice raised.  The
    64-point grid is one call; the refinement iterates ``_golden`` with
    ``probe`` valuing its points, for at most 200 states.  A golden probe not
    yet computed is the first point of a call that also holds the points
    ``_golden`` values next when run on the model -|x - x^| (``_golden_path``),
    x^ the vertex of the parabola through the three best finite values
    settled so far.  With fewer than three, or a parabola that is not
    concave, x^ is the grid's best point when that point is the first or
    last of the grid (the end cell, where an objective monotone toward the
    window's edge takes exactly that path), and otherwise the probe goes
    alone.  ``settle`` turns an outcome into a number when the loop probes
    it, never before: only a DivergentIntegralError makes the supremum +inf.
    A slice that fails certification (a QuadratureError or a non-finite
    value) is tolerated only if another slice proved divergence; otherwise
    the error is re-raised once the scan finishes, since an uncertified
    slice could hide the true supremum.
    """
    pending: list[QuadratureError] = []

    def settle(v) -> float:
        if isinstance(v, DivergentIntegralError):
            return math.inf
        if not isinstance(v, QuadratureError):
            if math.isfinite(v := float(v)):
                return v
            v = QuadratureError(f"value {v} is not finite and proves no divergence")
        pending.append(v)
        return -math.inf

    grid = _exponent_grid(a, b, SUP_GRID_POINTS)
    vals = np.array([settle(v) for v in objective(grid)])
    i = int(np.argmax(vals))
    if math.isinf(vals[i]) and vals[i] > 0:
        return SupremumResult(math.inf, float(grid[i]), False, diverged=True)
    if pending:
        raise QuadratureError(
            f"{len(pending)} of {len(grid)} slices could not be certified "
            f"(first: {pending[0]})"
        )
    seen = [(v, x) for v, x in zip(vals.tolist(), grid.tolist()) if math.isfinite(v)]
    known: dict = {}  # golden point -> its outcome, probed or not
    at_boundary = i in (0, len(grid) - 1)

    def probe(x: float, state) -> float:
        if x not in known:
            peak = _vertex(heapq.nlargest(3, seen)) if len(seen) >= 3 else None
            if peak is None and at_boundary:
                peak = float(grid[i])
            ahead = _golden_path(state, peak) if peak is not None else []
            batch = [y for y in dict.fromkeys([x, *ahead]) if y not in known]
            known.update(zip(batch, objective(np.array(batch))))
        v = settle(known[x])
        if math.isfinite(v):
            seen.append((v, x))
        return v

    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    best_x, best_v = float(grid[i]), float(vals[i])
    start = (lo, hi, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo), None, None)
    for _, (_, _, x1, x2, f1, f2) in zip(range(200), _golden(start, probe)):
        for x, v in ((x1, f1), (x2, f2)):
            if math.isinf(v) and v > 0:
                return SupremumResult(math.inf, x, False, diverged=True)
            if v > best_v:
                best_x, best_v = x, v
    if pending:
        raise QuadratureError(f"refinement hit an uncertified slice (first: {pending[0]})")
    return SupremumResult(best_v, best_x, at_boundary)


class _SliceTable:
    """p -> slice norm of u (of |u'| with ``gradient``) for one grand call.

    ``outcomes(ps)`` gives per p its value or the QuadratureError of its
    slice; a DomainError raises.  Each p is computed once: several missing p
    in one lockstep batch (norms._slice_rows), a lone one by this module's
    weighted_lp_norm or weighted_gradient_norm, both looked up at call time
    so wrappers see each such slice.  Either way a slice has the value,
    diagnostics and neval of a standalone call.  A slice's diagnostics
    merge into ``diag`` once, when it is computed, in the order of ``ps``.
    """

    def __init__(self, gradient: bool, u, A, diag: QuadratureDiagnostics):
        self.gradient, self.u, self.A, self.diag = gradient, u, A, diag
        self.known: dict = {}  # p -> value or QuadratureError

    def outcomes(self, ps) -> list:
        missing = [p for p in dict.fromkeys(ps) if p not in self.known]
        if len(missing) > 1:
            computed = _slice_rows(self.u, self.gradient, self.A, missing)
        else:
            computed = [self._alone(p) for p in missing]
        for p, outcome in zip(missing, computed):
            if isinstance(outcome, DomainError):
                raise outcome
            if not isinstance(outcome, QuadratureError):
                outcome, slice_diag = outcome
                self.diag.merge(slice_diag)
            self.known[p] = outcome
        return [self.known[p] for p in ps]

    def _alone(self, p):
        norm_fn = weighted_gradient_norm if self.gradient else weighted_lp_norm
        try:
            return norm_fn(self.u, self.A, float(p), details=True)
        except QuadratureError as exc:
            return exc


def _over_psi(slices: _SliceTable, psi: PsiFunction):
    """The objective ps -> slice(p) / psi(p), psi evaluated once on ps."""
    return lambda ps: [
        v if isinstance(v, QuadratureError) else v / w
        for v, w in zip(slices.outcomes(ps), psi(ps))
    ]


def _gls(gradient: bool, u, psi: PsiFunction, A, details: bool):
    """sup_p || u ||_{p, A} / psi(p), or of |u'| with ``gradient``: the body
    of gls_norm and gls_gradient_norm."""
    A = as_exponent_tuple(A)
    if psi.a < 1.0:
        raise InputError(f"psi support must start at p >= 1, got {psi.a}")
    diag = QuadratureDiagnostics()
    slices = _SliceTable(gradient, u, A, diag)
    res = replace(_scan_sup(_over_psi(slices, psi), psi.a, psi.b), quadrature=diag)
    return (res.value, res) if details else res.value


def gls_norm(
    u: RadialProfile,
    psi: PsiFunction,
    A,
    *,
    details: bool = False,
):
    """Grand norm sup_p ||u||_{p, A} / psi(p) over the support of psi.

    Returns +inf (flagged in the SupremumResult) when the tail of some
    slice norm was proven divergent.  With ``details`` the SupremumResult
    carries the quadrature diagnostics merged over every slice.
    """
    return _gls(False, u, psi, A, details)


def gls_gradient_norm(
    u: RadialProfile,
    psi: PsiFunction,
    A,
    *,
    details: bool = False,
):
    """Grand norm of |grad u|: sup_p || |u'| ||_{p, A} / psi(p)."""
    return _gls(True, u, psi, A, details)


def _check_delta(delta: float, D: float = 1.0) -> float:
    """delta**D; DomainError unless delta and delta**D are positive and finite."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be positive and finite, got {delta}")
    try:
        measure = delta**D
    except OverflowError:  # a float power raises here instead of giving inf
        measure = math.inf
    if not 0.0 < measure < math.inf:
        raise DomainError(f"delta^D must be positive and finite, got delta = {delta}, D = {D}")
    return measure


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
    log_delta = math.log(_check_delta(delta))

    def objective(ps):
        return [math.exp(log_delta / p) / w for p, w in zip(ps, psi(ps))]

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
        ps = [
            min(max(sobolev_exponent_inverse(A, float(qi)), p_lo), p_hi)
            for qi in np.atleast_1d(np.asarray(q, dtype=float))
        ]
        return np.array([sharp_constant(A, pi, variant=variant) for pi in ps]) * psi(np.array(ps))

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
    details: bool = False,
    gradient: SupremumResult | None = None,
):
    """Upper bound on the two-point modulus |u(x) - u(y)| for |x - y| <= delta.

    bound = ||grad u||_{G(psi)} * delta / phi_{G(psi_D)}(delta^D), where
    psi_D is the morrey transform with calibration constant c2.  The
    gradient norm does not depend on delta or c2: pass ``gradient``, the
    SupremumResult of ``gls_gradient_norm(u, psi, A, details=True)``, to
    reuse one across calls; with None it is computed here.  With
    ``details`` the info dict also holds, under ``quadrature``, the
    QuadratureDiagnostics of the gradient norm's slices (the object
    ``gradient`` carries, shared and not copied).
    """
    A = as_exponent_tuple(A)
    measure = _check_delta(delta, A.effective_dimension)
    psi_d = morrey_transform(psi, A, c2)
    if gradient is None:
        _, gradient = gls_gradient_norm(u, psi, A, details=True)
    grad = gradient.value
    phi, phi_res = fundamental_function(psi_d, measure, details=True)
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
    delta * j / 16, j = 1, ..., 16.  By the ``Compact`` contract (u is 0
    beyond the radius) a compact u is evaluated only on its support: a pair
    whose shifted point lies past it contributes |u| at the grid point, so
    the value keeps every bit of the full scan.  For a ``nonincreasing`` u,
    omega(delta) = sup_r u(r) - u(r + delta), so only the shift j = 16 runs.
    """
    _check_delta(delta)
    if isinstance(u.support, Compact):
        end = u.support.radius
        r_hi = end + delta
    else:
        end = math.inf
        r_hi = 32.0 * u.support.radius + delta
    grid = np.linspace(0.0, r_hi, 4096)
    n = int(np.searchsorted(grid, end, side="right"))
    base = np.zeros_like(grid)
    base[:n] = u.value(grid[:n])
    # beyond_max[i]: max |u| over grid points from index i on, 0 past the grid
    beyond_max = np.append(np.maximum.accumulate(np.abs(base)[::-1])[::-1], 0.0)
    best = 0.0
    for j in (16,) if u.nonincreasing else range(1, 17):
        shifted = grid + delta * j / 16
        m = int(np.searchsorted(shifted, end, side="right"))
        near = np.abs(np.asarray(u.value(shifted[:m]), dtype=float) - base[:m])
        best = max(best, float(np.max(near, initial=beyond_max[m])))
    return best


def calibrate_morrey_constant(
    profiles,
    psi: PsiFunction,
    A,
    deltas,
    *,
    gradients=None,
    moduli=None,
) -> float:
    """Smallest c2 for which every sampled modulus sits below the bound.

    Returns max over the battery of omega(u, delta) / bound(c2 = 1),
    rounded up by one ulp so the certified comparisons hold under
    floating-point rounding.  The gradient grand norm of each profile is
    computed once for all deltas; ``gradients``, one SupremumResult of
    ``gls_gradient_norm(u, psi, A, details=True)`` per profile in order,
    supplies them instead; likewise ``moduli``, one list per profile of
    ``modulus_of_continuity(u, delta)`` for each delta in order, supplies
    the sampled moduli.  Raises QuadratureError when a gradient slice
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
    if moduli is None:
        moduli = ([modulus_of_continuity(u, delta) for delta in deltas] for u in profiles)
    elif len(moduli) != len(profiles) or any(len(row) != len(deltas) for row in moduli):
        raise InputError("need one sampled modulus per profile and delta")
    worst = 0.0
    for u, gradient, omegas in zip(profiles, gradients, moduli):
        for delta, omega in zip(deltas, omegas):
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
    gradient = _SliceTable(True, u, A, diag)
    rhs_res = _scan_sup(_over_psi(gradient, psi), psi.a, psi.b)
    lhs, lhs_res = _gls(False, u, zeta, A, True)
    diag.merge(lhs_res.quadrature)
    lp = _SliceTable(False, u, A, diag)

    def slice_objective(ps):
        # a gradient slice is read only where its lp slice succeeded
        nums = lp.outcomes([sobolev_exponent(A, A, p) for p in ps])
        good = [p for p, num in zip(ps, nums) if not isinstance(num, QuadratureError)]
        dens = dict(zip(good, gradient.outcomes(good)))
        return [slice_ratio(p, num, dens.get(p, num)) for p, num in zip(ps, nums)]

    def slice_ratio(p: float, num, den):
        """num / (C(p) den), or the error of a failed slice standing as den."""
        if isinstance(den, QuadratureError):
            return den
        c = sharp_constant(A, p, variant=variant)
        return num / (c * den) if den > 0.0 else math.nan

    slice_res = _scan_sup(slice_objective, psi.a, min(psi.b, D))

    extra = {
        "slice-ratio-sup": slice_res.value,
        "slice-argmax": slice_res.argmax,
        "lhs-argmax": lhs_res.argmax,
        "rhs-argmax": rhs_res.argmax,
        "lhs-at-boundary": lhs_res.at_boundary,
        "rhs-at-boundary": rhs_res.at_boundary,
    }
    return _check_report(
        "gls-5.6", "gls-embedding", u, A, lhs, rhs_res.value, 1.0, diag, extra,
        slack=slack, tolerances={"sup-rel-tol": SUP_REL_TOL}, psi=psi.describe(), variant=variant,
    )
