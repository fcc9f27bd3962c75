"""Adaptive Gauss-Kronrod quadrature for radial integrals.

The workhorse is a G7/K15 pair (QUADPACK) with heap-driven bisection: the
panel with the largest error estimate is split until the total estimate
certifies the relative tolerance REL_TOL.

Radial measures rho^gamma d rho are handled by two extra pieces:

* a Gauss-Jacobi head panel on [0, eps] that carries the rho^gamma factor
  in its weight function, so fractional powers near 0 cost nothing (rules
  cached on the exact (n, gamma)), and
* geometric tail extension [R, 2R] for decaying integrands, with
  non-decreasing blocks reported as divergence.

Past the head, ``_power_weighted`` folds the weight into the integrand,
t -> t^gamma g(t), for the body panels and the tail of norms.radial_integral.

Inside a ``_reusing_splits(store)`` scope, which grand sets around each slice
of one sup scan's slice table, ``adaptive_quadrature`` predicts its splits
from the split list that the last converged call on the same (a, b, seeded
edges) recorded in ``store``.  It evaluates the halves of every predicted
split in one ``_k15_panels`` call, then runs the same heap loop, reading each
split's halves from that batch and evaluating a split outside the prediction
pairwise.  Heap order, running sums and the stopping rule do not change, so
every value and error estimate keeps its bits; ``neval`` counts unused
predicted halves too.  A call that exhausts its panel budget records nothing.

The policy is fixed by the module constants: REL_TOL = 1e-10 is the
relative tolerance of every integral, ABS_FLOOR = 1e-300 the absolute floor
under every tolerance and MAX_PANELS = 4096 the default panel budget; the tail
stops once its last block contributes less than TAIL_REL = 1e-12 of the
running total, and raises QuadratureError at radius TAIL_CAP = 2^40.

Integrand callables must accept a 1-d ndarray and return a same-length
ndarray.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import DivergentIntegralError, QuadratureError

REL_TOL = 1e-10
ABS_FLOOR = 1e-300
MAX_PANELS = 4096
TAIL_REL = 1e-12
TAIL_CAP = 2.0**40

# 15-point Kronrod nodes on [-1, 1] (positive half; symmetric)
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node arrays, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

# split lists of converged adaptive_quadrature calls, keyed on their sorted
# edges (a, seeded edges, b); None outside a _reusing_splits scope
_SPLITS: ContextVar[dict | None] = ContextVar("glsobolev_splits", default=None)


@contextmanager
def _reusing_splits(store: dict):
    """Let adaptive_quadrature calls in this scope predict their splits from,
    and record them into, ``store``."""
    token = _SPLITS.set(store)
    try:
        yield
    finally:
        _SPLITS.reset(token)


@dataclass
class QuadratureDiagnostics:
    """Bookkeeping for one integral evaluation."""

    panels: int = 0
    neval: int = 0
    error_estimate: float = 0.0
    rel_error: float = 0.0
    truncation_radius: float | None = None
    converged: bool = True
    notes: list[str] = field(default_factory=list)

    def merge(self, other: "QuadratureDiagnostics") -> None:
        self.panels += other.panels
        self.neval += other.neval
        self.error_estimate += other.error_estimate
        self.rel_error = max(self.rel_error, other.rel_error)
        self.converged = self.converged and other.converged
        if other.truncation_radius is not None:
            prev = self.truncation_radius
            self.truncation_radius = (
                other.truncation_radius
                if prev is None
                else max(prev, other.truncation_radius)
            )
        self.notes.extend(other.notes)

    def to_dict(self) -> dict:
        return {
            "panels": self.panels,
            "neval": self.neval,
            "error-estimate": self.error_estimate,
            "rel-error": self.rel_error,
            "truncation-radius": self.truncation_radius,
            "converged": self.converged,
            "notes": list(self.notes),
        }


def _k15_panels(f, lo: np.ndarray, hi: np.ndarray):
    """Evaluate the G7/K15 pair on a batch of panels.

    ``lo`` and ``hi`` may have any (common) shape; the 15 nodes are reduced
    along a new last axis, so a (k, 2) stack gives each row the bits of a
    two-panel call.  Returns (values, error_estimates) of that shape; the
    error estimate follows the classic (200 |K - G| / resasc)^{3/2}
    rescaling so non-smooth panels are not trusted prematurely.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = c[..., None] + h[..., None] * _NODES
    fx = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    resk = fx @ _WEIGHTS_K
    resg = fx @ _WEIGHTS_G
    reskh = 0.5 * resk
    resasc = np.abs(fx - reskh[..., None]) @ _WEIGHTS_K
    vals = resk * h
    raw = np.abs((resk - resg) * h)
    resasc = resasc * h
    errs = raw.copy()
    mask = (resasc != 0.0) & (raw != 0.0)
    scaled = resasc[mask] * np.minimum(1.0, (200.0 * raw[mask] / resasc[mask]) ** 1.5)
    errs[mask] = scaled
    return vals, errs


def adaptive_quadrature(
    f,
    a: float,
    b: float,
    *,
    max_panels: int = MAX_PANELS,
    initial_edges=None,
    base_value: float = 0.0,
) -> tuple[float, QuadratureDiagnostics]:
    """Integrate f over [a, b] to relative tolerance REL_TOL.

    ``initial_edges`` seeds extra panel boundaries (used to pin down sharp
    interior peaks before the first error estimate is trusted).
    ``base_value`` is added to the integral when converting the relative
    tolerance to an absolute one, so a sub-range can be integrated to a
    tolerance relative to a larger total.
    """
    if not (b > a):
        if b == a:
            return 0.0, QuadratureDiagnostics()
        raise QuadratureError(f"bad interval [{a}, {b}]")
    edges = [a, b]
    if initial_edges is not None:
        edges.extend(x for x in initial_edges if a < x < b)
    edges = sorted(set(edges))
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    vals, errs = _k15_panels(f, lo, hi)
    neval = 15 * len(lo)
    store, key = _SPLITS.get(), tuple(edges)
    predicted = store.get(key, []) if store is not None else []
    if predicted:
        s_lo, s_hi = np.array(predicted).T
        s_mid = 0.5 * (s_lo + s_hi)
        pvals, perrs = _k15_panels(f, np.stack([s_lo, s_mid], 1), np.stack([s_mid, s_hi], 1))
        neval += 30 * len(predicted)
    batch_row = {split: i for i, split in enumerate(predicted)}
    splits = []
    counter = 0
    heap = []
    for i in range(len(lo)):
        heapq.heappush(heap, (-errs[i], counter, lo[i], hi[i], vals[i], errs[i]))
        counter += 1
    total = float(np.sum(vals))
    total_err = float(np.sum(errs))
    floor_err = 0.0  # error stuck on panels too narrow to split
    panels = len(lo)

    def tol_now() -> float:
        return max(REL_TOL * abs(total + base_value), ABS_FLOOR)

    while total_err + floor_err > tol_now() and panels < max_panels and heap:
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if not (pa < mid < pb):
            floor_err += perr
            total_err -= perr
            continue
        row = batch_row.get((pa, pb))
        if row is None:
            cvals, cerrs = _k15_panels(f, np.array([pa, mid]), np.array([mid, pb]))
            neval += 30
        else:
            cvals, cerrs = pvals[row], perrs[row]
        splits.append((float(pa), float(pb)))
        total += float(cvals.sum() - pval)
        total_err += float(cerrs.sum() - perr)
        for j in range(2):
            heapq.heappush(
                heap,
                (-cerrs[j], counter, (pa, mid)[j], (mid, pb)[j], cvals[j], cerrs[j]),
            )
            counter += 1
        panels += 1

    err = total_err + floor_err
    diag = QuadratureDiagnostics(
        panels=panels,
        neval=neval,
        error_estimate=err,
        rel_error=err / max(abs(total + base_value), ABS_FLOOR),
        converged=bool(err <= tol_now()),  # base_value may be a numpy scalar
    )
    if not diag.converged:
        diag.notes.append(f"panel budget {max_panels} exhausted at error {err:.3e}")
    elif store is not None:
        store[key] = splits
    return total, diag


@lru_cache(maxsize=256)
def _jacobi_rule(n: int, gamma_exp: float):
    return roots_jacobi(n, 0.0, gamma_exp)


def _power_weighted(g, gamma_exp: float):
    """The integrand t -> t^gamma_exp g(t), weight folded in."""
    return lambda t: np.asarray(t, dtype=float) ** gamma_exp * np.asarray(g(t), dtype=float)


def _jacobi_head(g, gamma_exp: float, eps: float, n: int) -> float:
    """int_0^eps t^gamma g(t) dt by Gauss-Jacobi (exact in the weight)."""
    x, w = _jacobi_rule(n, gamma_exp)
    t = 0.5 * eps * (1.0 + x)
    gv = np.asarray(g(t), dtype=float)
    return (0.5 * eps) ** (gamma_exp + 1.0) * float(np.dot(w, gv))


def integrate_power_weighted(
    g,
    gamma_exp: float,
    upper: float,
    *,
    initial_edges=None,
) -> tuple[float, QuadratureDiagnostics]:
    """int_0^upper t^gamma_exp g(t) dt with the endpoint weight handled exactly.

    gamma_exp > -1 is required for integrability.  The head panel [0, eps]
    uses a Gauss-Jacobi rule in the weight t^gamma_exp; eps is halved until
    a doubled rule agrees, so sharp structure near 0 cannot hide inside the
    head.  The remainder carries t^gamma_exp folded into the integrand.
    """
    if gamma_exp <= -1.0:
        raise QuadratureError(f"weight exponent {gamma_exp} is not integrable at 0")
    if upper <= 0.0:
        return 0.0, QuadratureDiagnostics()
    if gamma_exp == 0.0:
        return adaptive_quadrature(g, 0.0, upper, initial_edges=initial_edges)
    eps = upper / 256.0
    if initial_edges is not None:
        inner = [x for x in initial_edges if 0.0 < x < upper]
        if inner:
            eps = min(eps, min(inner) / 2.0)
    head = _jacobi_head(g, gamma_exp, eps, 24)
    neval_head = 24
    for _ in range(80):
        check = _jacobi_head(g, gamma_exp, eps, 48)
        neval_head += 48
        if abs(check - head) <= max(REL_TOL * abs(check), ABS_FLOOR):
            head = check
            break
        eps *= 0.5
        head = _jacobi_head(g, gamma_exp, eps, 24)
        neval_head += 24
    else:
        raise QuadratureError("head panel failed to stabilize near 0")
    body, diag = adaptive_quadrature(
        _power_weighted(g, gamma_exp),
        eps,
        upper,
        initial_edges=initial_edges,
        base_value=head,
    )
    diag.neval += neval_head
    diag.panels += 1
    return head + body, diag


def extend_tail(
    f,
    start: float,
    *,
    base_value: float = 0.0,
) -> tuple[float, QuadratureDiagnostics]:
    """Integrate f over [start, R] with R doubled until the tail is spent.

    Stops when the last block [R, 2R] contributes less than ``TAIL_REL`` of
    the running total (including ``base_value``).  Non-decreasing block
    contributions raise DivergentIntegralError; hitting the radius cap with
    a decaying but unspent tail raises QuadratureError.
    """
    if start <= 0.0:
        raise QuadratureError(f"tail start {start} must be positive")
    total = 0.0
    diag = QuadratureDiagnostics(truncation_radius=start)
    radius = start
    contribs: list[float] = []
    while radius < TAIL_CAP:
        block, bdiag = adaptive_quadrature(f, radius, 2.0 * radius, base_value=base_value + total)
        diag.merge(bdiag)
        total += block
        radius *= 2.0
        diag.truncation_radius = radius
        contribs.append(abs(block))
        scale = max(abs(base_value + total), ABS_FLOOR)
        if contribs[-1] < TAIL_REL * scale:
            return total, diag
        if len(contribs) >= 4 and all(
            contribs[-j] >= 0.999 * contribs[-j - 1] for j in range(1, 4)
        ):
            raise DivergentIntegralError(
                f"tail blocks not decaying near R = {radius:.3e}",
                diagnostics=diag.to_dict(),
            )
    diag.converged = False
    diag.notes.append(f"tail not spent at radius cap {TAIL_CAP:.3e}")
    raise QuadratureError(
        f"tail below divergence threshold but unspent at cap {TAIL_CAP:.3e}",
        diagnostics=diag.to_dict(),
    )
