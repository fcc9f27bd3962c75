"""Adaptive Gauss-Kronrod quadrature for radial integrals.

The workhorse is a G7/K15 pair (QUADPACK) with heap-driven bisection: the
panel with the largest error estimate is split until the total estimate
certifies the relative tolerance REL_TOL.

Radial measures rho^gamma d rho are handled by two extra pieces:

* a Gauss-Jacobi head panel on [0, eps] that carries the rho^gamma factor
  in its weight function, so fractional powers near 0 cost nothing (the
  24- and 48-point rules cached together on the exact gamma), and
* geometric tail extension [R, 2R] for decaying integrands, with
  non-decreasing blocks reported as divergence.

Past the head, ``_power_weighted`` folds the weight into the integrand,
t -> t^gamma g(t), for the body panels and the tail of norms.radial_integral.

Heads, bodies and tails also run for a family of integrands at once (the
slices of one sup-scan grid, one per p, or the norms of one side of a
scaling fit, one per dilation factor; see ``norms._slice_rows``):
``_jacobi_heads`` halves every row's eps in lockstep, ``_refine_rows``
starts every row's first panels in one K15 call per panel count, then
runs every row's own heap loop in lockstep, its state kept in place from
round to round, evaluating the halves of all rows' worst panels in one
integrand call and one K15 reduction per round, and
``_extend_tails`` doubles every row's tail radius in lockstep, integrating
the next block of all live rows in one ``_refine_rows`` batch per round.
Rows are stacked along a leading axis and never flattened into one 2-d
product, so each row keeps the bits, diagnostics and neval of a call on
its own: ``(rows, 2, 15) @ w`` and ``(rows, 1, n) @ w`` reduce each row as
a lone call would, where ``(rows * 2, 15) @ w`` would not.  A family is
called as ``f(x, rows, of)`` on the distinct point rows of a call only,
one 2-d form for first panels, splits and heads alike: rows on equal
first edges, rows that split the same panel (a, mid, b), and rows that
halve their heads to the same eps share one row of ``x``, and the index
array ``of`` (``_distinct``, keys compared exactly; None when no row
repeats) sends each integrand to it.  The family evaluates each point row
once and expands the result by ``of`` before anything that depends on the
integrand, so the values are those of one row of points per integrand;
neval still counts each row's own nodes.
``adaptive_quadrature`` is the one-row case of ``_refine_rows``,
``extend_tail`` the one-row case of ``_extend_tails``, and
``integrate_power_weighted`` the one-row case of ``_integrate_rows``,
which composes the heads and bodies: there is one head loop, one heap
loop, one tail loop and one stopping rule.

The heap loop runs on Python floats: each K15 result becomes lists with
one ``tolist()``, and a split adds ``(v0 + v1) - old``, the order in which
``np.add.reduce`` sums two elements, so the sums keep their bits.  A row
whose first panels meet the tolerance never builds a heap; the others
build theirs with one ``heapify``, whose keys (-error, index) are unique,
so the pops come in the order of a heap pushed panel by panel.

The policy is fixed by the module constants: REL_TOL = 1e-10 is the
relative tolerance of every integral, ABS_FLOOR = 1e-300 the absolute floor
under every tolerance and MAX_PANELS = 4096 the panel budget of every
adaptive body and tail block; the tail stops once its last block contributes
less than TAIL_REL = 1e-12 of the running total, and raises QuadratureError
at radius TAIL_CAP = 2^40.  Each is read where it applies, at call time.
Before the budget, the heap loop stops a row at round-off with the test of
QUADPACK's dqage (ier = 2): once ROUNDOFF_STALLS = 6 of its splits have kept
the panel's value within 1e-5 and its error above 0.99 of the panel's, or
ROUNDOFF_RISES = 20 splits past its 10th panel have raised the error.  The
tolerance test comes first, so a row within tolerance is converged whatever
these counts say; a stopped row is unconverged, with a note that names
round-off.  (|u| / peak)^p at p ~ 1e8 raises the 1e-16 noise of u to about
1e-8 relative, and such rows stop after about 85 panels instead of 4096.
A sampled peak below the true sup makes |u| / peak > 1 near the argmax, so
the power overflows once p passes about 709 / log(sup / peak); that row's
estimate is nan, and its note names the non-finite error estimate.
A row that stops at a non-finite error estimate is unconverged with a note
that names it; a nan estimate (an integrand that is inf or nan at a node)
stops the row at once.  So is a row whose every panel is too narrow to
split (its ends adjacent floats) before the tolerance or the budget is met.

Integrand callables must accept a 1-d ndarray and return a same-length
ndarray.  The public entries refuse an infinite or nan limit, tail start
or weight exponent with a QuadratureError that names it; an empty range
(b == a, or upper <= 0) is 0 before that test.

The head rules are built in numpy (``_jacobi_rule``): Golub-Welsch nodes,
one Newton step each, and Christoffel weights, from a chain-sequence form of
the Jacobi recurrence that keeps both ends of [0, 2] to relative accuracy.
They are built once per exponent and process; the library imports no scipy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DivergentIntegralError, QuadratureError

REL_TOL = 1e-10
ABS_FLOOR = 1e-300
MAX_PANELS = 4096
ROUNDOFF_STALLS = 6
ROUNDOFF_RISES = 20
TAIL_REL = 1e-12
TAIL_CAP = 2.0**40
_NOTES_SHOWN = 8

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
        """The fields by their report keys; past the first _NOTES_SHOWN
        notes, one entry counts the rest."""
        notes = self.notes[:_NOTES_SHOWN]
        if len(self.notes) > _NOTES_SHOWN:
            notes.append(f"and {len(self.notes) - _NOTES_SHOWN} more notes")
        return {
            "panels": self.panels,
            "neval": self.neval,
            "error-estimate": self.error_estimate,
            "rel-error": self.rel_error,
            "truncation-radius": self.truncation_radius,
            "converged": self.converged,
            "notes": notes,
        }


def _k15_panels(f, lo: np.ndarray, hi: np.ndarray, of=None):
    """Evaluate the G7/K15 pair on a batch of panels.

    ``lo`` and ``hi`` hold one row of panels per distinct point row along
    their leading axis; the 15 nodes are reduced along a new last axis, so
    a (k, 2) stack gives each row the bits of a two-panel call.  ``f`` gets
    the nodes as one 2-d point row per row of panels and returns one row of
    values per integrand, ``of`` sending integrand j to point row ``of[j]``
    (None: one point row per integrand; ``_distinct``).  Returns (values,
    error_estimates), one row per integrand; the error estimate follows the
    classic (200 |K - G| / resasc)^{3/2} rescaling so non-smooth panels are
    not trusted prematurely.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = c[..., None] + h[..., None] * _NODES
    fx = np.asarray(f(pts.reshape(len(pts), -1)), dtype=float).reshape((-1,) + pts.shape[1:])
    h = _take(h, of)
    resk = fx @ _WEIGHTS_K
    resg = fx @ _WEIGHTS_G
    reskh = 0.5 * resk
    resasc = np.abs(fx - reskh[..., None]) @ _WEIGHTS_K
    vals = resk * h
    raw = np.abs((resk - resg) * h)
    resasc = resasc * h
    if np.count_nonzero(resasc) == np.count_nonzero(raw) == raw.size:  # nothing to mask
        return vals, resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    mask = (resasc != 0.0) & (raw != 0.0)
    errs = raw.copy()
    errs[mask] = resasc[mask] * np.minimum(1.0, (200.0 * raw[mask] / resasc[mask]) ** 1.5)
    return vals, errs


def _one_row(f):
    """A plain integrand f as the one-row family f(x, rows, of) of _refine_rows."""
    return lambda x, rows, of: f(x.ravel())


def _distinct(keys) -> tuple:
    """(pick, of) for a list of hashable keys, compared exactly (floats
    share only when equal): ``pick[k]`` is the index of one key equal to
    the k-th distinct key and ``of[j]`` the k of key j, both index arrays,
    so an array whose rows follow the keys has
    ``_take(_take(rows, pick), of) == rows``.  (None, None) when no key
    repeats."""
    if len(keys) == 1:  # a lone row, as in every one-row call
        return None, None
    slot: dict = {}
    of = [slot.setdefault(key, len(slot)) for key in keys]
    if len(slot) == len(of):
        return None, None
    of = np.array(of, dtype=np.intp)
    pick = np.empty(len(slot), dtype=np.intp)
    pick[of] = np.arange(len(of))  # any of the equal keys will do
    return pick, of


def _take(a, index):
    """The rows ``index`` of the array a, or a itself for None."""
    return a if index is None else a.take(index, 0)


def _raise_error(outcome):
    """``outcome`` unless it is the exception of a row, which is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _panel_edges(a: float, b: float, initial_edges) -> tuple:
    """Sorted initial panel edges of [a, b], seeded edges inside it added."""
    edges = [a, b]
    if initial_edges is not None:
        edges.extend(x for x in initial_edges if a < x < b)
    return tuple(sorted(set(edges)))


def _finished(total, err, tol, panels, n0, roundoff, base_value) -> tuple:
    """(total, diagnostics) of a row of ``_refine_rows`` that has stopped
    with ``panels`` panels, ``n0`` of them its first, at error ``err``."""
    diag = QuadratureDiagnostics(
        panels=panels,
        neval=30 * panels - 15 * n0,
        error_estimate=err,
        rel_error=err / max(abs(total + base_value), ABS_FLOOR),
        converged=bool(err <= tol),  # base_value may be a numpy scalar
    )
    if not diag.converged:
        diag.notes.append(
            f"round-off detected after {panels} panels at error {err:.3e}"
            if roundoff
            else f"non-finite error estimate {err:.3e} after {panels} panels"
            if not math.isfinite(err)
            else f"panel budget {MAX_PANELS} exhausted at error {err:.3e}"
            if panels >= MAX_PANELS
            # short of the budget, only an empty heap stops a row
            else f"no panel left to split after {panels} panels at error {err:.3e}"
        )
    return total, diag


# An integrand may overflow where its value is already judged: (|u| / peak)^p
# where a sampled peak sits below the true sup, t^gamma far out in a tail.
# Its inf, or the nan of inf - inf in a K15 reduction, makes the row's error
# estimate non-finite, which _finished's "non-finite error estimate" note
# and the head's failure to settle (_jacobi_heads) judge; so neither loop
# warns of it.  One guard per call of a loop costs far less than one per
# K15 reduction.
@np.errstate(over="ignore", invalid="ignore")
def _refine_rows(f, edge_rows, base_values):
    """Adaptive G7/K15 quadrature of a family of integrands in lockstep.

    ``f(x, rows, of)`` evaluates the integrands ``rows`` (row indices) at
    the points ``x`` and returns one row of values per integrand (a one-row
    family may return its values flat).  ``x`` is 2-d and holds distinct
    point rows, and ``_take(x, of)[j]`` holds the points of integrand
    ``rows[j]``: ``of`` is an index array into the rows of x, or None when
    x has one row per integrand.  Row r starts from the panels between its
    sorted edges ``edge_rows[r]``; the rows with one panel count share one
    K15 call, their panels stacked one row per distinct edge tuple, so rows
    on equal edges share one point row.  Each call's sums come from one
    ``np.add.reduce`` along its rows.

    Every row runs its own heap loop, kept in place: its state travels
    from round to round as one tuple.  A row builds its heap, with one
    ``heapify``, only when its first panels miss the tolerance; the keys
    (-error, index) are unique, so it pops the panels of a heap pushed one
    by one.  In every round each live row pops its worst panel and the
    halves of all rows' worst panels are evaluated in one call of f and one
    K15 reduction; rows that split the same panel (a, mid, b) share one
    point row.  A row stops at the tolerance, at round-off (dqage's
    counters iroff1 and iroff2), at MAX_PANELS, on a non-finite error or
    when no panel can be split, so it has the bits, diagnostics and neval
    of a call on its own.  Returns (total, diagnostics) per row.
    """
    by_count: dict = {}  # panel count -> the rows with that many first panels
    for r, edges in enumerate(edge_rows):
        by_count.setdefault(len(edges), []).append(r)
    results: list = [None] * len(edge_rows)
    # (row, heap, total, error, floor error, panels, first panels, iroff1,
    # iroff2, round-off) of each row about to pop its next split; the floor
    # error is stuck on panels too narrow to split
    going: list = []
    for members in by_count.values():
        firsts = [edge_rows[r] for r in members]
        pick, of = _distinct(firsts)  # rows on equal edges share their points
        edges = np.array(firsts if pick is None else [firsts[j] for j in pick])
        lo, hi = edges[:, :-1], edges[:, 1:]
        vals, errs = _k15_panels(lambda x: f(x, members, of), lo, hi, of)
        lo, hi = lo.tolist(), hi.tolist()  # one list per distinct edge tuple
        row_of = range(len(members)) if of is None else of.tolist()
        totals = np.add.reduce(vals, axis=1).tolist()
        total_errs = np.add.reduce(errs, axis=1).tolist()
        vals, errs = vals.tolist(), errs.tolist()
        for j, r in enumerate(members):
            total, err, base_value = totals[j], total_errs[j], base_values[r]
            n0 = len(vals[j])
            tol = max(REL_TOL * abs(total + base_value), ABS_FLOOR)
            if not (err > tol and n0 < MAX_PANELS):  # done on its first panels
                results[r] = _finished(total, err, tol, n0, n0, False, base_value)
                continue
            k = row_of[j]
            heap = list(zip([-e for e in errs[j]], range(n0), lo[k], hi[k], vals[j], errs[j]))
            heapq.heapify(heap)
            going.append((r, heap, total, err, 0.0, n0, n0, 0, 0, False))
    while going:
        live: list[int] = []  # the rows that wait for the halves of a split
        cuts: list[tuple] = []  # their splits (a, mid, b)
        waits: list[tuple] = []  # their states, the split panel's value and error last
        for r, heap, total, err, floor_err, panels, n0, iroff1, iroff2, roundoff in going:
            base_value = base_values[r]
            tol = max(REL_TOL * abs(total + base_value), ABS_FLOOR)
            while err + floor_err > tol and panels < MAX_PANELS and heap and not roundoff:
                _, _, pa, pb, pval, perr = heapq.heappop(heap)
                mid = 0.5 * (pa + pb)
                if pa < mid < pb:
                    live.append(r)
                    cuts.append((pa, mid, pb))
                    waits.append((r, heap, total, err, floor_err, panels, n0, iroff1, iroff2,
                                  pval, perr))
                    break
                floor_err += perr
                err -= perr
            else:
                results[r] = _finished(
                    total, err + floor_err, tol, panels, n0, roundoff, base_value
                )
        if not live:
            break
        pick, of = _distinct(cuts)  # rows that split the same panel share its points
        split = np.array(cuts if pick is None else [cuts[j] for j in pick])
        vals, errs = _k15_panels(lambda x: f(x, live, of), split[:, :2], split[:, 1:], of)
        going = []
        for state, (pa, mid, pb), (v0, v1), (e0, e1) in zip(
            waits, cuts, vals.tolist(), errs.tolist()
        ):
            r, heap, total, err, floor_err, panels, n0, iroff1, iroff2, pval, perr = state
            area12, erro12 = v0 + v1, e0 + e1
            total += area12 - pval
            err += erro12 - perr
            counter = 2 * panels - n0  # one past the last panel's index
            heapq.heappush(heap, (-e0, counter, pa, mid, v0, e0))
            heapq.heappush(heap, (-e1, counter + 1, mid, pb, v1, e1))
            panels += 1
            roundoff = False
            if erro12 >= 0.99 * perr:  # rare while the errors fall
                iroff1 += abs(pval - area12) <= 1e-5 * abs(area12)
                iroff2 += panels > 10 and erro12 > perr
                roundoff = iroff1 >= ROUNDOFF_STALLS or iroff2 >= ROUNDOFF_RISES
            going.append((r, heap, total, err, floor_err, panels, n0, iroff1, iroff2, roundoff))
    return results


def adaptive_quadrature(
    f,
    a: float,
    b: float,
    *,
    initial_edges=None,
    base_value: float = 0.0,
) -> tuple[float, QuadratureDiagnostics]:
    """Integrate f over [a, b] to relative tolerance REL_TOL within
    MAX_PANELS panels; a call that exhausts them, or that the round-off test
    or a non-finite error estimate stops first (module docstring), is
    flagged unconverged with a note that says which.

    ``initial_edges`` seeds extra panel boundaries (used to pin down sharp
    interior peaks before the first error estimate is trusted).
    ``base_value`` is added to the integral when converting the relative
    tolerance to an absolute one, so a sub-range can be integrated to a
    tolerance relative to a larger total.  This is the one-row case of
    ``_refine_rows``.
    """
    if not (b > a):
        if b == a:
            return 0.0, QuadratureDiagnostics()
        raise QuadratureError(f"bad interval [{a}, {b}]")
    if not (-math.inf < a and b < math.inf):
        raise QuadratureError(f"interval [{a}, {b}] must be finite")
    ((total, diag),) = _refine_rows(
        _one_row(f),
        [_panel_edges(a, b, initial_edges)],
        [base_value],
    )
    return total, diag


def _chain_sweep(t, q, e):
    """pi_n(t), pi_n'(t) and sum_{k<n} p_k(t)^2 at each point of t, for the
    monic orthogonal polynomials pi_k (n = len(q)) of a mass-1 measure on
    [0, inf) whose Jacobi matrix has alpha_k = q_{k+1} + e_k and
    beta_k = q_k e_k, and the orthonormal p_k = pi_k / sqrt(beta_1 ... beta_k).

    The three-term step (t - alpha_k) pi_k - beta_k pi_{k-1} splits in two
    through the kernel polynomials pi*_k: pi_{k+1} = t pi*_k - q_{k+1} pi_k
    and pi*_k = pi_k - e_k pi*_{k-1}.  Near t = 0 the q and e terms lead
    each step, so a small t keeps its relative accuracy, which t - alpha_k
    rounds away.
    """
    pi, dpi = np.ones_like(t), np.zeros_like(t)
    kernel, dkernel = np.ones_like(t), np.zeros_like(t)
    squares, beta = np.ones_like(t), 1.0
    for k in range(len(q)):
        pi, dpi = t * kernel - q[k] * pi, kernel + t * dkernel - q[k] * dpi
        if k + 1 < len(q):
            kernel, dkernel = pi - e[k] * kernel, dpi - e[k] * dkernel
            beta *= q[k] * e[k]
            squares += pi * pi / beta
    return pi, dpi, squares


def _jacobi_rule(n: int, gamma_exp: float):
    """Nodes 1 + x, ascending, and weights of the n-point Gauss-Jacobi rule
    for the weight (1 + x)^gamma_exp on [-1, 1] (Golub and Welsch, Math.
    Comp. 23, 1969).

    In y = 1 + x the weight is y^g on [0, 2] (g = gamma_exp), and its
    Jacobi matrix has the chain sequence q_k = 2 (k + g)^2 / ((s - 1) s),
    e_k = 2 k^2 / (s (s + 1)) with s = 2k + g; in z = 2 - y the weight is
    (2 - z)^g, with q_k = 2 k (k + g) / ((s - 1) s) and
    e_k = 2 k (k + g) / (s (s + 1)).  The nodes are the eigenvalues of the
    Jacobi matrix, each refined by one Newton step on pi_n, in y below 1
    and in z above, and the weights are the Christoffel numbers
    mu0 / sum_{k<n} p_k^2 there, with mu0 = 2^(g+1) / (g + 1) the mass of
    the weight (``_chain_sweep``).  So nodes near either end keep their
    relative accuracy: against a 40-digit rule, for g in [-0.9, 100] and
    n = 24 and 48, nodes are within 2e-15 and weights within 2e-14.
    Raises QuadratureError naming gamma_exp when mu0 is beyond float range.
    """
    try:
        mass = 2.0 ** (gamma_exp + 1.0) / (gamma_exp + 1.0)
    except OverflowError:
        raise QuadratureError(
            f"weight exponent {gamma_exp}: the mass 2^(gamma+1)/(gamma+1) of its "
            "Gauss-Jacobi head rule is beyond float range"
        ) from None
    k = np.arange(1.0, n + 1.0)
    s = 2.0 * k + gamma_exp
    lo, hi = (s - 1.0) * s, s * (s + 1.0)
    q, e = 2.0 * (k + gamma_exp) ** 2 / lo, 2.0 * k * k / hi
    off = np.sqrt(q[:-1] * e[:-1])
    y = np.linalg.eigvalsh(np.diag(q + np.r_[0.0, e[:-1]]) + np.diag(off, 1) + np.diag(off, -1))

    def refined(t, q, e):
        pi, dpi, _ = _chain_sweep(t, q, e)
        t = t - pi / dpi
        return t, mass / _chain_sweep(t, q, e)[2]

    near = y < 1.0
    low, w_low = refined(y[near], q, e)
    mirrored = 2.0 * k * (k + gamma_exp)
    high, w_high = refined(2.0 - y[~near], mirrored / lo, mirrored / hi)
    return np.concatenate([low, 2.0 - high]), np.concatenate([w_low, w_high])


def _power_weighted(g, gamma_exp: float):
    """The integrand t -> t^gamma_exp g(t), weight folded in; for a family
    ``g(t, rows, of)`` of ``_refine_rows``, the same family weighted, with
    t^gamma_exp taken once per distinct point row of t and expanded by
    ``of``."""

    def weighted(t, *family):
        w = np.asarray(t, dtype=float) ** gamma_exp
        if family:
            w = _take(w, family[1])
        return w * np.asarray(g(t, *family), dtype=float)

    return weighted


def _head_eps(upper: float, initial_edges) -> float:
    """Initial width of the Gauss-Jacobi head: upper / 256, or half the
    first seeded edge when that is nearer to 0."""
    eps = upper / 256.0
    if initial_edges is not None:
        inner = [x for x in initial_edges if 0.0 < x < upper]
        if inner:
            eps = min(eps, min(inner) / 2.0)
    return eps


@lru_cache(maxsize=256)
def _head_rules(gamma_exp: float):
    """The nodes 1 + x of the 24- and 48-point Gauss-Jacobi rules side by
    side, and the two weight vectors."""
    y24, w24 = _jacobi_rule(24, gamma_exp)
    y48, w48 = _jacobi_rule(48, gamma_exp)
    return np.concatenate([y24, y48]), w24, w48


@np.errstate(over="ignore", invalid="ignore")  # judged overflow, as in _refine_rows
def _jacobi_heads(f, gamma_exp: float, eps) -> list:
    """int_0^eps t^gamma f(t) dt by Gauss-Jacobi (exact in the weight) for
    each row of the family ``f(x, rows, of)`` of ``_refine_rows``, starting
    from its ``eps``.

    A row halves its eps until the 48-point rule agrees with the 24-point
    one, so sharp structure near 0 cannot hide inside the head.  Each round
    evaluates both rules of every unsettled row in one call of f, on one
    point row per distinct eps, ``of`` mapping each row to its eps's.
    Returns (head, eps, neval) per row, or the QuadratureError of a row
    whose head never settled, or of every row when gamma_exp has no rule.
    """
    try:
        nodes, w24, w48 = _head_rules(gamma_exp)
    except QuadratureError as exc:
        return [exc] * len(eps)
    eps = list(eps)
    out: list = [None] * len(eps)
    live = list(range(len(eps)))
    for attempt in range(80):
        if not live:
            break
        row_eps = [eps[r] for r in live]
        pick, of = _distinct(row_eps)
        t = 0.5 * _take(np.array(row_eps), pick)[:, None] * nodes
        gv = f(t, live, of).reshape(len(live), 1, -1)
        coarse, fine = gv[..., :24] @ w24, gv[..., 24:] @ w48
        unsettled = []
        for j, r in enumerate(live):
            scale = (0.5 * eps[r]) ** (gamma_exp + 1.0)
            head, check = scale * float(coarse[j, 0]), scale * float(fine[j, 0])
            if abs(check - head) <= max(REL_TOL * abs(check), ABS_FLOOR):
                out[r] = (check, eps[r], 72 * (attempt + 1))
            else:
                eps[r] *= 0.5
                unsettled.append(r)
        live = unsettled
    for r in live:
        out[r] = QuadratureError("head panel failed to stabilize near 0")
    return out


def _check_weight(gamma_exp: float) -> None:
    if gamma_exp <= -1.0:
        raise QuadratureError(f"weight exponent {gamma_exp} is not integrable at 0")
    if not gamma_exp < math.inf:
        raise QuadratureError(f"weight exponent {gamma_exp} must be finite")


def integrate_power_weighted(
    g,
    gamma_exp: float,
    upper: float,
    *,
    initial_edges=None,
) -> tuple[float, QuadratureDiagnostics]:
    """int_0^upper t^gamma_exp g(t) dt with the endpoint weight handled exactly.

    gamma_exp > -1 is required for integrability.  The head panel [0, eps]
    uses a Gauss-Jacobi rule in the weight t^gamma_exp (``_jacobi_heads``);
    the remainder carries t^gamma_exp folded into the integrand and is
    refined adaptively.  This is the one-row case of ``_integrate_rows``.
    """
    return _raise_error(_integrate_rows(_one_row(g), gamma_exp, [upper], [initial_edges])[0])


def _rows_of(f, rows):
    """The family f(x, rows, of) restricted to ``rows``, renumbered from 0."""
    if not rows or rows[-1] == len(rows) - 1:  # rows ascend, so this is 0, 1, ...
        return f
    return lambda x, which, of: f(x, [rows[j] for j in which], of)


def _made_once(make, arg_rows) -> list:
    """``[make(*args) for args in arg_rows]``, made once for rows whose
    arguments are equal and whose last one, a seeded edge list, is the same
    object (every seeded row of a sup scan shares its scan's)."""
    if len(arg_rows) == 1:
        return [make(*arg_rows[0])]
    made: dict = {}
    out = []
    for args in arg_rows:
        key = (*args[:-1], id(args[-1]))
        if key not in made:
            made[key] = make(*args)
        out.append(made[key])
    return out


def _integrate_rows(f, gamma_exp: float, uppers, edge_lists) -> list:
    """int_0^uppers[r] t^gamma_exp f_r(t) dt for each row r of the family
    ``f(x, rows, of)`` of ``_refine_rows``, seeded with ``edge_lists[r]`` (None
    for none).

    The heads run in lockstep (``_jacobi_heads``) and the bodies, past each
    row's head, in one ``_refine_rows`` batch.  Returns (value, diagnostics) per row, or
    the QuadratureError of a row whose head never settled.  Each row has the
    bits of a one-row call, which is integrate_power_weighted.
    """
    _check_weight(gamma_exp)
    out: list = [
        (0.0, QuadratureDiagnostics()) if upper <= 0.0
        else None if upper < math.inf
        else QuadratureError(f"upper limit {upper} must be finite")
        for upper in uppers
    ]
    rows = [r for r, done in enumerate(out) if done is None]
    if gamma_exp == 0.0:
        heads = {r: (0.0, 0.0, 0) for r in rows}
        body = f
    else:
        heads = {}
        settled = _jacobi_heads(
            _rows_of(f, rows),
            gamma_exp,
            _made_once(_head_eps, [(uppers[r], edge_lists[r]) for r in rows]),
        )
        for r, head in zip(rows, settled):
            if isinstance(head, Exception):
                out[r] = head
            else:
                heads[r] = head
        body = _power_weighted(f, gamma_exp)

    rows = list(heads)
    bodies = _refine_rows(
        _rows_of(body, rows),
        _made_once(_panel_edges, [(heads[r][1], uppers[r], edge_lists[r]) for r in rows]),
        [heads[r][0] for r in rows],
    )
    for r, (total, diag) in zip(rows, bodies):
        if gamma_exp != 0.0:
            head, _, neval_head = heads[r]
            total = head + total
            diag.neval += neval_head
            diag.panels += 1
        out[r] = (total, diag)
    return out


def _extend_tails(f, starts, base_values) -> list:
    """The geometric tail past ``starts[r]`` of each row r of the family
    ``f(x, rows, of)`` of ``_refine_rows``, its tolerance relative to
    ``base_values[r]`` plus the tail so far.

    The rows double their radii in lockstep: each round integrates the next
    block [R_r, 2 R_r] of every live row in one ``_refine_rows`` batch, so
    rows at the same radius share that block's first point row.  A row stops
    once its last block contributes less than ``TAIL_REL`` of its running
    total; four non-decreasing blocks make it a DivergentIntegralError, and
    a row still unspent at ``TAIL_CAP`` a QuadratureError.  Returns (tail,
    diagnostics) per row, or that row's exception carrying its diagnostics.
    Each row has the bits of a one-row call, which is extend_tail.
    """
    out: list = [None] * len(starts)
    total = [0.0] * len(starts)
    radius = list(starts)
    contribs: list[list[float]] = [[] for _ in starts]
    diags = [QuadratureDiagnostics(truncation_radius=start) for start in starts]

    def unspent(r: int) -> QuadratureError:
        diag = diags[r]
        diag.converged = False
        diag.notes.append(f"tail not spent at radius cap {TAIL_CAP:.3e}")
        return QuadratureError(
            f"tail below divergence threshold but unspent at cap {TAIL_CAP:.3e}",
            diagnostics=diag.to_dict(),
        )

    live = []
    for r, start in enumerate(starts):
        if not 0.0 < start < math.inf:
            out[r] = QuadratureError(f"tail start {start} must be positive and finite")
        elif start < TAIL_CAP:
            live.append(r)
        else:
            out[r] = unspent(r)
    while live:
        blocks = _refine_rows(
            _rows_of(f, live),
            [(radius[r], 2.0 * radius[r]) for r in live],
            [base_values[r] + total[r] for r in live],
        )
        going = []
        for r, (block, bdiag) in zip(live, blocks):
            diag = diags[r]
            diag.merge(bdiag)
            total[r] += block
            radius[r] *= 2.0
            diag.truncation_radius = radius[r]
            contrib = contribs[r]
            contrib.append(abs(block))
            scale = max(abs(base_values[r] + total[r]), ABS_FLOOR)
            if contrib[-1] < TAIL_REL * scale:
                out[r] = (total[r], diag)
            elif len(contrib) >= 4 and all(
                contrib[-j] >= 0.999 * contrib[-j - 1] for j in range(1, 4)
            ):
                out[r] = DivergentIntegralError(
                    f"tail blocks not decaying near R = {radius[r]:.3e}",
                    diagnostics=diag.to_dict(),
                )
            elif radius[r] < TAIL_CAP:
                going.append(r)
            else:
                out[r] = unspent(r)
        live = going
    return out


def extend_tail(
    f,
    start: float,
    *,
    base_value: float = 0.0,
) -> tuple[float, QuadratureDiagnostics]:
    """Integrate f over [start, R] with R doubled from ``start`` (positive
    and finite) until the tail is spent.

    Stops when the last block [R, 2R] contributes less than ``TAIL_REL`` of
    the running total (including ``base_value``).  Non-decreasing block
    contributions raise DivergentIntegralError; hitting the radius cap with
    a decaying but unspent tail raises QuadratureError.  This is the
    one-row case of ``_extend_tails``.
    """
    return _raise_error(_extend_tails(_one_row(f), [start], [base_value])[0])
