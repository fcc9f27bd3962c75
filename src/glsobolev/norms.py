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

``_slice_rows`` computes many such norms of one profile in one lockstep
batch of rows.  A row is an exponent p and a dilation factor lam: it is
the norm of ``u.dilated(lam)``, with that profile's own peak scan, support
radius and seeded edges, and each round evaluates u (or lam * u') at
lam * x for the points x of every live row in one profile call.  A
grand-norm sup scan batches rows of many p at lam = 1; the scaling fit
(``verify.fit_scaling_exponents``) batches the nine dilations of one side.
The seeded edges depend on the peak scan alone, so a batch builds them
once per scan (once for all its rows at lam = 1) as one tuple that those
rows share, and ``quadrature._integrate_rows`` builds each distinct head
width and tuple of panel edges once.
Rows at lam = 1 whose points coincide in a call (nearby p start on the
same edges, split the same panels and halve their heads to the same eps)
send those points to the profile once: |u| / peak is taken per distinct
point row and expanded to the rows before each raises it to its own p.
Dilated rows evaluate at lam * x, so they expand their points first and
share none, not even two rows at one lam.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .constants import _log_gamma_product
from .errors import DomainError, QuadratureError
from .exponents import ExponentTuple, as_exponent_tuple, check_norm_exponent
from .gammafn import log_gamma
from .profiles import Decaying, RadialProfile
from .quadrature import (
    QuadratureDiagnostics,
    _extend_tails,
    _integrate_rows,
    _power_weighted,
    _rows_of,
    _take,
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


def ball_mass(A, radius: float) -> float:
    """Measure of the centered ball of the given radius under x^A dx,
    sigma_A * radius^D / D."""
    if not radius >= 0.0:
        raise DomainError(f"radius must be nonnegative, got {radius}")
    A = as_exponent_tuple(A)
    D = A.effective_dimension
    return angular_mass(A) * radius**D / D


def _peak_edges(rho_star: float, span: float) -> tuple:
    """Panel edges accumulating geometrically onto the peak from both sides."""
    edges = []
    for k in range(1, 41):
        off = span * 2.0**-k
        edges.append(rho_star - off)
        edges.append(rho_star + off)
    return tuple(e for e in edges if e > 0.0)


def _body_upper(profile: RadialProfile, initial_edges) -> float:
    """End of the quadrature body: the support radius, pushed out past the
    seeded edges of a decaying profile so its tail starts beyond them."""
    upper = profile.support.radius
    if isinstance(profile.support, Decaying) and initial_edges is not None:
        seeded_max = max((x for x in initial_edges if math.isfinite(x)), default=0.0)
        upper = max(upper, 2.0 * seeded_max)
    return upper


def radial_integral(
    fn,
    gamma_exp: float,
    profile: RadialProfile,
    *,
    initial_edges=None,
) -> tuple[float, QuadratureDiagnostics]:
    """int_0^inf rho^gamma_exp fn(rho) d rho over the profile's support.

    ``fn`` is any vectorized function derived from the profile (the caller
    owns the pointwise transform); the support descriptor decides whether a
    geometric tail extension is appended.
    """
    upper = _body_upper(profile, initial_edges)
    value, diag = integrate_power_weighted(fn, gamma_exp, upper, initial_edges=initial_edges)
    if isinstance(profile.support, Decaying):
        tail, tdiag = extend_tail(_power_weighted(fn, gamma_exp), upper, base_value=value)
        diag.merge(tdiag)
        value += tail
    return value, diag


def _slice_source(u: RadialProfile, gradient: bool, p: float):
    """(values_fn, peak scan) of u, or of u' with ``gradient``, for the
    p-norm; DomainError for p outside [1, inf) or a non-finite peak."""
    check_norm_exponent(p)
    values_fn, scan = (u.derivative, u.derivative_peak) if gradient else (u.value, u.value_peak)
    if not np.isfinite(scan.value):
        raise DomainError("profile takes non-finite values on its support")
    return values_fn, scan


def _seeded_edges(scan, p: float):
    """Panel edges that pin the peak of |f|^p down once p reaches the threshold."""
    if p < _SEED_P_THRESHOLD:
        return None
    rho_star = scan.rho_star
    span = scan.scan_end if rho_star > 0.0 else scan.scan_end * 0.5
    return _peak_edges(max(rho_star, scan.first_node), span)


def _slice_integrand(values_fn, peak: float, p: float):
    """rho -> (|f(rho)| / peak)^p."""
    return lambda r: (np.abs(np.asarray(values_fn(r), dtype=float)) / peak) ** p


def _flag_missed_peak(integral: float, diag) -> None:
    """Mark ``diag`` unconverged: an integral of 0 under an integrand with a
    positive peak means every node missed that peak."""
    diag.converged = False
    diag.notes.append(f"integral {integral} under a positive peak: every node missed the peak")


def _slice_value(peak: float, A: ExponentTuple, integral: float, diag, p: float) -> float:
    """The norm, from the integral of (|f| / peak)^p against rho^(D-1); that
    integrand is 1 at the positive peak, so a zero integral flags ``diag``."""
    if integral > 0.0:
        return math.exp(math.log(peak) + (_log_angular_mass(A.entries) + math.log(integral)) / p)
    _flag_missed_peak(integral, diag)
    return 0.0


def _norm(u: RadialProfile, gradient: bool, A, p: float, details: bool):
    """||u||_{p, A}, or || |u'| ||_{p, A} with ``gradient``: the body of
    weighted_lp_norm and weighted_gradient_norm.  It runs through
    radial_integral and the public quadrature entries, so their wrappers
    see it.  Without ``details`` an unconverged norm raises QuadratureError
    with its diagnostics.  ``_slice_rows`` takes the same steps for many p
    at once, with the same bits per p."""
    A = as_exponent_tuple(A)
    values_fn, scan = _slice_source(u, gradient, p)
    peak = scan.value
    if peak == 0.0:
        return (0.0, QuadratureDiagnostics()) if details else 0.0
    integral, diag = radial_integral(
        _slice_integrand(values_fn, peak, p),
        A.effective_dimension - 1.0,
        u,
        initial_edges=_seeded_edges(scan, p),
    )
    value = _slice_value(peak, A, integral, diag, p)
    if details:
        return value, diag
    if not diag.converged:
        raise QuadratureError(diag.notes[0], diagnostics=diag.to_dict())
    return value


def _slice_rows(u: RadialProfile, gradient: bool, A, ps, lams=None) -> list:
    """_norm for many rows at once.  Row i is the norm of
    ``u.dilated(lams[i])`` (of u itself when ``lams`` is None or
    ``lams[i]`` is 1) at exponent ``ps[i]``: the (value, diagnostics) of
    ``_norm(v, gradient, A, ps[i], details=True)`` on that profile v with
    the same bits, neval included, or the exception that call raises.

    A row keeps its profile's own peak scan, support radius and seeded
    edges.  The Gauss-Jacobi heads and the adaptive bodies of all rows run
    in one lockstep batch (``quadrature._integrate_rows``): each K15 call
    or head round evaluates u (or lam * u') at lam * x for the points x of
    every live row in one profile call, each distinct point row once when
    lam = 1, and each row raises |f| / peak to its own power.  The tails of a
    decaying profile, for the rows whose head and body succeeded, run in a
    second lockstep batch (``quadrature._extend_tails``) on the same
    integrand family.
    """
    A = as_exponent_tuple(A)
    gamma_exp = A.effective_dimension - 1.0
    if lams is None:
        lams = [1.0] * len(ps)
    out: list = [None] * len(ps)
    rows, scans, views = [], [], []
    for i, (p, lam) in enumerate(zip(ps, lams)):
        v = u if lam == 1.0 else u.dilated(lam)
        try:
            _, scan = _slice_source(v, gradient, p)
        except DomainError as exc:
            out[i] = exc
            continue
        if scan.value == 0.0:
            out[i] = (0.0, QuadratureDiagnostics())
        else:
            rows.append(i)
            scans.append(scan)
            views.append(v)
    if not rows:
        return out
    fn = u.derivative if gradient else u.value
    exps = np.array([ps[i] for i in rows], dtype=float)[:, None]
    # ``array ** 2.0`` squares, which can differ from pow() in the last bit,
    # so a row at p = 2 squares, as its standalone call does
    squares = {j for j, i in enumerate(rows) if ps[i] == 2.0}
    # undilated rows (every row of a sup scan) share u's one peak and need
    # no rescaling; dilated rows carry their own (lam, peak)
    dilated = any(lams[i] != 1.0 for i in rows)
    lam_peak = np.array([(lams[i], scan.value) for i, scan in zip(rows, scans)])

    def g(x, which, of):
        if dilated:  # rows at lam * x expand their point rows first: none share
            lam, peak = lam_peak[which].T[:, :, None]
            x, of = lam * _take(x, of), None
        else:
            lam, peak = 1.0, scans[0].value
        f = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        # |u| / peak once per distinct point row, then one row per integrand
        base = _take(np.abs(lam * f if dilated and gradient else f) / peak, of)
        powered = base ** exps[which]
        for k, j in enumerate(which):
            if j in squares:
                powered[k] = base[k] ** 2.0
        return powered

    # the seeded edges and body end of a row depend on its scan (one per
    # view) and on whether p reaches the seeding threshold: built once each
    seeded: dict = {}
    edges, uppers = [], []
    for scan, v, i in zip(scans, views, rows):
        key = (id(scan), ps[i] >= _SEED_P_THRESHOLD)
        if key not in seeded:
            e = _seeded_edges(scan, ps[i])
            seeded[key] = e, _body_upper(v, e)
        e, upper = seeded[key]
        edges.append(e)
        uppers.append(upper)
    integrals = _integrate_rows(g, gamma_exp, uppers, edges)
    if isinstance(u.support, Decaying):
        done = [j for j, outcome in enumerate(integrals) if not isinstance(outcome, Exception)]
        tails = _extend_tails(
            _rows_of(_power_weighted(g, gamma_exp), done),
            [uppers[j] for j in done],
            [integrals[j][0] for j in done],
        )
        for j, tail in zip(done, tails):
            if isinstance(tail, Exception):
                integrals[j] = tail
            else:
                value, diag = integrals[j]
                diag.merge(tail[1])
                integrals[j] = (value + tail[0], diag)
    for i, scan, outcome in zip(rows, scans, integrals):
        if not isinstance(outcome, Exception):
            integral, diag = outcome
            outcome = (_slice_value(scan.value, A, integral, diag, ps[i]), diag)
        out[i] = outcome
    return out


def weighted_lp_norm(
    u: RadialProfile,
    A,
    p: float,
    *,
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
        If the Gauss-Jacobi head never settles, or a decaying tail is still
        unspent at ``quadrature.TAIL_CAP``, with or without ``details``.
        Without ``details`` also when the body misses the tolerance
        ``quadrature.REL_TOL`` (round-off, panel budget exhausted, or an
        integral of 0 under a positive peak); with ``details`` that norm is
        returned and its diagnostics say ``converged: False``.
    """
    return _norm(u, False, A, p, details)


def weighted_gradient_norm(
    u: RadialProfile,
    A,
    p: float,
    *,
    details: bool = False,
):
    """|| |grad u| ||_{p, A}; for radial u this is the norm of |u'(rho)|.
    Parameters, returns and errors are those of weighted_lp_norm."""
    return _norm(u, True, A, p, details)


def sup_norm(u: RadialProfile) -> float:
    """Grid-scanned supremum of |u| (refined once around the peak)."""
    scan = u.value_peak
    fine = np.linspace(*scan.bracket, 513)
    return float(max(scan.value, np.max(np.abs(np.asarray(u.value(fine), dtype=float)))))
