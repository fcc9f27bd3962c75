"""Inequality checkers, profile batteries, and the verification campaign.

Each checker evaluates both sides of one inequality on concrete radial
profiles with certified quadrature and returns a VerificationReport.  The
campaign runner assembles a battery of checks (sampled reproducibly from a
low-discrepancy sequence), runs them, and writes deterministic JSONL and
CSV artifacts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import grand
from .constants import sharp_constant, talenti_constant, trace_bounds
from .errors import DomainError, InputError
from .exponents import as_exponent_tuple, sobolev_exponent, trace_exponent
from .grand import (
    PsiFunction,
    SupremumResult,
    _psi_from_spec,
    calibrate_morrey_constant,
    modulus_of_continuity,
    morrey_bound,
    verify_gls_sobolev,
)
from .norms import radial_integral, weighted_gradient_norm, weighted_lp_norm
from .profiles import Decaying, RadialProfile, _as_radial, make_profile
from .quadrature import DEFAULT_REL_TOL, QuadratureDiagnostics
from .reports import DEFAULT_SLACK, VerificationReport, sort_reports, write_csv, write_jsonl

SCALING_TOL = 1e-8


def extremal_profile(D: float, p: float) -> RadialProfile:
    """Optimizer of the sharp embedding at effective dimension D.

    u(rho) = (1 + rho^p')^((p - D)/p) with p' = p/(p - 1); the ratio
    ||u||_q / (C(p) || |u'| ||_p) equals 1 on this profile, up to the
    truncation of its power tail.
    """
    if not (1.0 < p < D):
        raise DomainError(f"need 1 < p < D = {D}, got p = {p}")
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
    )


def check_sobolev(
    u: RadialProfile,
    A,
    p: float,
    *,
    variant: str = "corrected",
    slack: float = DEFAULT_SLACK,
    rel_tol: float = DEFAULT_REL_TOL,
) -> VerificationReport:
    """||u||_{q, A} <= C(p) || |u'| ||_{p, A} at the critical q.

    When the plain-dimension constant is defined (integer dimension >= 3,
    p < dimension) it is logged alongside for comparison.
    """
    A = as_exponent_tuple(A)
    q = sobolev_exponent(A, A, p)
    c = sharp_constant(A, p, variant=variant)
    lhs, ldiag = weighted_lp_norm(u, A, q, rel_tol=rel_tol, details=True)
    rhs, rdiag = weighted_gradient_norm(u, A, p, rel_tol=rel_tol, details=True)
    ldiag.merge(rdiag)
    extra = {"q": q, "effective-dimension": A.effective_dimension}
    m = A.dimension
    if m >= 3 and 1.0 <= p < m:
        extra["unweighted-constant"] = talenti_constant(m, p)
    return VerificationReport(
        inequality_id="sobolev-1.6a",
        lhs=lhs,
        rhs=rhs,
        constant=c,
        inputs={
            "check": "sobolev",
            "profile": u.name,
            "A": list(A.entries),
            "p": p,
            "variant": variant,
            "slack": slack,
        },
        tolerances={"slack": slack, "quad-rel-tol": rel_tol},
        quadrature=ldiag.to_dict(),
        extra=extra,
        slack=slack,
    )


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slopes of log norm against log dilation factor.

    ``quadrature`` merges the diagnostics of every norm behind the fit.
    """

    slope_lhs: float
    slope_rhs: float
    expected_lhs: float
    expected_rhs: float
    residual_lhs: float
    residual_rhs: float
    quadrature: QuadratureDiagnostics = field(default_factory=QuadratureDiagnostics)

    def figures(self) -> dict:
        """The six fitted slopes, expected slopes and residuals, keyed
        slope-lhs, ..., residual-rhs in field order."""
        return {
            f.name.replace("_", "-"): getattr(self, f.name)
            for f in fields(self)
            if f.name != "quadrature"
        }

    @property
    def max_deviation(self) -> float:
        return max(
            abs(self.slope_lhs - self.expected_lhs),
            abs(self.slope_rhs - self.expected_rhs),
        )


def fit_scaling_exponents(
    u: RadialProfile,
    A,
    B,
    p: float,
    q: float | None = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> ScalingFit:
    """Measure how both sides of the embedding scale under dilation.

    ||u(lam .)||_{q, B} must scale like lam^(-D(B)/q) and the gradient norm
    like lam^(1 - D(A)/p); at the critical q the two exponents coincide, so
    the inequality is dilation invariant.  The slopes are fitted over the
    nine dilation factors lam = 2^(3k/4), k = -4, ..., 4, from 1/8 to 8.
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    if q is None:
        q = sobolev_exponent(A, B, p)
    dilations = np.geomspace(0.125, 8.0, 9)
    log_l = np.log(dilations)
    log_lhs = np.empty_like(log_l)
    log_rhs = np.empty_like(log_l)
    diag = QuadratureDiagnostics()
    for i, lam in enumerate(dilations):
        v = u.dilated(float(lam))
        lhs, ldiag = weighted_lp_norm(v, B, q, rel_tol=rel_tol, details=True)
        rhs, rdiag = weighted_gradient_norm(v, A, p, rel_tol=rel_tol, details=True)
        diag.merge(ldiag)
        diag.merge(rdiag)
        log_lhs[i] = math.log(lhs)
        log_rhs[i] = math.log(rhs)
    fit_l = np.polyfit(log_l, log_lhs, 1)
    fit_r = np.polyfit(log_l, log_rhs, 1)
    res_l = float(np.max(np.abs(np.polyval(fit_l, log_l) - log_lhs)))
    res_r = float(np.max(np.abs(np.polyval(fit_r, log_l) - log_rhs)))
    return ScalingFit(
        slope_lhs=float(fit_l[0]),
        slope_rhs=float(fit_r[0]),
        expected_lhs=-B.effective_dimension / q,
        expected_rhs=1.0 - A.effective_dimension / p,
        residual_lhs=res_l,
        residual_rhs=res_r,
        quadrature=diag,
    )


def check_scaling(
    u: RadialProfile,
    A,
    B,
    p: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> VerificationReport:
    """Report form of the dilation-exponent fit at the critical q.

    The fit passes when both slopes are within SCALING_TOL of their laws.
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    fit = fit_scaling_exponents(u, A, B, p, rel_tol=rel_tol)
    return VerificationReport(
        inequality_id="scaling-2.4",
        lhs=fit.max_deviation,
        rhs=SCALING_TOL,
        constant=1.0,
        inputs={
            "check": "scaling",
            "profile": u.name,
            "A": list(A.entries),
            "B": list(B.entries),
            "p": p,
            "tol": SCALING_TOL,
        },
        tolerances={"slope-tol": SCALING_TOL, "quad-rel-tol": rel_tol},
        quadrature=fit.quadrature.to_dict(),
        extra=fit.figures(),
        slack=0.0,
    )


def check_trace_radial(
    g: RadialProfile,
    A,
    B,
    r: int,
    p: float,
    *,
    slack: float = DEFAULT_SLACK,
    rel_tol: float = DEFAULT_REL_TOL,
) -> VerificationReport:
    """Radial form of the trace inequality against the bracket [M, M Q].

    lhs = (int_0^inf s^(D_r - 1) |g(s)| ds)^(1/q) and
    rhs = (int_0^inf |g'(s)|^p ds)^(1/p), with q the trace exponent.  The
    comparison constant is the bracket top M Q.  Note the two sides scale
    differently under dilation, so the sampled ratio depends on the size of
    the profile; the bracket is checked, not attained.
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    q = trace_exponent(A, B, r, p)
    bounds = trace_bounds(A, B, r, p, q)
    d_r = float(r) + sum(B.entries)

    lhs_int, ldiag = radial_integral(
        lambda s: np.abs(np.asarray(g.value(s), dtype=float)),
        d_r - 1.0,
        g,
        rel_tol=rel_tol,
    )
    rhs_int, rdiag = radial_integral(
        lambda s: np.abs(np.asarray(g.derivative(s), dtype=float)) ** p,
        0.0,
        g,
        rel_tol=rel_tol,
    )
    ldiag.merge(rdiag)
    lhs = lhs_int ** (1.0 / q) if lhs_int > 0.0 else 0.0
    rhs = rhs_int ** (1.0 / p) if rhs_int > 0.0 else 0.0
    return VerificationReport(
        inequality_id="trace-6.3a",
        lhs=lhs,
        rhs=rhs,
        constant=bounds.W_upper,
        inputs={
            "check": "trace",
            "profile": g.name,
            "A": list(A.entries),
            "B": list(B.entries),
            "r": r,
            "p": p,
            "slack": slack,
        },
        tolerances={"slack": slack, "quad-rel-tol": rel_tol},
        quadrature=ldiag.to_dict(),
        extra={"q": q, "M": bounds.M, "Q": bounds.Q, "sampled-ratio": lhs / rhs if rhs > 0 else math.nan},
        slack=slack,
    )


def check_morrey(
    u: RadialProfile,
    psi: PsiFunction,
    A,
    delta: float,
    *,
    c2: float = 1.0,
    slack: float = DEFAULT_SLACK,
    rel_tol: float = DEFAULT_REL_TOL,
    gradient: SupremumResult | None = None,
) -> VerificationReport:
    """Sampled modulus of continuity against the grand Morrey bound.

    ``gradient`` is passed on to ``morrey_bound``: the SupremumResult of
    ``gls_gradient_norm(u, psi, A, rel_tol=rel_tol, details=True)``, computed
    there when None.
    """
    A = as_exponent_tuple(A)
    omega = modulus_of_continuity(u, delta)
    bound, info = morrey_bound(
        u, psi, A, delta, c2=c2, rel_tol=rel_tol, details=True, gradient=gradient
    )
    diag = info.pop("quadrature")
    return VerificationReport(
        inequality_id="morrey-7.8",
        lhs=omega,
        rhs=bound,
        constant=1.0,
        inputs={
            "check": "morrey",
            "profile": u.name,
            "A": list(A.entries),
            "psi": psi.describe(),
            "delta": delta,
            "c2": c2,
            "slack": slack,
        },
        tolerances={"slack": slack, "quad-rel-tol": rel_tol},
        quadrature=diag.to_dict(),
        extra=info,
        slack=slack,
    )


_RD_LARGE_STRIDE = 1_000_003


def rd_sequence(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in [0, 1)^dim by the additive golden recurrence.

    The generator is x_i = frac(0.5 + i * alpha) with alpha built from the
    unique real root of x^(dim+1) = x + 1; ``seed`` offsets the index so
    distinct seeds give distinct but equally uniform batches.
    """
    if dim < 1 or count < 1:
        raise InputError("need dim >= 1 and count >= 1")
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -(1 + np.arange(dim))
    idx = np.arange(1, count + 1)[:, None] + seed * _RD_LARGE_STRIDE
    return np.mod(0.5 + idx * alpha[None, :], 1.0)


@dataclass(frozen=True)
class ProfileFamily:
    """Reproducible battery of profiles from one generator.

    ``box`` gives (low, high) per generator parameter; ``count`` profiles
    are drawn at low-discrepancy points of the box, deterministically in
    ``seed``.
    """

    generator: str
    box: tuple = ()
    count: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise InputError("count must be at least 1")
        for pair in self.box:
            lo, hi = pair
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise InputError(f"bad parameter range {pair}")

    def profiles(self) -> list:
        if not self.box:
            return [make_profile(self.generator) for _ in range(self.count)]
        pts = rd_sequence(len(self.box), self.count, self.seed)
        out = []
        for row in pts:
            params = [lo + t * (hi - lo) for t, (lo, hi) in zip(row, self.box)]
            out.append(make_profile(self.generator, *params))
        return out


def default_campaign_config() -> dict:
    """Battery covering all five inequality families at modest cost."""
    return {
        "seed": 0,
        "variant": "corrected",
        "slack": DEFAULT_SLACK,
        "checks": [
            {
                "kind": "sobolev",
                "A": [1.0, 2.0],
                "p-values": [1.5, 2.0, 2.5],
                "family": {"generator": "bump", "box": [[0.5, 2.0], [0.5, 3.0]], "count": 4},
            },
            {
                "kind": "sobolev",
                "A": [0.0, 0.0, 0.0],
                "p-values": [2.0],
                "family": {"generator": "gaussian", "box": [[0.5, 2.0]], "count": 2},
            },
            {
                "kind": "gls",
                "A": [1.0, 2.0],
                "psi": {"family": "power-endpoint", "a": 1.3, "b": 3.4, "alpha": 0.4, "beta": 0.4},
                "family": {"generator": "bump", "box": [[0.6, 1.6], [1.0, 2.0]], "count": 2},
            },
            {
                "kind": "trace",
                "A": [1.0, 1.0],
                "B": [1.0],
                "r": 1,
                "p-values": [1.5, 2.0],
                "family": {"generator": "bump", "box": [[0.4, 1.1], [1.0, 2.0]], "count": 3},
            },
            {
                "kind": "morrey",
                "A": [1.0, 0.5],
                "psi": {"family": "power-endpoint", "a": 4.0, "b": 7.0, "alpha": 0.3, "beta": 0.3},
                "deltas": [0.125, 0.5],
                "family": {"generator": "bump", "box": [[0.8, 1.8], [0.5, 1.5]], "count": 2},
            },
            {
                "kind": "scaling",
                "A": [1.0, 2.0],
                "B": [0.5, 0.5],
                "p-values": [1.8],
                "family": {"generator": "bump", "box": [[0.7, 1.3], [1.0, 2.0]], "count": 1},
            },
        ],
    }


# the keys each check kind reads besides "kind" and "family"
_CHECK_KEYS = {
    "sobolev": ("A", "p-values"),
    "gls": ("A", "psi"),
    "trace": ("A", "B", "r", "p-values"),
    "morrey": ("A", "psi", "deltas"),
    "scaling": ("A", "p-values"),
}
_NUMBER_LISTS = ("A", "B", "p-values", "deltas")


def _read_check(idx: int, check, seed: int) -> tuple:
    """(kind, profiles, psi) of campaign check ``idx``, read before any check
    runs; a malformed entry raises InputError naming ``idx``."""
    if not isinstance(check, dict):
        raise InputError(f"campaign check {idx} must be an object, got {check!r}")
    kind = check.get("kind")
    where = f"campaign check {idx} (kind {kind!r})"
    if not (isinstance(kind, str) and kind in _CHECK_KEYS):
        raise InputError(f"{where}: unknown check kind")
    try:
        spec = check["family"]
        family = ProfileFamily(
            generator=spec["generator"],
            box=tuple(tuple(pair) for pair in spec.get("box", [])),
            count=int(spec.get("count", 4)),
            seed=int(spec.get("seed", seed)),
        )
        for key in _CHECK_KEYS[kind]:
            value = check[key]
            if key in _NUMBER_LISTS and not (
                isinstance(value, (list, tuple))
                and all(isinstance(x, numbers.Real) for x in value)
            ):
                raise InputError(f"{where}: '{key}' must be a list of numbers, got {value!r}")
        psi = _psi_from_spec(check["psi"]) if "psi" in _CHECK_KEYS[kind] else None
    except KeyError as exc:
        raise InputError(f"{where} is missing key {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise InputError(f"{where} is malformed: {exc}") from exc
    return kind, family.profiles(), psi


def run_campaign(config: dict | None = None, *, jsonl_path=None, csv_path=None) -> list:
    """Run a configured battery of checks; returns sorted reports.

    The config layout matches ``default_campaign_config``.  Every check's
    entry is read before any check runs, and a malformed one raises
    InputError.  Reports are sorted by input digest; with a fixed seed the
    written artifacts are byte-identical across runs.
    """
    cfg = config if config is not None else default_campaign_config()
    try:
        seed = int(cfg.get("seed", 0))
        slack = float(cfg.get("slack", DEFAULT_SLACK))
    except (AttributeError, TypeError) as exc:
        raise InputError(f"malformed campaign config: {exc}") from exc
    variant = cfg.get("variant", "corrected")
    checks = cfg.get("checks", [])
    if not isinstance(checks, (list, tuple)):
        raise InputError(f"campaign config 'checks' must be a list, got {checks!r}")
    plan = [_read_check(idx, check, seed) for idx, check in enumerate(checks)]
    reports = []
    for (kind, profiles, psi), check in zip(plan, checks):
        if kind == "sobolev":
            for u in profiles:
                for p in check["p-values"]:
                    reports.append(check_sobolev(u, check["A"], p, variant=variant, slack=slack))
        elif kind == "gls":
            for u in profiles:
                reports.append(
                    verify_gls_sobolev(u, psi, check["A"], variant=variant, slack=slack)
                )
        elif kind == "trace":
            for u in profiles:
                for p in check["p-values"]:
                    reports.append(
                        check_trace_radial(u, check["A"], check["B"], check["r"], p, slack=slack)
                    )
        elif kind == "morrey":
            deltas = check["deltas"]
            # one gradient grand norm per profile serves the calibration and every
            # delta; looked up on grand, as morrey_bound does, so wrappers see each scan
            gradients = [
                grand.gls_gradient_norm(u, psi, check["A"], details=True)[1]
                for u in profiles
            ]
            c2 = check.get("c2")
            if c2 is None:
                c2 = calibrate_morrey_constant(
                    profiles, psi, check["A"], deltas, gradients=gradients
                )
            for u, gradient in zip(profiles, gradients):
                for delta in deltas:
                    reports.append(
                        check_morrey(
                            u, psi, check["A"], delta, c2=c2, slack=slack,
                            gradient=gradient,
                        )
                    )
        else:  # scaling
            for u in profiles:
                for p in check["p-values"]:
                    reports.append(check_scaling(u, check["A"], check.get("B", check["A"]), p))
    reports = sort_reports(reports)
    if jsonl_path is not None:
        write_jsonl(reports, jsonl_path)
    if csv_path is not None:
        write_csv(reports, csv_path)
    return reports
