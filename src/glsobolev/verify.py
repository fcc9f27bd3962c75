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

from . import grand, profiles
from .constants import (
    _valid_variant, _where_defined, sharp_constant, talenti_constant, trace_bounds
)
from .errors import DomainError, InputError
from .exponents import _whole_number, as_exponent_tuple, sobolev_exponent, trace_exponent
from .grand import (
    PsiFunction,
    SupremumResult,
    _check_delta,
    _psi_from_spec,
    calibrate_morrey_constant,
    modulus_of_continuity,
    morrey_bound,
    morrey_transform,
    verify_gls_sobolev,
    zeta_transform,
)
from .norms import (
    _flag_missed_peak, _slice_rows, radial_integral, weighted_gradient_norm, weighted_lp_norm
)
from .profiles import RadialProfile, make_profile
from .quadrature import QuadratureDiagnostics, _raise_error
from .reports import (
    DEFAULT_SLACK,
    VerificationReport,
    _check_report,
    sort_reports,
    valid_slack,
    write_csv,
    write_jsonl,
)

SCALING_TOL = 1e-8

# defined in profiles, and read here too as verify.extremal_profile
extremal_profile = profiles.extremal_profile


def check_sobolev(
    u: RadialProfile,
    A,
    p: float,
    *,
    variant: str = "corrected",
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """||u||_{q, A} <= C(p) || |u'| ||_{p, A} at the critical q.

    Where the plain-dimension constant talenti_constant(dimension, p) is
    defined, it is logged alongside for comparison.
    """
    A = as_exponent_tuple(A)
    q = sobolev_exponent(A, A, p)
    c = sharp_constant(A, p, variant=variant)
    lhs, ldiag = weighted_lp_norm(u, A, q, details=True)
    rhs, rdiag = weighted_gradient_norm(u, A, p, details=True)
    ldiag.merge(rdiag)
    extra = {"q": q, "effective-dimension": A.effective_dimension}
    if (k := _where_defined(talenti_constant, A.dimension, p)) is not None:
        extra["unweighted-constant"] = k
    return _check_report(
        "sobolev-1.6a", "sobolev", u, A, lhs, rhs, c, ldiag, extra,
        slack=slack, p=p, variant=variant,
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
) -> ScalingFit:
    """Measure how both sides of the embedding scale under dilation.

    ||u(lam .)||_{q, B} must scale like lam^(-D(B)/q) and the gradient norm
    like lam^(1 - D(A)/p); at the critical q the two exponents coincide, so
    the inequality is dilation invariant.  The slopes are fitted over the
    nine dilation factors lam = 2^(3k/4), k = -4, ..., 4, from 1/8 to 8.

    The nine lhs norms are one lockstep batch of dilation rows
    (``norms._slice_rows``) and the nine gradient norms another, each row
    with the bits of its standalone norm of ``u.dilated(lam)``.  The first
    failing norm raises in the order of a sequential sweep: lam ascending,
    lhs before rhs; a norm of 0, whose logarithm the fit cannot take, raises
    DomainError in the same order.
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    if q is None:
        q = sobolev_exponent(A, B, p)
    dilations = np.geomspace(0.125, 8.0, 9)
    lams = [float(lam) for lam in dilations]
    lhs_rows = _slice_rows(u, False, B, [q] * len(lams), lams)
    rhs_rows = _slice_rows(u, True, A, [p] * len(lams), lams)
    log_l = np.log(dilations)
    log_lhs = np.empty_like(log_l)
    log_rhs = np.empty_like(log_l)
    diag = QuadratureDiagnostics()
    for i, (lhs_row, rhs_row) in enumerate(zip(lhs_rows, rhs_rows)):
        lhs, ldiag = _raise_error(lhs_row)
        rhs, rdiag = _raise_error(rhs_row)
        diag.merge(ldiag)
        diag.merge(rdiag)
        for side, norm in (("lhs", lhs), ("gradient", rhs)):
            if norm == 0.0:
                raise DomainError(
                    f"the {side} norm of {u.name} at lam = {lams[i]:g} is 0: "
                    "the dilation slope of a zero norm is undefined"
                )
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
) -> VerificationReport:
    """Report form of the dilation-exponent fit at the critical q.

    The fit passes when both slopes are within SCALING_TOL of their laws.
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    fit = fit_scaling_exponents(u, A, B, p)
    return _check_report(
        "scaling-2.4", "scaling", u, A, fit.max_deviation, SCALING_TOL, 1.0,
        fit.quadrature, fit.figures(), slack=None, tolerances={"slope-tol": SCALING_TOL},
        B=list(B.entries), p=p, tol=SCALING_TOL,
    )


def check_trace_radial(
    g: RadialProfile,
    A,
    B,
    r: int,
    p: float,
    *,
    slack: float = DEFAULT_SLACK,
) -> VerificationReport:
    """Radial form of the trace inequality against the bracket [M, M Q].

    lhs = (int_0^inf s^(D_r - 1) |g(s)| ds)^(1/q) and
    rhs = (int_0^inf |g'(s)|^p ds)^(1/p), with q the trace exponent.  The
    comparison constant is the bracket top M Q.  The two sides scale
    differently under dilation: the ratio of g(./R) is R^((D - 1)/p) times
    that of g, with D = D(A), so every constant fails on a wide enough
    profile.  The bracket is checked, not attained.
    """
    A = as_exponent_tuple(A)
    B = as_exponent_tuple(B)
    q = trace_exponent(A, B, r, p)
    bounds = trace_bounds(A, B, r, p, q)
    lhs_int, ldiag = radial_integral(
        lambda s: np.abs(np.asarray(g.value(s), dtype=float)),
        B.effective_dimension - 1.0,
        g,
    )
    rhs_int, rdiag = radial_integral(
        lambda s: np.abs(np.asarray(g.derivative(s), dtype=float)) ** p,
        0.0,
        g,
    )
    # a side whose integral is 0 while its integrand peaks above 0 missed
    # that peak with every node; the peak is scanned only then
    if lhs_int == 0.0 and g.value_peak.value > 0.0:
        _flag_missed_peak(lhs_int, ldiag)
    if rhs_int == 0.0 and g.derivative_peak.value > 0.0:
        _flag_missed_peak(rhs_int, rdiag)
    ldiag.merge(rdiag)
    lhs = lhs_int ** (1.0 / q)
    rhs = rhs_int ** (1.0 / p)
    extra = {"q": q, "M": bounds.M, "Q": bounds.Q, "sampled-ratio": lhs / rhs if rhs > 0 else math.nan}
    return _check_report(
        "trace-6.3a", "trace", g, A, lhs, rhs, bounds.M * bounds.Q, ldiag, extra,
        slack=slack, B=list(B.entries), r=r, p=p,
    )


def check_morrey(
    u: RadialProfile,
    psi: PsiFunction,
    A,
    delta: float,
    *,
    c2: float = 1.0,
    slack: float = DEFAULT_SLACK,
    gradient: SupremumResult | None = None,
    modulus: float | None = None,
) -> VerificationReport:
    """Sampled modulus of continuity against the grand Morrey bound.

    ``gradient`` is passed on to ``morrey_bound``: the SupremumResult of
    ``gls_gradient_norm(u, psi, A, details=True)``, computed there when None.
    ``modulus`` is ``modulus_of_continuity(u, delta)``, sampled here when None.
    """
    A = as_exponent_tuple(A)
    omega = modulus_of_continuity(u, delta) if modulus is None else modulus
    bound, info = morrey_bound(u, psi, A, delta, c2=c2, details=True, gradient=gradient)
    diag = info.pop("quadrature")
    return _check_report(
        "morrey-7.8", "morrey", u, A, omega, bound, 1.0, diag, info,
        slack=slack, psi=psi.describe(), delta=delta, c2=c2,
    )


_RD_LARGE_STRIDE = 1_000_003
# below this index the float64 products i * alpha keep 2^-21 of resolution
# in [0, 1); at 2^63 the integer index itself overflows
_RD_INDEX_LIMIT = 2**32


def rd_sequence(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points in [0, 1)^dim by the additive golden recurrence.

    The generator is x_i = frac(0.5 + i * alpha) with alpha built from the
    unique real root of x^(dim+1) = x + 1; ``seed`` offsets the index so
    distinct seeds give distinct but equally uniform batches.  The largest
    index, |seed| * 1_000_003 + count, must stay below 2^32, which admits
    |seed| <= 4294 for any count below 954,414; InputError otherwise.
    """
    if dim < 1 or count < 1:
        raise InputError("need dim >= 1 and count >= 1")
    if abs(seed) * _RD_LARGE_STRIDE + count >= _RD_INDEX_LIMIT:
        raise InputError(
            f"seed {seed} is too large: the low-discrepancy index "
            f"|seed| * {_RD_LARGE_STRIDE} + count must stay below 2^32"
        )
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
    ``seed``.  Without a box the family is the one profile of the
    generator's defaults, whatever ``count`` (which must still be >= 1):
    ``count`` copies would repeat every check on the same input.
    """

    generator: str
    box: tuple = ()
    count: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise InputError("count must be at least 1")
        for pair in self.box:
            if not (len(pair) == 2 and all(map(math.isfinite, pair)) and pair[0] <= pair[1]):
                raise InputError(f"bad parameter range {pair}")

    def profiles(self) -> list:
        if not self.box:
            return [make_profile(self.generator)]
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


def _morrey_reports(profiles, psi, A, deltas, c2, slack) -> list:
    """The reports of one campaign Morrey check, c2 calibrated when None.

    One gradient grand norm per profile and one sampled modulus per
    (profile, delta) serve the calibration and every check; the norm is
    looked up on grand, as morrey_bound does, so wrappers see each scan.
    """
    gradients = [grand.gls_gradient_norm(u, psi, A, details=True)[1] for u in profiles]
    moduli = [[modulus_of_continuity(u, delta) for delta in deltas] for u in profiles]
    if c2 is None:
        c2 = calibrate_morrey_constant(profiles, psi, A, deltas, gradients=gradients, moduli=moduli)
    return [
        check_morrey(u, psi, A, delta, c2=c2, slack=slack, gradient=gradient, modulus=omega)
        for u, gradient, omegas in zip(profiles, gradients, moduli)
        for delta, omega in zip(deltas, omegas)
    ]


def _where(idx: int, check: dict) -> str:
    return f"campaign check {idx} (kind {check.get('kind')!r})"


def _read_check(idx: int, check, seed: int, variant: str, slack: float):
    """Campaign check ``idx`` as a function of no arguments giving its reports.

    Every input of the check's calls is built here and put through the law
    the check applies, so a malformed entry raises InputError naming
    ``idx`` before any check runs; the calls look up this module's check
    functions when the plan runs.
    """
    if not isinstance(check, dict):
        raise InputError(f"campaign check {idx} must be an object, got {check!r}")
    kind = check.get("kind")
    where = _where(idx, check)

    def numbers_at(key):
        # an empty list would run no call, so no law would check the rest
        value = check[key]
        if isinstance(value, (list, tuple)) and value and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in value
        ):
            return value
        raise InputError(f"'{key}' must be a list of numbers, at least one, got {value!r}")

    try:
        spec = check["family"]
        profiles = ProfileFamily(
            generator=spec["generator"],
            box=tuple(tuple(pair) for pair in spec.get("box", [])),
            count=_whole_number("count", spec.get("count", 4)),
            seed=_whole_number("seed", spec.get("seed", seed)),
        ).profiles()
        A = as_exponent_tuple(numbers_at("A"))
        if kind == "sobolev":
            ps = numbers_at("p-values")
            for p in ps:
                sharp_constant(A, p, variant=variant)
            return lambda: [
                check_sobolev(u, A, p, variant=variant, slack=slack) for u in profiles for p in ps
            ]
        if kind == "scaling":
            B = as_exponent_tuple(numbers_at("B")) if "B" in check else A
            ps = numbers_at("p-values")
            for p in ps:
                sobolev_exponent(A, B, p)
            return lambda: [check_scaling(u, A, B, p) for u in profiles for p in ps]
        if kind == "trace":
            B, r, ps = as_exponent_tuple(numbers_at("B")), check["r"], numbers_at("p-values")
            for p in ps:
                trace_bounds(A, B, r, p)
            return lambda: [
                check_trace_radial(u, A, B, r, p, slack=slack) for u in profiles for p in ps
            ]
        if kind == "gls":
            psi = _psi_from_spec(check["psi"])
            zeta_transform(psi, A, variant)
            return lambda: [
                verify_gls_sobolev(u, psi, A, variant=variant, slack=slack) for u in profiles
            ]
        if kind == "morrey":
            psi, deltas, c2 = _psi_from_spec(check["psi"]), numbers_at("deltas"), check.get("c2")
            for delta in deltas:
                _check_delta(delta, A.effective_dimension)
            morrey_transform(psi, A, 1.0 if c2 is None else c2)
            return lambda: _morrey_reports(profiles, psi, A, deltas, c2, slack)
        raise InputError("unknown check kind")
    except KeyError as exc:
        raise InputError(f"{where} is missing key {exc}") from exc
    except (AttributeError, TypeError) as exc:
        raise InputError(f"{where} is malformed: {exc}") from exc
    except ValueError as exc:  # DomainError and InputError too
        raise InputError(f"{where}: {exc}") from exc
    except OverflowError as exc:
        raise InputError(f"{where}: input too large for float arithmetic: {exc}") from exc


def run_campaign(config: dict | None = None, *, jsonl_path=None, csv_path=None) -> list:
    """Run a configured battery of checks; returns sorted reports.

    The config layout matches ``default_campaign_config``.  Every check is
    read before any check runs, and each input passes the law of the check
    that uses it (see ``_read_check``); a malformed entry raises InputError
    naming the check, as do a slack outside [0, inf), an unknown variant
    and a fractional seed.  An input too large for float arithmetic raises
    InputError naming its check, whether it overflows as the check is read
    or only once it runs.  Reports are sorted by input digest; with a
    fixed seed the written artifacts are byte-identical across runs.
    """
    cfg = config if config is not None else default_campaign_config()
    try:
        seed = _whole_number("seed", cfg.get("seed", 0))
        slack = valid_slack(float(cfg.get("slack", DEFAULT_SLACK)))
    except (AttributeError, TypeError) as exc:
        raise InputError(f"malformed campaign config: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"campaign config: {exc}") from exc
    variant = _valid_variant(cfg.get("variant", "corrected"))
    checks = cfg.get("checks", [])
    if not isinstance(checks, (list, tuple)):
        raise InputError(f"campaign config 'checks' must be a list, got {checks!r}")
    plan = [_read_check(idx, check, seed, variant, slack) for idx, check in enumerate(checks)]
    reports = []
    for idx, (check, run) in enumerate(zip(checks, plan)):
        try:
            reports += run()
        except OverflowError as exc:  # an input that overflows only once its check runs
            raise InputError(
                f"{_where(idx, check)}: input too large for float arithmetic: {exc}"
            ) from exc
    reports = sort_reports(reports)
    if jsonl_path is not None:
        write_jsonl(reports, jsonl_path)
    if csv_path is not None:
        write_csv(reports, csv_path)
    return reports
