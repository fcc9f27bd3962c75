"""Command-line front end.

``build_parser`` gives each subcommand its handler, which calls one library
entry point and serializes the result; no numerics happen here.  In the
``constants`` output, C, q or K is null where its own guard rejects p.  A
handler imports the numeric layers it calls when it runs, so ``constants``,
``--help`` and ``--version`` load no numpy, and no command loads scipy.
Exit codes: 0 success, 1 an inequality check failed, 2 bad input (inputs
too large for float arithmetic included), 3 the numerics could not certify
an answer (unconverged quadrature or a divergent norm).  Exits 2 and 3 give
their reason in one stderr line.  A grand norm with a slice whose tail was
proven divergent is certified as inf and exits 0; any other non-finite
slice exits 3, not certified.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .constants import (
    _where_defined, sharp_constant, sharp_constant_p1, talenti_constant, trace_bounds
)
from .errors import DivergentIntegralError, InputError, QuadratureError
from .exponents import (
    as_exponent_tuple,
    check_norm_exponent,
    sobolev_exponent,
    trace_exponent,
)
from .reports import DEFAULT_SLACK, dumps, exit_status, format_float

CONFIG_DIR_ENV = "GLSOBOLEV_CONFIG_DIR"


def _parse_floats(text: str) -> list[float]:
    """The numbers of a comma-separated list; an empty token (so an empty
    list) is an InputError, like any token float() refuses."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got '{text}'") from None


def _parse_profile(text: str):
    from .profiles import make_profile

    name, _, raw = text.partition(":")
    return make_profile(name, *(_parse_floats(raw) if raw else []))


def _parse_psi(text: str):
    from .grand import _psi_from_spec

    name, _, raw = text.partition(":")
    if name == "constant":
        params = _parse_floats(raw)
        if len(params) not in (1, 2):
            raise InputError("constant psi takes a[,b]")
        spec = dict(zip(("a", "b"), params), family="constant")
    elif name == "power":
        params = _parse_floats(raw)
        if len(params) != 4:
            raise InputError("power psi takes a,b,alpha,beta")
        spec = dict(zip(("a", "b", "alpha", "beta"), params), family="power-endpoint")
    elif name == "table":
        nodes, values = [], []
        for pair in raw.split(","):
            try:
                p_str, v_str = pair.split("=")
                nodes.append(float(p_str))
                values.append(float(v_str))
            except ValueError:
                raise InputError(f"bad table entry '{pair}', expected p=value") from None
        spec = {"family": "tabulated", "nodes": nodes, "values": values}
    else:
        raise InputError(f"unknown psi spec '{text}'; use constant:, power:, or table:")
    return _psi_from_spec(spec)


def _flatten(obj, prefix: str = "") -> dict:
    flat = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            if isinstance(v, dict):
                flat.update(_flatten(v, key))
            elif isinstance(v, list):
                flat[key] = dumps(v)
            else:
                flat[key] = v
    else:
        flat[prefix or "value"] = obj
    return flat


def _pretty_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_pretty_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k} = {_pretty_value(v)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_pretty_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_pretty_value(item)}")
    else:
        lines.append(f"{pad}{_pretty_value(obj)}")
    return lines


def _pretty_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(dumps(payload))
    elif fmt == "pretty":
        print("\n".join(_pretty_lines(payload)))
    elif fmt == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        flats = [_flatten(r) if isinstance(r, dict) else {"value": r} for r in rows]
        keys = sorted({k for f in flats for k in f})
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        for f in flats:
            writer.writerow(
                format_float(v) if isinstance(v, float) else v
                for v in (f.get(k) for k in keys)
            )
    else:
        raise InputError(f"unknown output format '{fmt}'")


def _cmd_constants(args) -> tuple:
    A = as_exponent_tuple(_parse_floats(args.A))
    check_norm_exponent(args.p)
    C = _where_defined(sharp_constant, A, args.p, variant=args.variant)
    payload = {
        "A": list(A.entries),
        "effective-dimension": A.effective_dimension,
        "p": args.p,
        "variant": args.variant,
        "C1": sharp_constant_p1(A, variant=args.variant),
        "C": C,
        "q": None if C is None else sobolev_exponent(A, A, args.p),
        "K": _where_defined(talenti_constant, A.dimension, args.p),
        "M": None,
        "Q": None,
    }
    if args.B is not None or args.r is not None:
        if args.B is None or args.r is None:
            raise InputError("trace constants need both --B and --r")
        B = as_exponent_tuple(_parse_floats(args.B))
        bounds = trace_bounds(A, B, args.r, args.p)
        payload["M"] = bounds.M
        payload["Q"] = bounds.Q
        payload["trace-q"] = trace_exponent(A, B, args.r, args.p)
    return payload, 0


def _cmd_norm(args) -> tuple:
    from .norms import weighted_gradient_norm, weighted_lp_norm

    u = _parse_profile(args.profile)
    A = _parse_floats(args.A)
    fn = weighted_gradient_norm if args.gradient else weighted_lp_norm
    value, diag = fn(u, A, args.p, details=True)
    payload = {
        "profile": u.name,
        "A": A,
        "p": args.p,
        "gradient": bool(args.gradient),
        "value": value,
        "diagnostics": diag.to_dict(),
    }
    return payload, 0 if diag.converged else 3


def _cmd_gls_norm(args) -> tuple:
    from .grand import gls_gradient_norm, gls_norm

    u = _parse_profile(args.profile)
    psi = _parse_psi(args.psi)
    A = _parse_floats(args.A)
    fn = gls_gradient_norm if args.gradient else gls_norm
    value, res = fn(u, psi, A, details=True)
    payload = {
        "profile": u.name,
        "psi": psi.describe(),
        "A": A,
        "gradient": bool(args.gradient),
        "value": value,
        "argmax": res.argmax,
        "at-boundary": res.at_boundary,
        "diverged": res.diverged,
        "diagnostics": res.quadrature.to_dict(),
    }
    return payload, 0 if res.diverged or res.quadrature.converged else 3


def _cmd_fundamental(args) -> tuple:
    from .grand import fundamental_function

    psi = _parse_psi(args.psi)
    payload = []
    for delta in _parse_floats(args.delta):
        value, res = fundamental_function(psi, delta, details=True)
        payload.append({"delta": delta, "value": value, "argmax": res.argmax})
    return payload, 0


def _cmd_zeta(args) -> tuple:
    from .grand import zeta_transform

    psi = _parse_psi(args.psi)
    A = _parse_floats(args.A)
    zeta = zeta_transform(psi, A, variant=args.variant)
    values = []
    for q in _parse_floats(args.q):
        values.append({"q": q, "zeta": zeta(q)})
    payload = {
        "support": [zeta.a, zeta.b],
        "A": A,
        "variant": args.variant,
        "values": values,
    }
    return payload, 0


def _cmd_morrey(args) -> tuple:
    from .grand import gls_gradient_norm, modulus_of_continuity, morrey_bound

    u = _parse_profile(args.profile)
    psi = _parse_psi(args.psi)
    A = _parse_floats(args.A)
    _, gradient = gls_gradient_norm(u, psi, A, details=True)
    payload = []
    for delta in _parse_floats(args.delta):
        bound, info = morrey_bound(
            u, psi, A, delta, c2=args.c2, details=True, gradient=gradient
        )
        entry = {
            "delta": delta,
            "bound": bound,
            "c2": args.c2,
            "diagnostics": info["quadrature"].to_dict(),
        }
        if args.measure:
            entry["modulus"] = modulus_of_continuity(u, delta)
        payload.append(entry)
    converged = all(entry["diagnostics"]["converged"] for entry in payload)
    return payload, 0 if converged else 3


def _cmd_scaling(args) -> tuple:
    from .verify import fit_scaling_exponents

    u = _parse_profile(args.profile)
    A = _parse_floats(args.A)
    B = _parse_floats(args.B) if args.B is not None else A
    fit = fit_scaling_exponents(u, A, B, args.p, args.q)
    payload = {
        "profile": u.name,
        "A": A,
        "B": B,
        "p": args.p,
        **fit.figures(),
        "max-deviation": fit.max_deviation,
        "diagnostics": fit.quadrature.to_dict(),
    }
    return payload, 0 if fit.quadrature.converged else 3


def _cmd_trace(args) -> tuple:
    from .verify import check_trace_radial

    g = _parse_profile(args.profile)
    A = _parse_floats(args.A)
    B = _parse_floats(args.B)
    report = check_trace_radial(g, A, B, args.r, args.p, slack=args.slack)
    return report.to_dict(), exit_status([report])


def _cmd_campaign(args) -> tuple:
    from .verify import default_campaign_config, run_campaign

    if args.config is not None:
        path = args.config
        base = os.environ.get(CONFIG_DIR_ENV)
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    else:
        cfg = default_campaign_config()
    if args.seed is not None:
        if not isinstance(cfg, dict):
            raise InputError(f"malformed campaign config: expected an object, got {cfg!r}")
        cfg["seed"] = args.seed
    reports = run_campaign(cfg, jsonl_path=args.jsonl, csv_path=args.csv)
    code = exit_status(reports)
    if args.output != "pretty":
        return [r.to_dict() for r in reports], code
    for rep in reports:
        print(rep.summary_line())
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for rep in reports:
        counts[rep.status] += 1
    print(
        f"{len(reports)} checks: {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['inconclusive']} inconclusive"
    )
    return None, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glsobolev",
        description="Sharp weighted Sobolev constants, grand Lebesgue norms, "
        "and numerical inequality verification on radial profiles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, handler):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--output", choices=("json", "csv", "pretty"), default="json")
        p.set_defaults(handler=handler)
        return p

    p = command("constants", "sharp constants and exponent laws", _cmd_constants)
    p.add_argument("--A", required=True, help="comma-separated weight exponents")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--B", help="trace-side exponents (with --r)")
    p.add_argument("--r", type=int, help="trace subspace dimension")
    p.add_argument("--variant", choices=("corrected", "literal"), default="corrected")

    p = command("norm", "weighted Lp norm of a radial profile", _cmd_norm)
    p.add_argument("--profile", required=True, help="e.g. bump:1.0,2.0")
    p.add_argument("--A", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--gradient", action="store_true")

    p = command("gls-norm", "grand Lebesgue norm", _cmd_gls_norm)
    p.add_argument("--profile", required=True)
    p.add_argument("--psi", required=True, help="constant:a[,b] | power:a,b,alpha,beta | table:p=v,...")
    p.add_argument("--A", required=True)
    p.add_argument("--gradient", action="store_true")

    p = command("fundamental", "fundamental function of a grand space", _cmd_fundamental)
    p.add_argument("--psi", required=True)
    p.add_argument("--delta", required=True, help="comma-separated measures")

    p = command("zeta", "exponent-law transform of a weight", _cmd_zeta)
    p.add_argument("--psi", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--q", required=True, help="comma-separated evaluation points")
    p.add_argument("--variant", choices=("corrected", "literal"), default="corrected")

    p = command("morrey", "continuity-modulus bound", _cmd_morrey)
    p.add_argument("--profile", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--measure", action="store_true", help="also sample the modulus")

    p = command("scaling", "dilation exponents of both sides", _cmd_scaling)
    p.add_argument("--profile", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float)

    p = command("trace", "radial trace inequality check", _cmd_trace)
    p.add_argument("--profile", required=True)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--slack", type=float, default=DEFAULT_SLACK)

    p = command("campaign", "run a battery of inequality checks", _cmd_campaign)
    p.add_argument("--config", help=f"JSON config (relative paths use ${CONFIG_DIR_ENV})")
    p.add_argument("--seed", type=int)
    p.add_argument("--jsonl", help="write full reports here")
    p.add_argument("--csv", help="write the summary table here")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.handler(args)
    except DivergentIntegralError as exc:
        print(f"divergent: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # DomainError, InputError, JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: input too large for float arithmetic: {exc}", file=sys.stderr)
        return 2
    if payload is not None:
        _emit(payload, args.output)
    if code == 3:  # every exit 3 gives its reason in one stderr line
        print("not certified: the printed result is flagged unconverged or inconclusive",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
