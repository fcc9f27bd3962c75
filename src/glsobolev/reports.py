"""Verification reports and their deterministic serialization.

Every inequality check produces a VerificationReport carrying the two
sides, the constant, the normalized ratio lhs / (constant * rhs), a
pass/fail/inconclusive status, tolerances, quadrature diagnostics, and a
sha256 digest of the canonical JSON encoding of the inputs.  Floats are
written with 17 significant digits so round-tripping is exact and repeated
runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .errors import InputError

INEQUALITY_IDS = (
    "sobolev-1.6a",
    "gls-5.6",
    "trace-6.3a",
    "morrey-7.8",
    "scaling-2.4",
)

#: relative slack a ratio may exceed 1 by and still pass
DEFAULT_SLACK = 1e-6

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"


def valid_slack(slack: float) -> float:
    """``slack`` itself when 0 <= slack < inf; any other value would switch
    off the pass/fail verdict, so it raises InputError."""
    if not 0.0 <= slack < math.inf:
        raise InputError(f"slack must satisfy 0 <= slack < inf, got {slack}")
    return slack


def format_float(x: float) -> str:
    """Shortest exact decimal contract: 17 significant digits."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def _encode(obj, out: list, sort_keys: bool) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(format_float(obj))
        else:
            out.append(f'"{format_float(obj)}"')
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out, sort_keys)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        keys = sorted(obj) if sort_keys else list(obj)
        for i, k in enumerate(keys):
            if i:
                out.append(",")
            _encode(str(k), out, sort_keys)
            out.append(":")
            _encode(obj[k], out, sort_keys)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, sort_keys: bool = False) -> str:
    """Compact JSON with 17-significant-digit floats; nan/inf as strings."""
    out: list = []
    _encode(obj, out, sort_keys)
    return "".join(out)


def canonical_digest(obj) -> str:
    """sha256 hex digest of the sorted-key canonical encoding."""
    import hashlib  # here, so the closed-form CLI does not load it

    return hashlib.sha256(dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass
class VerificationReport:
    """Outcome of one inequality check."""

    inequality_id: str
    lhs: float
    rhs: float
    constant: float
    inputs: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    quadrature: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    slack: float = DEFAULT_SLACK
    ratio: float = field(init=False)
    status: str = field(init=False)
    inputs_digest: str = field(init=False)

    def __post_init__(self):
        if self.inequality_id not in INEQUALITY_IDS:
            raise ValueError(
                f"unknown inequality id '{self.inequality_id}'; "
                f"known: {', '.join(INEQUALITY_IDS)}"
            )
        valid_slack(self.slack)
        denom = self.constant * self.rhs
        if (
            math.isfinite(self.lhs)
            and math.isfinite(denom)
            and denom > 0.0
        ):
            self.ratio = self.lhs / denom
            self.status = STATUS_PASS if self.ratio <= 1.0 + self.slack else STATUS_FAIL
        elif self.lhs == 0.0 and denom == 0.0:
            self.ratio = 0.0
            self.status = STATUS_PASS
        else:
            self.ratio = math.nan
            self.status = STATUS_INCONCLUSIVE
        if not self.quadrature.get("converged", True):
            self.status = STATUS_INCONCLUSIVE
        self.inputs_digest = canonical_digest(self.inputs)

    @property
    def passed(self) -> bool:
        return self.status == STATUS_PASS

    def to_dict(self) -> dict:
        return {
            "inequality-id": self.inequality_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "ratio": self.ratio,
            "pass": self.passed,
            "status": self.status,
            "inputs": self.inputs,
            "tolerances": self.tolerances,
            "quadrature-diagnostics": self.quadrature,
            "extra": self.extra,
            "inputs-digest": self.inputs_digest,
        }

    def to_json(self) -> str:
        return dumps(self.to_dict())

    def summary_line(self) -> str:
        return (
            f"[{self.status:>12s}] {self.inequality_id:<14s} "
            f"ratio = {self.ratio:.12g}"
        )


def sort_reports(reports) -> list:
    return sorted(reports, key=lambda r: (r.inputs_digest, r.inequality_id))


def write_jsonl(reports, path) -> None:
    """One canonical JSON object per line, sorted by inputs digest."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rep in sort_reports(reports):
            fh.write(rep.to_json())
            fh.write("\n")


def write_csv(reports, path) -> None:
    """Summary table: inequality-id, ratio, pass, diagnostics."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["inequality-id", "ratio", "pass", "diagnostics"])
        for rep in sort_reports(reports):
            writer.writerow(
                [
                    rep.inequality_id,
                    format_float(rep.ratio),
                    str(rep.passed).lower(),
                    dumps(rep.quadrature, sort_keys=True),
                ]
            )


def exit_status(reports) -> int:
    """0 all pass, 1 any failure, 3 inconclusive only."""
    statuses = {rep.status for rep in reports}
    if STATUS_FAIL in statuses:
        return 1
    if STATUS_INCONCLUSIVE in statuses:
        return 3
    return 0
