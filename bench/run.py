"""glsobolev benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload campaign --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``campaign``, ``lp-battery`` and
``grand-unbounded``.  The seed selects one of 16 input sets (seed mod 16);
the outputs of every item are compared with ``references.json``, recorded
from the same input sets by ``record_references.py``.

Load is a closed loop from one caller: the workload's fixed item list runs
as a *pass*, items back to back, and passes repeat until ``--seconds`` have
elapsed (at least the workload's MIN_PASSES of them).  The process and its
children run on one CPU with BLAS capped to one thread; the library is
single-threaded.
With ``--trace 0`` the passes run untraced and the run reports the
end-to-end metrics, with wall times rescaled to a reference host speed by
the probes in ``speed.py`` (the raw figures are printed beside them); one
traced pass before the timed ones counts profile evaluations.  With
``--trace 1`` untraced and traced passes alternate; the run reports
per-layer metrics from the traced passes (raw wall times), the tracing
overhead, and an import-time breakdown of the CLI cold start, checks that
the counters repeat exactly, and writes the spans of the first traced pass
to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_PROBE_S, SpeedTimeline

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CLI_ARGS = ["constants", "--A", "1,2", "--p", "2"]
CLI_EXPECTED_C = 0.47180266613023075  # sharp constant at A = (1, 2), p = 2


def _pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU of those allowed.

    The cores of the host drift in speed independently, so the speed probes
    only describe the measured work when both run on the same core.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _ncpu() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_env() -> dict:
    n = str(_ncpu())
    return {name: n for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(_thread_env())
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# ------------------------------------------------------------------ set-up


def _cli_cold_start() -> float:
    """Wall time of a fresh interpreter running the CLI once; checks output."""
    cmd = [sys.executable, "-m", "glsobolev", *CLI_ARGS]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"CLI cold start exited {proc.returncode}: {proc.stderr.strip()}")
    c = json.loads(proc.stdout)["C"]
    if not math.isclose(c, CLI_EXPECTED_C, rel_tol=1e-12):
        raise RuntimeError(f"CLI printed C = {c}, expected {CLI_EXPECTED_C}")
    return dt


_IMPORTTIME_SNIPPET = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
from glsobolev.cli import main
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
t2 = time.perf_counter()
print(json.dumps({"code": code, "first_call_s": t2 - t1}))
"""


def _import_breakdown() -> dict:
    """cli.import_s and grand.import_s from ``-X importtime``, and the time
    of the first CLI call after import, in one fresh interpreter."""
    cmd = [sys.executable, "-X", "importtime", "-c", _IMPORTTIME_SNIPPET, json.dumps(CLI_ARGS)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import-time probe exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["code"] != 0:
        raise RuntimeError(f"CLI call in import-time probe returned {result['code']}")
    cli_us = grand_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        if name.strip() == "glsobolev.grand":
            grand_us = int(cumulative)
        if name.startswith(" glsobolev"):  # top level: one space after '|'
            cli_us += int(cumulative)
    return {"cli.import_s": cli_us * 1e-6, "grand.import_s": grand_us * 1e-6,
            "cli.first_call_s": result["first_call_s"]}


# ------------------------------------------------------------ output check


def encode_value(v):
    if v is None or math.isfinite(v):
        return v
    return repr(v)  # 'inf', '-inf', 'nan'


def _decode_value(v):
    return float(v) if isinstance(v, str) else v


def key_digest(outcomes) -> str:
    return hashlib.sha256("\n".join(o.key for o in outcomes).encode()).hexdigest()


def _matches(o, ref_status, ref_value) -> bool:
    if o.status != ref_status:
        return False
    if o.value is None or ref_value is None:
        return o.value is None and ref_value is None
    if math.isnan(ref_value) or math.isinf(ref_value):
        return repr(o.value) == repr(ref_value)
    return abs(o.value - ref_value) <= max(o.atol, o.rtol * abs(ref_value))


class OutputCheck:
    """Compares each pass with the outcomes recorded for its input set."""

    def __init__(self, workload: str, cls: int):
        data = json.loads(REFERENCES.read_text())
        self.ref = data["workloads"][workload][str(cls)]
        self.mismatches: dict[str, str] = {}
        self.failures: dict[str, str] = {}

    def check(self, outcomes) -> int:
        """Returns the number of failed items in this pass."""
        refs = self.ref["outcomes"]
        if key_digest(outcomes) != self.ref["keys"] or len(refs) != len(outcomes):
            self.mismatches["<item list>"] = "item keys differ from the recorded list"
            return len(outcomes)
        failed = 0
        for o, (status, value) in zip(outcomes, refs):
            value = _decode_value(value)
            ok = _matches(o, status, value)
            if not ok:
                self.mismatches[o.key] = (f"got {o.status} {o.value!r}, "
                                          f"recorded {status} {value!r}")
            if not ok or o.status != "pass":
                failed += 1
                self.failures[o.key] = o.status
        return failed


# ------------------------------------------------------------------ passes


def _quantile_tail(latencies: list[float], per_pass: int, min_passes: int):
    """(latency, percentile, samples beyond) at the quantile that leaves ten
    samples beyond it in min_passes passes.  The quantile is fixed per
    workload, so it does not move with the number of passes a run makes."""
    q = 1.0 - 10.0 / (min_passes * per_pass)
    xs = sorted(latencies)
    k = min(max(math.ceil(q * len(xs)) - 1, 0), len(xs) - 1)
    return xs[k], 100.0 * q, len(xs) - 1 - k


def _run_untraced(workload, seconds: float) -> tuple[list, SpeedTimeline]:
    """Passes back to back until ``seconds`` have elapsed (at least the
    workload's MIN_PASSES), with speed probes between chunks of items."""
    from workloads import Hooks

    class ProbingHooks(Hooks):
        def begin_item(self, key: str) -> None:
            if timeline.due():
                timeline.probe()

    timeline = SpeedTimeline()
    hooks = ProbingHooks()
    passes = []
    timeline.probe()
    deadline = time.perf_counter() + seconds
    while len(passes) < workload.MIN_PASSES or time.perf_counter() < deadline:
        passes.append(workload.run_pass(hooks))
        timeline.probe()
    return passes, timeline


def _traced_pass(workload, tracer, check: OutputCheck) -> tuple[dict, float, int, int]:
    tracer.reset()
    tracer.install()
    try:
        t0 = time.perf_counter()
        outcomes = workload.run_pass(tracer)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer.metrics(), wall, len(outcomes), check.check(outcomes)


# ------------------------------------------------------------------ output


def _machine() -> str:
    import numpy
    import scipy

    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, pinned to "
            f"{_ncpu()} CPU, BLAS threads capped at {_thread_env()['OPENBLAS_NUM_THREADS']}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


UNITS = {"_s": "s", ".s": "s", "_frac": "frac", ".bytes": "bytes"}


def _unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _setup_times() -> tuple[list[float], list[float]]:
    """Raw and rescaled CLI cold-start times; the first start, which
    compiles the package's bytecode, is not counted."""
    timeline = SpeedTimeline()
    _cli_cold_start()
    starts, raw = [], []
    timeline.probe()
    for _ in range(SETUP_REPEATS):
        starts.append(time.perf_counter())
        raw.append(_cli_cold_start())
        timeline.probe()
    return raw, [dt * timeline.factor_at(t) for t, dt in zip(starts, raw)]


def run_end_to_end(workload, check, seconds) -> tuple:
    from tracing import Tracer

    setup_raw, setup = _setup_times()
    tracer = Tracer(keep_spans=False)
    counts, _, _, _ = _traced_pass(workload, tracer, check)
    passes, timeline = _run_untraced(workload, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [o for p in passes for o in p]
    attempted = len(outcomes)
    failed = sum(check.check(p) for p in passes)
    latency = [o.latency * timeline.factor_at(o.start) for o in outcomes]
    raw_latency = [o.latency for o in outcomes]
    work_raw, work = timeline.scaled_work()
    per_pass = attempted // len(passes)
    tail, pct, beyond = _quantile_tail(latency, per_pass, workload.MIN_PASSES)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "checks_per_s": _metric(attempted / work, "1/s"),
        "check_p50_ms": _metric(1e3 * statistics.median(latency), "ms"),
        "check_tail_ms": _metric(1e3 * tail, "ms"),
        "pass_frac": _metric((attempted - failed) / attempted, "frac"),
        "profile_evals": _metric(counts["profiles.evals"], "count"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    raw_tail, _, _ = _quantile_tail(raw_latency, per_pass, workload.MIN_PASSES)
    notes = [
        f"{len(passes)} passes x {per_pass} items; median probe "
        f"{1e3 * timeline.median_probe():.3f} ms against {1e3 * REFERENCE_PROBE_S:.3f} ms",
        f"raw (not rescaled): checks_per_s {attempted / work_raw:.6g}, check_p50_ms "
        f"{1e3 * statistics.median(raw_latency):.6g}, check_tail_ms {1e3 * raw_tail:.6g}, "
        f"setup_s {statistics.median(setup_raw):.6g}",
        f"check_tail_ms is the p{pct:.2f} latency of {attempted} samples "
        f"({beyond} beyond it)",
        f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})",
    ]
    return metrics, attempted, failed, notes, []


def run_traced(workload, check, seconds, spans_path) -> tuple:
    from tracing import Tracer
    from workloads import Hooks

    imports = [_import_breakdown() for _ in range(IMPORTTIME_REPEATS)]
    tracer = Tracer(keep_spans=True)
    workload.run_pass(Hooks())  # warm caches so every traced pass sees the same work
    traced, overheads = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        outcomes = workload.run_pass(Hooks())
        plain = time.perf_counter() - t0
        m, wall, n, nfail = _traced_pass(workload, tracer, check)
        tracer.keep_spans = False  # spans of the first traced pass only
        attempted += len(outcomes) + n
        failed += check.check(outcomes) + nfail
        traced.append(m)
        overheads.append(wall - plain)
    metrics = {}
    for name in traced[0]:
        values = [m[name] for m in traced]
        if isinstance(values[0], int):
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = _metric(value, _unit_of(name))
    for name in ("cli.import_s", "cli.first_call_s", "grand.import_s"):
        metrics[name] = _metric(statistics.median(x[name] for x in imports), "s")
    metrics["trace.overhead_s"] = _metric(statistics.median(overheads), "s")
    metrics["trace.spans"] = _metric(len(tracer.spans), "count")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)

    problems = []
    for name in traced[0]:
        if isinstance(traced[0][name], int) and len({m[name] for m in traced}) != 1:
            problems.append(f"counter {name} differs between traced passes: "
                            f"{[m[name] for m in traced]}")
    first = traced[0]
    if first["quadrature.neval"] != first["quadrature.evals"]:
        problems.append(f"quadrature.neval {first['quadrature.neval']} != profile "
                        f"evaluations inside quadrature {first['quadrature.evals']}")
    notes = [f"{len(traced)} traced passes; spans of the first written to {spans_path}"]
    return metrics, attempted, failed, notes + problems, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glsobolev" / "__init__.py").is_file():
        print(f"error: no glsobolev sources under {SRC}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    os.environ.update(_thread_env())
    sys.path.insert(0, str(SRC))
    import glsobolev

    if Path(glsobolev.__file__).resolve().parent != SRC / "glsobolev":
        print(f"error: imported glsobolev from {glsobolev.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, seed_class

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(scratch))
    cls = seed_class(args.seed)
    check = OutputCheck(args.workload, cls)
    print(f"workload {args.workload}, seed {args.seed} (input set {cls}): "
          f"{workload.describe()}")
    print(_machine())

    try:
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
            metrics, attempted, failed, notes, problems = run_traced(
                workload, check, args.seconds, spans_path)
        else:
            metrics, attempted, failed, notes, problems = run_end_to_end(
                workload, check, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    for key, status in sorted(check.failures.items()):
        print(f"  failed item: [{status}] {key}")
    for key, why in sorted(check.mismatches.items()):
        print(f"  MISMATCH: {key}: {why}")
    correct = not check.mismatches and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
