"""Span tracer that measures glsobolev layer by layer from outside.

``Tracer.install()`` replaces public functions at the module attributes the
*calling* module looks up (``glsobolev.grand.weighted_lp_norm`` is the slice
norm as grand sees it, ``glsobolev.norms.integrate_power_weighted`` is the
quadrature entry as norms sees it) and ``Tracer.uninstall()`` puts the
originals back.  Profile callables handed to the library are wrapped by
``Tracer.profile``; for the campaign, ``make_profile`` as ``verify`` sees it
returns wrapped profiles.  Nothing in the package changes.

Each wrapper opens a span (layer, name, parent, start, end, item) on a
stack.  A span's self time is its duration minus the durations of its child
spans; a layer's self time is the sum over its spans.  Profile evaluations
(points passed to a profile callable) are attributed to the innermost open
span.  Spans are kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

import glsobolev.constants as gconst
import glsobolev.grand as ggrand
import glsobolev.montecarlo as gmc
import glsobolev.norms as gnorms
import glsobolev.quadrature as gquad
import glsobolev.verify as gverify
from glsobolev.errors import DivergentIntegralError, QuadratureError

LARGE_P = 128.0
CHECK_KINDS = {
    "check_sobolev": "sobolev",
    "check_trace_radial": "trace",
    "verify_gls_sobolev": "gls",
    "check_morrey": "morrey",
    "check_scaling": "scaling",
}
SUP_CALLS = {"gls_norm": 1, "gls_gradient_norm": 1, "fundamental_function": 1,
             "verify_gls_sobolev": 3}
GRAND_NAMES = (
    "gls_norm",
    "gls_gradient_norm",
    "fundamental_function",
    "morrey_bound",
    "modulus_of_continuity",
    "calibrate_morrey_constant",
    "verify_gls_sobolev",
    "zeta_transform",
)

# (module, attribute, layer); the attribute name doubles as the span name
WRAP_POINTS = (
    [(gverify, name, "verify") for name in
     ("check_sobolev", "check_trace_radial", "check_morrey", "check_scaling")]
    + [(ggrand, name, "grand") for name in GRAND_NAMES]
    + [(gverify, name, "grand") for name in
       ("verify_gls_sobolev", "calibrate_morrey_constant", "modulus_of_continuity",
        "morrey_bound")]
    + [(mod, name, "norms") for mod in (ggrand, gverify, gnorms)
       for name in ("weighted_lp_norm", "weighted_gradient_norm")]
    + [(gverify, "radial_integral", "norms")]
    + [(gnorms, "integrate_power_weighted", "quadrature"),
       (gnorms, "extend_tail", "quadrature"),
       (gquad, "adaptive_quadrature", "quadrature")]
    + [(ggrand, "sharp_constant", "constants")]
    + [(gverify, name, "constants") for name in
       ("sharp_constant", "talenti_constant", "trace_bounds")]
    + [(gconst, "log_gamma", "gammafn"), (gnorms, "log_gamma", "gammafn")]
    + [(gverify, "write_jsonl", "reports"), (gverify, "write_csv", "reports")]
    + [(gmc, "monte_carlo_lp_norm", "montecarlo")]
)

def _value_of(out):
    return out[0] if isinstance(out, tuple) else out


class Tracer:
    """Spans and counters for one or more traced passes."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self._profiles: dict[int, object] = {}
        self.item = ""
        self.reset()

    # ---- bookkeeping ----------------------------------------------------

    def reset(self) -> None:
        """Zero the counters (spans already kept stay)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.evals: Counter = Counter()  # by innermost layer
        self.c: Counter = Counter()  # named counters
        self.slice_keys: set = set()
        self.ess: list[float] = []
        self._profiles = {}

    def _push(self, layer: str, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        frame = [layer, name, time.perf_counter(), 0.0, self._next_id,
                 parent[4] if parent else -1, parent[1] if parent else ""]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        layer, name, start, child = frame[0], frame[1], frame[2], frame[3]
        dur = end - start
        self.self_s[layer] += dur - child
        self.self_by_name[name] += dur - child
        self.incl_s[f"{layer}.{name}"] += dur
        self.calls[f"{layer}.{name}"] += 1
        if self._stack:
            self._stack[-1][3] += dur
        if self.keep_spans:
            self.spans.append((frame[4], frame[5], layer, name, start, end, self.item))

    # ---- wrapping -------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, slice_call: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            parent_name = tracer._stack[-1][1] if tracer._stack else ""
            if layer == "norms":
                tracer._on_norm_call(name, args, slice_call)
            frame = tracer._push(layer, name)
            try:
                out = fn(*args, **kwargs)
            except DivergentIntegralError as exc:
                tracer._pop(frame)
                tracer._on_error(layer, name, exc, "divergent")
                raise
            except QuadratureError as exc:
                tracer._pop(frame)
                tracer._on_error(layer, name, exc, "errors")
                raise
            except BaseException:
                tracer._pop(frame)
                raise
            tracer._pop(frame)
            tracer._on_result(layer, name, parent_name, args, kwargs, out, slice_call)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _quad_entry(self, name: str) -> bool:
        return name in ("integrate_power_weighted", "extend_tail")

    def _on_error(self, layer, name, exc, kind) -> None:
        if layer == "quadrature" and self._quad_entry(name):
            self.c[f"quadrature.{kind}"] += 1
            self.c["quadrature.neval"] += int(exc.diagnostics.get("neval", 0))
            self.c["quadrature.panels"] += int(exc.diagnostics.get("panels", 0))

    def _on_norm_call(self, name, args, slice_call) -> None:
        if name == "radial_integral":
            return
        u, A, p = args[0], args[1], args[2]
        if p >= LARGE_P:
            self.c["norms.large_p_calls"] += 1
        if slice_call:
            self.c["grand.slices"] += 1
            self.slice_keys.add((id(u), name, tuple(A), float(p)))

    def _on_result(self, layer, name, parent_name, args, kwargs, out, slice_call) -> None:
        if layer == "quadrature":
            if name == "adaptive_quadrature" and parent_name == "extend_tail":
                self.c["quadrature.tail_blocks"] += 1
            if self._quad_entry(name):
                diag = out[1]
                self.c["quadrature.neval"] += diag.neval
                self.c["quadrature.panels"] += diag.panels
                self.c["quadrature.unconverged"] += int(not diag.converged)
        elif slice_call:
            if isinstance(out, tuple) and not out[1].converged:
                self.c["grand.unconverged_slices"] += 1
        elif layer == "grand":
            n_sups = SUP_CALLS.get(name, 0)
            self.c["grand.sups"] += n_sups
            if name == "verify_gls_sobolev":
                values = (out.lhs, out.rhs, out.extra["slice-ratio-sup"])
                self.c["grand.divergent_sups"] += sum(math.isinf(v) for v in values)
            elif n_sups:
                self.c["grand.divergent_sups"] += int(math.isinf(_value_of(out)))
        elif layer == "reports":
            path = args[1] if len(args) > 1 else kwargs.get("path")
            self.c["reports.bytes"] += _file_size(path)
            if name == "write_jsonl":
                self.c["reports.count"] += len(args[0])
        elif layer == "montecarlo":
            self.c["montecarlo.samples"] += out.n_samples
            self.ess.append(out.effective_samples / out.n_samples)

    def _wrap_eval(self, fn, kind: str):
        tracer = self

        def counted(r):
            n = int(np.size(r))
            top = tracer._stack[-1] if tracer._stack else None
            tracer.evals[top[0] if top else "bench"] += n
            if top is not None and top[1] == "modulus_of_continuity":
                tracer.c["grand.modulus_evals"] += n
            frame = tracer._push("profiles", kind)
            try:
                return fn(r)
            finally:
                tracer._pop(frame)

        return counted

    def profile(self, u):
        """Copy of profile u whose value/derivative count evaluations."""
        got = self._profiles.get(id(u))
        if got is None or got[0] is not u:
            wrapped = replace(
                u,
                value=self._wrap_eval(u.value, "value"),
                derivative=self._wrap_eval(u.derivative, "derivative"),
                check=False,
            )
            got = (u, wrapped)
            self._profiles[id(u)] = got
        return got[1]

    def begin_item(self, key: str) -> None:
        self.item = key

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, layer in WRAP_POINTS:
            orig = getattr(mod, attr)
            slice_call = mod is ggrand and layer == "norms"
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, layer, attr, slice_call))
        orig_make = gverify.make_profile
        self._saved.append((gverify, "make_profile", orig_make))
        setattr(gverify, "make_profile", lambda *a: self.profile(orig_make(*a)))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    # ---- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counters and times of the traced work so far."""
        c, inc = self.c, self.incl_s
        slices = c["grand.slices"]
        m = {
            "profiles.evals": sum(self.evals.values()),
            "profiles.self_s": self.self_s["profiles"],
            "norms.calls": sum(v for k, v in self.calls.items()
                               if k.startswith("norms.")),
            "norms.large_p_calls": c["norms.large_p_calls"],
            "norms.own_evals": self.evals["norms"],
            "norms.self_s": self.self_s["norms"],
            "quadrature.calls": self.calls["quadrature.integrate_power_weighted"]
            + self.calls["quadrature.extend_tail"],
            "quadrature.neval": c["quadrature.neval"],
            "quadrature.evals": self.evals["quadrature"],
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.self_s": self.self_s["quadrature"],
            # self time of integrate_power_weighted: all but its
            # adaptive_quadrature child and profile calls, i.e. the Jacobi head
            "quadrature.head_s": self.self_by_name["integrate_power_weighted"],
            "quadrature.tail_blocks": c["quadrature.tail_blocks"],
            "quadrature.tail_s": inc["quadrature.extend_tail"],
            "quadrature.unconverged": c["quadrature.unconverged"],
            "quadrature.errors": c["quadrature.errors"],
            "quadrature.divergent": c["quadrature.divergent"],
            "grand.sups": c["grand.sups"],
            "grand.slices": slices,
            "grand.slice_unique_frac": len(self.slice_keys) / slices if slices else 0.0,
            "grand.unconverged_slices": c["grand.unconverged_slices"],
            "grand.divergent_sups": c["grand.divergent_sups"],
            "grand.self_s": self.self_s["grand"],
            "grand.modulus_evals": c["grand.modulus_evals"],
            "grand.modulus_s": inc["grand.modulus_of_continuity"],
        }
        for fn_name, kind in CHECK_KINDS.items():
            layer = "grand" if kind == "gls" else "verify"
            m[f"verify.{kind}.calls"] = self.calls[f"{layer}.{fn_name}"]
            m[f"verify.{kind}.s"] = inc[f"{layer}.{fn_name}"]
        m["verify.calibrate_s"] = inc["grand.calibrate_morrey_constant"]
        for layer in ("constants", "gammafn"):
            m[f"{layer}.calls"] = sum(v for k, v in self.calls.items()
                                      if k.startswith(layer + "."))
            m[f"{layer}.self_s"] = self.self_s[layer]
        m["reports.count"] = c["reports.count"]
        m["reports.bytes"] = c["reports.bytes"]
        m["reports.write_s"] = inc["reports.write_jsonl"] + inc["reports.write_csv"]
        m["montecarlo.calls"] = self.calls["montecarlo.monte_carlo_lp_norm"]
        m["montecarlo.samples"] = c["montecarlo.samples"]
        m["montecarlo.s"] = inc["montecarlo.monte_carlo_lp_norm"]
        m["montecarlo.ess_frac"] = float(np.mean(self.ess)) if self.ess else 0.0
        return m

    def write_spans(self, path) -> int:
        """One JSON array per line: id, parent id (-1 at the top), layer,
        name, start and end in microseconds from the first span, and the
        item the span belongs to."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, name, start, end, item in self.spans:
                fh.write(json.dumps([sid, parent, layer, name, round(1e6 * (start - t0), 1),
                                     round(1e6 * (end - t0), 1), item]))
                fh.write("\n")
        return len(self.spans)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0
