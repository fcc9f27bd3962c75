"""The benchmark's tracer (bench/tracing.py) measures the library by
replacing functions at the module attributes their callers look up.  These
tests fail when a refactor renames one of those attributes or routes the
grand layer or the checkers around them."""

import json
from pathlib import Path

import glsobolev.grand as ggrand
import glsobolev.verify as gverify
from glsobolev.profiles import bump
from glsobolev.quadrature import QuadratureDiagnostics

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_wrap_points_exist_and_see_library_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.WRAP_POINTS
        if not hasattr(module, attr)
    ]
    assert missing == []
    tracer = tracing.Tracer(keep_spans=False)
    tracer.install()
    try:
        u = tracer.profile(bump(1.0, 1.0))
        ggrand.gls_norm(u, ggrand.constant_psi(1.5, 2.5), (1.0, 2.0))
        # a one-point call computes its slice alone, through the wrapped
        # grand.weighted_lp_norm
        diag = QuadratureDiagnostics()
        ggrand._SliceTable(False, u, (1.0, 2.0), diag).outcomes([2.0])
        gverify.check_sobolev(u, (1.0, 2.0), 2.0)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["grand.slices"] > 0
    assert m["grand.sups"] == 1
    assert m["quadrature.neval"] == m["quadrature.evals"] > 0


def test_default_campaign_repeats_no_work(monkeypatch):
    """Every grand slice of the default campaign is distinct, and each
    profile's peaks are scanned once: seed 0 made 4,278,070 profile
    evaluations when every slice rescanned its profile, and it makes
    123,387; the ceiling is that count plus 5%, the benchmark's own bound
    on profile_evals."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    tracer = tracing.Tracer(keep_spans=False)
    tracer.install()
    try:
        gverify.run_campaign()
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["grand.slice_unique_frac"] == 1.0
    assert m["profiles.evals"] <= 129_556


def test_default_campaign_keeps_the_recorded_item_keys(monkeypatch, tmp_path):
    """The bench keys each campaign report by its inputs digest, and the
    Morrey inputs hold the calibrated c2, so a c2 that moves by one ulp turns
    every campaign item into a failure.  Seeds 0-2 are the bench's seed
    class 0; their keys must hash to the recorded digest."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run
    import workloads

    outcomes = workloads.CampaignWorkload(0, str(tmp_path)).run_pass(workloads.Hooks())
    recorded = json.loads(run.REFERENCES.read_text())["workloads"]["campaign"]["0"]
    assert run.key_digest(outcomes) == recorded["keys"]
