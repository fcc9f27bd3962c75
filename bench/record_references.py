"""Record the reference outcomes that ``run.py`` checks every pass against.

Runs one untraced pass of every workload on each of the SEED_CLASSES input
sets and writes ``references.json`` beside this file.  Run it only at a
commit whose outputs are trusted, from the root of a source checkout:

    python3 bench/record_references.py
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import SEED_CLASSES, WORKLOADS, Hooks

    scratch = run.OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    out = {"seed_classes": SEED_CLASSES, "workloads": {}}
    try:
        for name, cls in WORKLOADS.items():
            per_class = {}
            for c in range(SEED_CLASSES):
                outcomes = cls(c, str(scratch)).run_pass(Hooks())
                per_class[str(c)] = {
                    "keys": run.key_digest(outcomes),
                    "outcomes": [[o.status, run.encode_value(o.value)] for o in outcomes],
                }
                bad = sum(o.status != "pass" for o in outcomes)
                print(f"{name} input set {c}: {len(outcomes)} items, {bad} not pass")
            out["workloads"][name] = per_class
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
