"""Record the reference AUROC of each eval workload for every data seed.

    python3 perfbench/record_reference.py

Run from the root of a checkout. For each data seed 0 .. spec.REFERENCE_SEEDS - 1
it sets up and runs one iteration of ``desk-eval`` and ``large-score`` and
writes the AUROCs to perfbench/reference.json. Re-record only when a change
to odpc is meant to change results.
"""

from __future__ import annotations

import json
import sys

import run
import spec


def main() -> int:
    run.bootstrap()
    import workloads

    reference = {}
    for name in ("desk-eval", "large-score"):
        reference[name] = {}
        for seed in range(spec.REFERENCE_SEEDS):
            workload = workloads.make(name, seed, run.CHECKOUT)
            workload.setup()
            reference[name][str(seed)] = workload.iterate()
            print(f"{name} seed {seed}: {reference[name][str(seed)]!r}", flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
