"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:

* BENCHMARK.json is what spec.py generates;
* installing the tracer wraps every target and uninstalling restores it;
* after an untraced run, and again after each traced run, every module
  attribute the tracer wraps is the original function, so spans cannot leak
  into end-to-end numbers;
* the counts in ``spec.EXACT_COUNTS`` repeat exactly across two traced runs
  of the same seed;
* every run passes its output checks.

Runs are in-process, one iteration each. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import sys

import run
import spec

SEED = 3


def _leaked(spans, before: dict) -> list[str]:
    now = spans.originals()
    return [f"{mod}.{attr}" for (mod, attr), fn in before.items() if now[(mod, attr)] is not fn]


def main() -> int:
    run.bootstrap()
    import spans

    problems = []
    on_disk = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text("utf-8"))
    if on_disk != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from spec.benchmark_json(); run perfbench/report.py")

    before = spans.originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        unwrapped = [key for key, fn in spans.originals().items()
                     if getattr(fn, "__wrapped__", None) is not before[key]]
    finally:
        tracer.uninstall()
    if unwrapped:
        problems.append(f"install did not wrap {unwrapped}")
    if _leaked(spans, before):
        problems.append(f"uninstall left wrappers on {_leaked(spans, before)}")

    for name in spec.WORKLOADS:
        outs = [run.measure(name, SEED, 0, False, min_iterations=1)]
        if _leaked(spans, before):
            problems.append(f"{name}: untraced run left wrappers on {_leaked(spans, before)}")
        counts = []
        for _ in range(2):
            outs.append(run.measure(name, SEED, 0, True, min_iterations=1))
            if _leaked(spans, before):
                problems.append(f"{name}: traced run left wrappers on {_leaked(spans, before)}")
            metrics = outs[-1]["result"]["metrics"]
            counts.append({key: metrics[key]["value"] for key in spec.EXACT_COUNTS})
        if any(not out["result"]["correct"] for out in outs):
            problems.append(f"{name}: a run failed its output checks")
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between traced runs: {counts}")
        print(f"{name}: counts {json.dumps(counts[0])}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
