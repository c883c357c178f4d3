"""Run one odpc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-eval --seed 7 --seconds 15 --trace 0

Run it from the root of a checkout: it imports odpc from ``src/`` there and
nowhere else. The workload is a single-process closed loop: one caller,
each iteration starts when the previous one has ended, for ``--seconds``
seconds and at least ``spec.MIN_ITERATIONS`` iterations. Outputs are
checked after each iteration, outside the timed section.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics, from spans wrapped around odpc's layer boundaries
(see spans.py). The second-to-last line of standard output is a
``summary:`` JSON object (AUROC, error rate, iteration times); the last line
is the result object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import time

_STARTED = time.perf_counter()  # before any heavy import: set-up time counts from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import spec

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Cap BLAS threads at nproc and make the checkout's odpc importable.

    Exits with an error when the checkout holds no odpc sources, or when
    ``import odpc`` would load another copy.
    """
    if not (SRC / "odpc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no odpc sources at {SRC / 'odpc'}; run from a checkout")
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(os.cpu_count() or 1))
    sys.path.insert(0, str(SRC))
    import odpc

    if Path(odpc.__file__).resolve().parent != (SRC / "odpc").resolve():
        raise SystemExit(f"perfbench: imported odpc from {odpc.__file__}, not from {SRC}")


def _timed_iteration(workload, tracer, times: list[float]) -> list[str]:
    """Run and time one iteration, then check its output; returns the problems."""
    if tracer is not None:
        tracer.begin_iteration()
    start = time.perf_counter()
    try:
        output = workload.iterate()
    except Exception:
        traceback.print_exc()
        return ["iteration raised"]
    finally:
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_iteration()
    try:
        return workload.check(output)
    except Exception:
        traceback.print_exc()
        return ["output check raised"]


def _setup_in_subprocess(name: str, seed: int) -> float:
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, setup_repeats: int = 1,
            min_iterations: int = spec.MIN_ITERATIONS) -> dict:
    """Set up and run one workload; returns the result object plus a summary.

    Set-up time runs from the start of this module to the end of the
    workload's set-up.
    With ``setup_repeats`` > 1 an untraced run also times that many - 1
    set-ups in fresh processes, waited for one at a time, and reports the median.
    """
    import spans
    import workloads

    imports_s = time.perf_counter() - _STARTED
    workload = workloads.make(name, seed, CHECKOUT)
    try:
        workload.setup()
        setups = [time.perf_counter() - _STARTED]
        if not trace:
            setups += [_setup_in_subprocess(name, seed) for _ in range(setup_repeats - 1)]

        tracer = spans.Tracer() if trace else None
        times: list[float] = []
        failed_flags: list[bool] = []
        if tracer is not None:
            tracer.install()
        try:
            begin = time.perf_counter()
            while len(times) < min_iterations or time.perf_counter() - begin < seconds:
                problems = _timed_iteration(workload, tracer, times)
                for problem in problems:
                    print(f"perfbench: {name} iteration {len(times)}: {problem}", file=sys.stderr)
                failed_flags.append(bool(problems))
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            final = workload.finish()
        except Exception:
            traceback.print_exc()
            final = ["run check raised"]
        for problem in final:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        if final:
            failed_flags[-1] = True
        summary = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "iterations": len(times),
            "iter_s_min": min(times),
            "iter_s_max": max(times),
            "imports_s": imports_s,
            "setup_s_samples": setups,
            "error_rate": sum(failed_flags) / len(times),
            **workload.summary(),
        }
    finally:
        workload.close()

    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "iter_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec.END_TO_END
    else:
        values = {"trace.iter_s": statistics.median(times), **tracer.metrics()}
        wanted = spec.PER_LAYER
    failed = sum(failed_flags)
    return {
        "summary": summary,
        "result": {
            "correct": failed == 0,
            "attempted": len(times),
            "failed": failed,
            "metrics": {m.name: {"value": float(values[m.name]), "unit": m.unit} for m in wanted},
        },
    }


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=_non_negative, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bootstrap()
    if args.setup_only:  # one set-up sample for a parent run; see measure()
        import workloads

        workload = workloads.make(args.workload, args.seed, CHECKOUT)
        try:
            workload.setup()
        finally:
            workload.close()
        print(time.perf_counter() - _STARTED)
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec.SETUP_REPEATS)
    print("summary: " + json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
