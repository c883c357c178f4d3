"""Run every workload untraced and traced, print each metric with its unit,
and write BENCHMARK.json.

    python3 perfbench/report.py [--seed 7] [--record perfbench/baseline.json]

Each run is a separate ``perfbench/run.py`` process, started one at a time
from the checkout root. The report prints the end-to-end metrics (with the
AUROC and error rate from each run's summary line), the per-layer metrics
of the traced run, and the tracing overhead: traced ``iter_s`` minus
untraced ``iter_s``. ``--record`` also writes the host description and all
figures to a JSON file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


def write_benchmark_json() -> Path:
    path = CHECKOUT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path


def host() -> dict:
    """nproc, interpreter and library versions, BLAS name and thread count,
    as a run of run.py sees them."""
    import run

    run.bootstrap()
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in run._BLAS_THREAD_VARS},
    }


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run.py process; returns its (summary, result) objects."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-2].removeprefix("summary: "))
    return summary, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--record", type=Path, help="also write host and figures to this JSON file")
    args = parser.parse_args()

    print(f"wrote {write_benchmark_json()}")
    info = host()
    print("host: " + json.dumps(info))
    record = {"host": info, "seed": args.seed, "seconds": spec.RUN_SECONDS, "workloads": {}}
    for name in spec.WORKLOADS:
        plain_summary, plain = run_once(name, args.seed, 0)
        traced_summary, traced = run_once(name, args.seed, 1)
        m, t = plain["metrics"], traced["metrics"]
        overhead = t["trace.iter_s"]["value"] - m["iter_s"]["value"]
        print(f"\n== {name} (seed {args.seed}, {plain['attempted']} untraced and "
              f"{traced['attempted']} traced iterations)")
        for metric in spec.END_TO_END:
            print(f"  {metric.name:<34} {m[metric.name]['value']:>14.6g} {metric.unit:<6}"
                  f" ({metric.better} is better, bound {metric.bound})")
        if "auroc" in plain_summary:
            print(f"  {'auroc':<34} {plain_summary['auroc']:>14.6g} {'ratio':<6} (higher is better)")
        print(f"  {'error_rate':<34} {plain_summary['error_rate']:>14.6g} {'ratio':<6}"
              f" (lower is better; {plain['failed']} of {plain['attempted']} untraced,"
              f" {traced['failed']} of {traced['attempted']} traced iterations failed)")
        print(f"  {'tracing overhead (iter_s)':<34} {overhead:>14.6g} {'s':<6}")
        for metric in spec.PER_LAYER:
            print(f"  {metric.name:<34} {t[metric.name]['value']:>14.6g} {metric.unit}")
        record["workloads"][name] = {
            "untraced": {"summary": plain_summary, "result": plain},
            "traced": {"summary": traced_summary, "result": traced},
            "tracing_overhead_s": overhead,
        }
    if args.record:
        args.record.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
