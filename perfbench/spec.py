"""What the odpc benchmark measures: workloads, metrics, bounds and run length.

``BENCHMARK.json`` at the repository root is generated from this module by
``python3 perfbench/report.py``; ``perfbench/selftest.py`` fails when the
two disagree. This module imports nothing heavy, so the
report can read it without loading numpy.
"""

from __future__ import annotations

from typing import NamedTuple

# Seconds one run keeps starting iterations for; every run makes at least
# MIN_ITERATIONS iterations, so its outputs can be compared with each other.
RUN_SECONDS = 15
MIN_ITERATIONS = 2
# Set-up (imports, data generation and encoding) is timed this many times per
# untraced run, in the run's own process and in fresh ones, and the median is
# reported: a single import time varies by a third from run to run.
SETUP_REPEATS = 3

WORKLOADS = {
    "desk-eval": (
        "The desk synthetic eval users run most (20 epochs, 1,200 bank rows x 1,536-d): "
        "training is ~95% of it, so train-step work shows and KNN barely does."
    ),
    "large-score": (
        "CIFAR-10-sized 30,000-row bank, 100 queries, untrained head: bypasses the trainer, "
        "so KNN scoring and bank build are ~90% of it."
    ),
    "ingest": (
        "60,000 x 512 embeddings through write_bank, encode --import, gen-peers and "
        "train --epochs 0: persist, encoders, loaders and CLI; trainer and KNN bypassed."
    ),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("iter_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
)

PER_LAYER = (
    Metric("trace.iter_s", "s", "lower"),
    Metric("trainer.train_s", "s", "lower"),
    Metric("trainer.steps", "count", "lower"),
    Metric("trainer.step_ms_p50", "ms", "lower"),
    Metric("trainer.step_ms_p95", "ms", "lower"),
    Metric("trainer.sgd_step_s", "s", "lower"),
    Metric("trainer.self_s", "s", "lower"),
    Metric("trainer.skipped_batches", "count", "lower"),
    Metric("losses.loss_and_grad_s", "s", "lower"),
    Metric("losses.self_s", "s", "lower"),
    Metric("losses.negatives_s", "s", "lower"),
    Metric("head.forward_s", "s", "lower"),
    Metric("head.forward_rows", "count", "lower"),
    Metric("head.bank_forward_s", "s", "lower"),
    Metric("head.init_s", "s", "lower"),
    Metric("head.save_checkpoint_s", "s", "lower"),
    Metric("knn_detector.build_bank_s", "s", "lower"),
    Metric("knn_detector.build_bank_peak_mb", "MiB", "lower"),
    Metric("knn_detector.transform_s", "s", "lower"),
    Metric("knn_detector.score_s", "s", "lower"),
    Metric("knn_detector.pairs", "count", "lower"),
    Metric("knn_detector.score_ns_per_pair", "ns", "lower"),
    Metric("knn_detector.score_peak_mb", "MiB", "lower"),
    Metric("bench.auroc_s", "s", "lower"),
    Metric("bench.self_s", "s", "lower"),
    Metric("bench.load_manifest_s", "s", "lower"),
    Metric("peer_gen.generate_s", "s", "lower"),
    Metric("encoders.encode_texts_s", "s", "lower"),
    Metric("encoders.encode_texts_rows", "count", "lower"),
    Metric("encoders.encode_images_s", "s", "lower"),
    Metric("encoders.import_s", "s", "lower"),
    Metric("persist.write_bank_s", "s", "lower"),
    Metric("persist.write_bank_mb", "MiB", "lower"),
    Metric("persist.read_bank_s", "s", "lower"),
    Metric("persist.read_bank_mb", "MiB", "lower"),
    Metric("cli.encode_import_s", "s", "lower"),
    Metric("cli.gen_peers_s", "s", "lower"),
    Metric("cli.train_s", "s", "lower"),
)

# Per-layer counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = (
    "trainer.steps",
    "head.forward_rows",
    "knn_detector.pairs",
    "encoders.encode_texts_rows",
    "persist.write_bank_mb",
)

# The eval workloads draw their data seed from 0 .. REFERENCE_SEEDS - 1
# (workload seed modulo REFERENCE_SEEDS), so every run has an AUROC recorded
# in perfbench/reference.json (written by record_reference.py). The AUROC
# may differ from it by at most AUROC_TOLERANCE, absolute.
REFERENCE_SEEDS = 32
AUROC_TOLERANCE = 0.01
# Sampled large-score queries whose KNN score is compared with a float64
# direct-subtraction full scan, and the largest absolute difference allowed.
KNN_SAMPLE_ROWS = 16
KNN_TOLERANCE = 1e-5


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
