"""Timing and counting spans wrapped around odpc's layer boundaries.

Callers bind odpc functions with ``from ... import``, so a wrapper must
replace the attribute in the module that *calls* the function, not in the
module that defines it. ``Tracer.install`` does that for every entry in
``TARGETS`` and ``Tracer.uninstall`` puts the original functions back; no
file of the program changes. Spans are kept in memory and summarised per
iteration; calls made outside an iteration (set-up, output checks) pass
straight through.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

_MIB = float(2**20)

# Sub-command of odpc.cli.main -> span name.
_CLI_SPANS = {"encode": "cli.encode_import", "gen-peers": "cli.gen_peers", "train": "cli.train"}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows(arr) -> int:
    values = getattr(arr, "values", arr)
    return int(np.shape(values)[0])


def _count_forward_rows(counts, args, kwargs, result):
    counts["head.forward_rows"] += _rows(_arg(args, kwargs, 1, "features"))


def _count_pairs(counts, args, kwargs, result):
    bank = _arg(args, kwargs, 1, "bank")
    counts["knn_detector.pairs"] += _rows(_arg(args, kwargs, 0, "queries")) * bank.rows


def _count_text_rows(counts, args, kwargs, result):
    counts["encoders.encode_texts_rows"] += len(_arg(args, kwargs, 0, "descriptions"))


def _count_written(counts, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    counts["persist.write_bank_mb"] += np.size(matrix) * 4 / _MIB  # stored as float32


def _count_read(counts, args, kwargs, result):
    counts["persist.read_bank_mb"] += result[0].nbytes / _MIB


def _count_skipped(counts, args, kwargs, result):
    counts["trainer.skipped_batches"] += sum(epoch.skipped for epoch in result.history)


# (calling module, attribute, span name, counter or None, measure peak memory)
TARGETS = (
    ("odpc.bench", "run_single", "bench.run_single", None, False),
    ("odpc.bench", "train", "trainer.train", _count_skipped, False),
    ("odpc.cli", "train", "trainer.train", _count_skipped, False),
    ("odpc.trainer", "sgd_step", "trainer.sgd_step", None, False),
    ("odpc.trainer", "build_negative_set", "losses.negatives", None, False),
    ("odpc.trainer", "loss_and_grad", "losses.loss_and_grad", None, False),
    ("odpc.losses", "forward_with_cache", "head.forward", _count_forward_rows, False),
    ("odpc.knn_detector", "forward", "head.bank_forward", None, False),
    ("odpc.bench", "init_head", "head.init", None, False),
    ("odpc.cli", "init_head", "head.init", None, False),
    ("odpc.cli", "save_checkpoint", "head.save_checkpoint", None, False),
    ("odpc.bench", "build_bank", "knn_detector.build_bank", None, True),
    ("odpc.bench", "bank_transform", "knn_detector.transform", None, False),
    ("odpc.bench", "knn_scores", "knn_detector.score", _count_pairs, True),
    ("odpc.bench", "auroc", "bench.auroc", None, False),
    ("odpc.bench", "load_manifest_dataset", "bench.load_manifest", None, False),
    ("odpc.bench", "generate_peer_classes", "peer_gen.generate", None, False),
    ("odpc.cli", "generate_peer_classes", "peer_gen.generate", None, False),
    ("odpc.bench", "toy_encode_texts", "encoders.encode_texts", _count_text_rows, False),
    ("odpc.cli", "toy_encode_texts", "encoders.encode_texts", _count_text_rows, False),
    # Called by the ingest workload itself; odpc calls it only during set-up.
    ("odpc.encoders", "toy_encode_images", "encoders.encode_images", None, False),
    ("odpc.cli", "import_embeddings", "encoders.import", None, False),
    ("odpc.persist", "write_bank", "persist.write_bank", _count_written, False),
    ("odpc.persist", "read_bank", "persist.read_bank", _count_read, False),
    ("odpc.cli", "main", "cli", None, False),
)


def originals() -> dict[tuple[str, str], object]:
    """The functions each target module binds right now, keyed by (module, attribute)."""
    return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, *_ in TARGETS}


class Tracer:
    """Spans for the iterations of one traced run."""

    def __init__(self) -> None:
        self._saved: dict[tuple[str, str], object] = {}
        self._active = False
        self._stack: list[float] = []  # time covered by child spans, per open span
        self._step_end: float | None = None
        self.step_intervals_ms: list[float] = []
        self.iterations: list[dict[str, float]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span, counter, peak in TARGETS:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved[(mod_name, attr)] = original
            setattr(module, attr, self._wrap(original, span, counter, peak))

    def uninstall(self) -> None:
        for (mod_name, attr), original in self._saved.items():
            setattr(importlib.import_module(mod_name), attr, original)
        self._saved.clear()

    def _wrap(self, fn, span, counter, peak):
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            name = span if span != "cli" else _CLI_SPANS.get(args[0][0], "cli.other")
            if name == "trainer.train":
                self._step_end = None
            if peak:
                tracemalloc.start()
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                duration = end - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
                self._seconds[name] += duration
                self._self_seconds[name] += duration - children
                if peak:
                    peak_mib = tracemalloc.get_traced_memory()[1] / _MIB
                    tracemalloc.stop()
                    self._peaks[name] = max(self._peaks[name], peak_mib)
            self._calls[name] += 1
            if name == "trainer.sgd_step":
                if self._step_end is not None:
                    self.step_intervals_ms.append((end - self._step_end) * 1e3)
                self._step_end = end
            if counter is not None:
                counter(self._counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording --------------------------------------------------------

    def begin_iteration(self) -> None:
        self._seconds: dict[str, float] = defaultdict(float)
        self._self_seconds: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self._counts: dict[str, float] = defaultdict(float)
        self._peaks: dict[str, float] = defaultdict(float)
        self._stack.clear()
        self._active = True

    def end_iteration(self) -> None:
        self._active = False
        s, own, counts, peaks = self._seconds, self._self_seconds, self._counts, self._peaks
        pairs = counts["knn_detector.pairs"]
        self.iterations.append({
            "trainer.train_s": s["trainer.train"],
            "trainer.steps": self._calls["trainer.sgd_step"],
            "trainer.sgd_step_s": s["trainer.sgd_step"],
            "trainer.self_s": own["trainer.train"],
            "trainer.skipped_batches": counts["trainer.skipped_batches"],
            "losses.loss_and_grad_s": s["losses.loss_and_grad"],
            "losses.self_s": own["losses.loss_and_grad"],
            "losses.negatives_s": s["losses.negatives"],
            "head.forward_s": s["head.forward"],
            "head.forward_rows": counts["head.forward_rows"],
            "head.bank_forward_s": s["head.bank_forward"],
            "head.init_s": s["head.init"],
            "head.save_checkpoint_s": s["head.save_checkpoint"],
            "knn_detector.build_bank_s": s["knn_detector.build_bank"],
            "knn_detector.build_bank_peak_mb": peaks["knn_detector.build_bank"],
            "knn_detector.transform_s": s["knn_detector.transform"],
            "knn_detector.score_s": s["knn_detector.score"],
            "knn_detector.pairs": pairs,
            "knn_detector.score_ns_per_pair": s["knn_detector.score"] / pairs * 1e9 if pairs else 0.0,
            "knn_detector.score_peak_mb": peaks["knn_detector.score"],
            "bench.auroc_s": s["bench.auroc"],
            "bench.self_s": own["bench.run_single"],
            "bench.load_manifest_s": s["bench.load_manifest"],
            "peer_gen.generate_s": s["peer_gen.generate"],
            "encoders.encode_texts_s": s["encoders.encode_texts"],
            "encoders.encode_texts_rows": counts["encoders.encode_texts_rows"],
            "encoders.encode_images_s": s["encoders.encode_images"],
            "encoders.import_s": s["encoders.import"],
            "persist.write_bank_s": s["persist.write_bank"],
            "persist.write_bank_mb": counts["persist.write_bank_mb"],
            "persist.read_bank_s": s["persist.read_bank"],
            "persist.read_bank_mb": counts["persist.read_bank_mb"],
            "cli.encode_import_s": s["cli.encode_import"],
            "cli.gen_peers_s": s["cli.gen_peers"],
            "cli.train_s": s["cli.train"],
        })

    def metrics(self) -> dict[str, float]:
        """Median over iterations of each per-iteration value, plus the
        percentiles of all train-step intervals of the run."""
        out = {
            name: float(statistics.median(it[name] for it in self.iterations))
            for name in self.iterations[0]
        }
        steps = self.step_intervals_ms
        out["trainer.step_ms_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
        out["trainer.step_ms_p95"] = float(np.percentile(steps, 95)) if steps else 0.0
        return out
