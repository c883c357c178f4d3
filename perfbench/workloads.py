"""The benchmark's workloads: set-up, one timed iteration, and output checks.

Every workload makes its inputs from the workload seed alone. ``setup``
generates and encodes the inputs, ``iterate`` is the timed work and returns
what ``check`` inspects afterwards, outside the timed section. ``check``
and ``finish`` return a list of problems; an empty list means correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import spec
from odpc import bench, cli, encoders, head, knn_detector, persist
from odpc.peer_gen import StubProvider, generate_peer_classes, load_peers
from odpc.trainer import TrainingConfig

REFERENCE = Path(__file__).with_name("reference.json")


class EvalWorkload:
    """One ``bench.run_benchmark`` repeat on a pre-generated synthetic dataset."""

    def __init__(self, name: str, settings: bench.PipelineSettings, seed: int) -> None:
        self.name = name
        self.settings = settings
        self.seed = seed % spec.REFERENCE_SEEDS  # the data seed; see spec.REFERENCE_SEEDS
        self.dataset: bench.FeatureDataset | None = None
        self.auroc: float | None = None
        # Recorded AUROC per data seed; keys are seeds written as strings.
        self._reference = json.loads(REFERENCE.read_text("utf-8")).get(name, {})

    def setup(self) -> None:
        data_spec = replace(self.settings.synthetic, seed=self.seed)
        self.dataset = bench.synthetic_feature_dataset(data_spec, self.settings.encoder)

    def iterate(self) -> float:
        result = bench.run_benchmark(
            "synthetic", 1, self.settings, base_seed=self.seed, dataset=self.dataset
        )
        return result.aurocs[0]

    def check(self, auroc: float) -> list[str]:
        if not math.isfinite(auroc):
            return [f"AUROC {auroc!r} is not finite"]
        if self.auroc is None:
            self.auroc = auroc
        elif auroc != self.auroc:
            return [f"AUROC {auroc!r} differs from this run's first iteration {self.auroc!r}"]
        ref = self._reference.get(str(self.seed))
        if ref is None:
            return [f"reference.json records no AUROC for data seed {self.seed}"]
        if abs(auroc - ref) > spec.AUROC_TOLERANCE:
            return [f"AUROC {auroc!r} is not within {spec.AUROC_TOLERANCE} of reference {ref!r}"]
        return []

    def finish(self) -> list[str]:
        return []

    def summary(self) -> dict:
        return {"auroc": self.auroc}

    def close(self) -> None:
        pass


class LargeScoreWorkload(EvalWorkload):
    """The eval repeat with a CIFAR-10-sized bank and an untrained head; after
    the run it repeats the iteration's two ``knn_scores`` calls, on the same
    ID and OOD query matrices, and checks sampled rows of their output
    against a float64 full scan."""

    def finish(self) -> list[str]:
        ds, settings, seed = self.dataset, self.settings, self.seed
        split = bench.make_split("synthetic", bench.ClassCatalog(classes=tuple(ds.class_names)), seed)
        known = list(split.known_classes)
        peers = generate_peer_classes(known, settings.peer, StubProvider(seed=seed))
        # epochs=0: the head scoring uses is the freshly initialised one.
        mlp = head.init_head(
            len(known), peers.distinct_peer_count(), seed=seed,
            feature_dim=ds.features.dim, hidden_dims=settings.hidden_dims,
        )
        feats = ds.features.values.astype(np.float64)
        bank = knn_detector.build_bank(mlp, feats[ds.rows_for(known, train=True)])
        id_q = knn_detector.bank_transform(mlp, feats[ds.rows_for(known, train=False)])
        ood_q = knn_detector.bank_transform(mlp, feats[ds.rows_for(list(split.unknown_classes), train=False)])
        k = min(settings.knn.k, bank.rows)
        id_scores = knn_detector.knn_scores(id_q, bank, k, settings.knn.backend)
        ood_scores = knn_detector.knn_scores(ood_q, bank, k, settings.knn.backend)
        problems = []
        if bench.auroc(id_scores, ood_scores) != self.auroc:
            problems.append("AUROC of the repeated knn_scores calls differs from the iterations'")
        queries = np.concatenate([id_q, ood_q])
        picks = np.linspace(0, queries.shape[0] - 1, spec.KNN_SAMPLE_ROWS).astype(np.int64)
        got = np.concatenate([id_scores, ood_scores])[picks]
        want = full_scan_kth(queries[picks], bank.vectors, k)
        err = float(np.max(np.abs(got - want)))
        if not err <= spec.KNN_TOLERANCE:
            problems.append(f"knn_scores differs from the float64 full scan by {err:.3e}")
        return problems


def full_scan_kth(queries: np.ndarray, bank: np.ndarray, k: int, chunk: int = 4096) -> np.ndarray:
    """k-th smallest Euclidean distance from each query to the bank rows, by
    direct subtraction in float64."""
    out = np.empty(queries.shape[0])
    for i, q in enumerate(np.asarray(queries, dtype=np.float64)):
        dists = np.concatenate([
            np.sqrt(np.sum((bank[lo : lo + chunk] - q) ** 2, axis=1))
            for lo in range(0, bank.shape[0], chunk)
        ])
        out[i] = np.partition(dists, k - 1)[k - 1]
    return out


@dataclass
class IngestOutput:
    workdir: Path
    written: np.ndarray
    exit_codes: list[int]
    stderr: list[str]


class IngestWorkload:
    """CIFAR-10 sample count through encode, persist and three CLI commands."""

    name = "ingest"

    def __init__(self, seed: int, work_root: Path) -> None:
        self.seed = seed
        self.work_root = work_root

    def setup(self) -> None:
        data_spec = bench.SyntheticSpec(train_per_class=5000, test_per_class=1000, seed=self.seed)
        self.names, self.raw, self.labels, self.is_train = bench.generate_synthetic_raw(data_spec)
        self.ids = [f"s{i:06d}" for i in range(self.labels.size)]
        self.encoder = encoders.ToyEncoderConfig(raw_dim=data_spec.raw_dim)

    def iterate(self) -> IngestOutput:
        work = Path(tempfile.mkdtemp(prefix="ingest-", dir=self.work_root))
        feats = encoders.toy_encode_images(self.raw, self.encoder)
        persist.write_bank(feats.values, work / "all.fb", normalized=True)
        bench.write_manifest(work / "labels.json", "synthetic", self.names, self.labels,
                             self.is_train, self.ids)
        seed = str(self.seed)
        commands = (
            ["encode", "--import", str(work / "all.fb"), "--out", str(work / "imported.fb")],
            ["gen-peers", "--labels", str(work / "labels.json"), "--provider", "stub",
             "--cache", str(work / "llm_cache.json"), "--out", str(work / "peers.json"),
             "--seed", seed],
            ["train", "--features", str(work / "imported.fb"), "--labels", str(work / "labels.json"),
             "--peers", str(work / "peers.json"), "--epochs", "0", "--seed", seed,
             "--out", str(work / "head.ckpt"), "--history", str(work / "loss_history.csv")],
        )
        exit_codes, stderr = [], []
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                exit_codes.append(cli.main(argv))
            stderr.append(err.getvalue())
        return IngestOutput(work, feats.values, exit_codes, stderr)

    def check(self, out: IngestOutput) -> list[str]:
        try:
            return self._problems(out)
        finally:
            shutil.rmtree(out.workdir, ignore_errors=True)

    def _problems(self, out: IngestOutput) -> list[str]:
        problems = []
        for code, err in zip(out.exit_codes, out.stderr):
            if code != 0:
                problems.append(f"CLI call exited {code}: {err.strip()}")
            elif any(line.startswith("{") and '"error"' in line for line in err.splitlines()):
                problems.append(f"CLI call reported an error: {err.strip()}")
        if problems:
            return problems
        reread, normalized = persist.read_bank(out.workdir / "imported.fb")
        if not (normalized and reread.shape == out.written.shape
                and np.array_equal(reread.view(np.uint32), out.written.view(np.uint32))):
            problems.append("re-read bank is not bit-equal to the written one")
        peers, _ = load_peers(out.workdir / "peers.json")
        n_classes = len(self.names)
        n_outputs = n_classes + peers.distinct_peer_count()
        mlp = head.load_checkpoint(out.workdir / "head.ckpt")
        dim = self.encoder.out_dim
        shapes = [w.shape for w in mlp.weights] + [b.shape for b in mlp.biases]
        shapes += [mlp.clf_weight.shape, mlp.clf_bias.shape]
        expected = [(dim, dim)] * 3 + [(dim,)] * 3 + [(n_outputs, dim), (n_outputs,)]
        if shapes != expected or mlp.num_id_classes != n_classes:
            problems.append(f"checkpoint shapes {shapes} differ from {expected}")
        return problems

    def finish(self) -> list[str]:
        return []

    def summary(self) -> dict:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.work_root, ignore_errors=True)


def make(name: str, seed: int, checkout: Path):
    """The workload called ``name`` for one seed; ingest writes under ``checkout``."""
    if name == "desk-eval":
        settings = bench.PipelineSettings(training=TrainingConfig(epochs=20))
        return EvalWorkload(name, settings, seed)
    if name == "large-score":
        settings = bench.PipelineSettings(
            training=TrainingConfig(epochs=0),
            synthetic=bench.SyntheticSpec(train_per_class=5000, test_per_class=10),
        )
        return LargeScoreWorkload(name, settings, seed)
    if name == "ingest":
        # In the checkout, not the system temp dir: the benchmark reads and
        # writes only inside its checkout.
        return IngestWorkload(seed, Path(tempfile.mkdtemp(prefix=".perfbench-ingest-", dir=checkout)))
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(spec.WORKLOADS)}")
