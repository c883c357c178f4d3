"""Benchmark harness: open-set splits, openness, AUROC, repeated end-to-end
runs, result tables, and 2-D projection export.

Real image datasets enter only as imported embedding files plus a labels
manifest; the harness never touches pixels. A built-in ``synthetic``
protocol (seeded Gaussian clusters, 6 ID + 4 OOD classes) gives desk-scale
end-to-end runs with the toy encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import persist
from .encoders import EmbeddingMatrix, ToyEncoderConfig, toy_encode_images, toy_encode_texts
from .errors import ConfigError, InvalidArgumentError
from .head import init_head
from .knn_detector import (
    KnnConfig,
    bank_from_vectors,
    bank_transform,
    build_bank,
    knn_scores,
    passthrough_transform,
)
from .losses import LossConfig
from .peer_gen import PeerClassSet, PeerGenConfig, StubProvider, generate_peer_classes, render_description
from .trainer import TrainingConfig, train

PROTOCOLS = (
    "cifar10_6v4",
    "cifar_plus_10",
    "cifar_plus_50",
    "cifar100_20v80",
    "tinyimagenet_20v180",
    "synthetic",
)

# (known classes, unknown classes) demanded by each protocol.
PROTOCOL_COUNTS = {
    "cifar10_6v4": (6, 4),
    "cifar_plus_10": (4, 10),
    "cifar_plus_50": (4, 50),
    "cifar100_20v80": (20, 80),
    "tinyimagenet_20v180": (20, 180),
    "synthetic": (6, 4),
}

VARIANTS = ("pcc_ce", "pcc_only", "ce_only", "pcc_ce_nomix", "passthrough")


# ---------------------------------------------------------------------------
# class catalogs and splits

@dataclass(frozen=True)
class ClassCatalog:
    """Class names available to a protocol, with animal markers.

    ``extra_classes`` holds the secondary dataset feeding the cifar_plus
    protocols (known classes come from `classes`, unknown from the extras).
    """

    classes: tuple[str, ...]
    animal_classes: frozenset[str] = frozenset()
    extra_classes: tuple[str, ...] = ()
    extra_animal_classes: frozenset[str] = frozenset()


def _load_static_catalogs() -> dict:
    text = resources.files("odpc.data").joinpath("class_catalogs.json").read_text("utf-8")
    return json.loads(text)


# Synthetic class names are adjective-noun labels drawn from the same word
# family the stub peer generator uses, so peer labels read like near misses
# of the ID classes.
_SYN_ADJECTIVES = (
    "amber", "arctic", "bronze", "coastal", "dappled",
    "golden", "marbled", "painted", "ringed", "spotted",
)
_SYN_NOUNS = (
    "badger", "bobcat", "civet", "drongo", "grebe",
    "jackal", "marten", "ocelot", "pipit", "serval",
)


def synthetic_class_names(n_classes: int = 10) -> tuple[str, ...]:
    if n_classes > len(_SYN_ADJECTIVES) * len(_SYN_NOUNS):
        raise InvalidArgumentError(f"at most 100 synthetic classes supported, got {n_classes}")
    names = []
    for i in range(n_classes):
        adj = _SYN_ADJECTIVES[i % 10]
        noun = _SYN_NOUNS[(i + i // 10) % 10]
        names.append(f"{adj} {noun}")
    return tuple(names)


def builtin_catalog(protocol: str) -> ClassCatalog:
    """Catalog shipped with the package for a protocol."""
    if protocol == "synthetic":
        return ClassCatalog(classes=synthetic_class_names())
    static = _load_static_catalogs()
    c10 = static["cifar10"]
    c100 = static["cifar100"]
    if protocol == "cifar10_6v4":
        return ClassCatalog(
            classes=tuple(c10["classes"]),
            animal_classes=frozenset(c10["animal_classes"]),
        )
    if protocol in ("cifar_plus_10", "cifar_plus_50"):
        return ClassCatalog(
            classes=tuple(c10["classes"]),
            animal_classes=frozenset(c10["animal_classes"]),
            extra_classes=tuple(c100["classes"]),
            extra_animal_classes=frozenset(c100["animal_classes"]),
        )
    if protocol == "cifar100_20v80":
        return ClassCatalog(
            classes=tuple(c100["classes"]),
            animal_classes=frozenset(c100["animal_classes"]),
        )
    if protocol == "tinyimagenet_20v180":
        raise ConfigError(
            "tinyimagenet_20v180 has no built-in catalog; supply a labels manifest"
        )
    raise InvalidArgumentError(f"unknown protocol {protocol!r}")


@dataclass(frozen=True)
class BenchmarkSplit:
    protocol: str
    known_classes: tuple[str, ...]
    unknown_classes: tuple[str, ...]
    seed: int

    def __post_init__(self):
        if set(self.known_classes) & set(self.unknown_classes):
            raise InvalidArgumentError("known and unknown classes overlap")
        counts = PROTOCOL_COUNTS.get(self.protocol)
        if counts and (len(self.known_classes), len(self.unknown_classes)) != counts:
            raise InvalidArgumentError(
                f"{self.protocol} expects {counts} known/unknown classes, got "
                f"({len(self.known_classes)}, {len(self.unknown_classes)})"
            )

    @property
    def n_train_classes(self) -> int:
        return len(self.known_classes)

    @property
    def n_unknown(self) -> int:
        return len(self.unknown_classes)

    @property
    def n_total_test_classes(self) -> int:
        return len(self.known_classes) + len(self.unknown_classes)

    @property
    def openness_pct(self) -> float:
        return openness(self.n_train_classes, self.n_total_test_classes)


def _sample(rng: np.random.Generator, pool: list[str], count: int, what: str) -> list[str]:
    if len(pool) < count:
        raise InvalidArgumentError(f"need {count} {what} classes, catalog has {len(pool)}")
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in picks]


def make_split(protocol: str, class_catalog: ClassCatalog, seed: int) -> BenchmarkSplit:
    """Protocol-specific known/unknown class sampling, deterministic per seed."""
    if protocol not in PROTOCOLS:
        raise InvalidArgumentError(f"unknown protocol {protocol!r}")
    n_known, n_unknown = PROTOCOL_COUNTS[protocol]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(5,)))
    if protocol in ("cifar_plus_10", "cifar_plus_50"):
        non_animal = [c for c in class_catalog.classes if c not in class_catalog.animal_classes]
        known = _sample(rng, non_animal, n_known, "non-animal known")
        extra_animals = [
            c for c in class_catalog.extra_classes if c in class_catalog.extra_animal_classes
        ]
        unknown = _sample(rng, extra_animals, n_unknown, "animal unknown")
    else:
        pool = list(class_catalog.classes)
        known = _sample(rng, pool, n_known, "known")
        remaining = [c for c in pool if c not in set(known)]
        unknown = _sample(rng, remaining, n_unknown, "unknown")
    return BenchmarkSplit(
        protocol=protocol,
        known_classes=tuple(known),
        unknown_classes=tuple(unknown),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# metrics

def openness(n_train_classes: int, n_total_test_classes: int) -> float:
    """Open-set difficulty in percent: 100 * (1 - sqrt(2*Ntr / (Ntr + Nte))).

    Ntr is the number of known classes and Nte the total number of classes
    seen at test (known + unknown). This is the form consistent with the
    standard printed benchmark figures; see openness_literal for the other
    reading.
    """
    if n_train_classes < 1 or n_total_test_classes < n_train_classes:
        raise InvalidArgumentError(
            f"need n_total_test >= n_train >= 1, got ({n_train_classes}, {n_total_test_classes})"
        )
    ratio = 2.0 * n_train_classes / (n_train_classes + n_total_test_classes)
    return float(100.0 * (1.0 - np.sqrt(ratio)))


def openness_literal(n_train_classes: int, n_total_test_classes: int, n_unknown: int) -> float:
    """Alternative reading with denominator Nte + Nunknown; documented for
    comparison, inconsistent with the usual printed values."""
    if n_train_classes < 1 or n_total_test_classes < 1 or n_unknown < 0:
        raise InvalidArgumentError("invalid class counts")
    ratio = min(2.0 * n_train_classes / (n_total_test_classes + n_unknown), 1.0)
    return float(100.0 * (1.0 - np.sqrt(ratio)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; each run of tied values gets the mean of its
    positions, an exact half-integer."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """P(ood score > id score) + 0.5 * P(tie), via rank statistics.

    OOD is the positive class; higher scores must mean "more OOD".
    """
    id_scores = np.asarray(id_scores, dtype=np.float64).ravel()
    ood_scores = np.asarray(ood_scores, dtype=np.float64).ravel()
    if id_scores.size == 0 or ood_scores.size == 0:
        raise InvalidArgumentError("auroc needs non-empty score lists for both classes")
    scores = np.concatenate([id_scores, ood_scores])
    if np.isnan(scores).any():
        return float("nan")
    ranks = _average_ranks(scores)
    n_id, n_ood = id_scores.size, ood_scores.size
    u = ranks[n_id:].sum() - n_ood * (n_ood + 1) / 2.0
    return float(u / (n_id * n_ood))


# ---------------------------------------------------------------------------
# synthetic data and feature datasets

@dataclass(frozen=True)
class SyntheticSpec:
    """Seeded Gaussian clusters in raw space, one cluster per class.

    Cluster centers mimic vision-language feature geometry: every class
    shares a large common component (the "a photo of"-ness all images
    share) plus a class-specific component built from the class name's
    hashed tokens, so raw image vectors start partially aligned with their
    encoded text descriptions. center_scale controls class separation
    (tuned so untrained-feature AUROC lands in 0.75-0.90); common_scale
    controls the shared component, i.e. how aligned matched image/text
    pairs start out.
    """

    n_classes: int = 10
    raw_dim: int = 64
    train_per_class: int = 200
    test_per_class: int = 100
    center_scale: float = 4.0
    common_scale: float = 6.0
    noise_scale: float = 1.0
    seed: int = 0


@dataclass
class FeatureDataset:
    """Per-sample encoder features with class labels and a train/test split."""

    class_names: list[str]
    features: EmbeddingMatrix
    labels: np.ndarray        # index into class_names
    is_train: np.ndarray      # bool mask, aligned with features rows
    sample_ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        n = self.features.rows
        if self.labels.shape != (n,) or self.is_train.shape != (n,):
            raise InvalidArgumentError("labels/split masks must align with feature rows")
        if not self.sample_ids:
            self.sample_ids = [f"s{i:06d}" for i in range(n)]

    def rows_for(self, class_names: list[str] | tuple[str, ...], train: bool) -> np.ndarray:
        idx = {name: i for i, name in enumerate(self.class_names)}
        wanted = {idx[name] for name in class_names}
        mask = np.isin(self.labels, sorted(wanted)) & (self.is_train == train)
        return np.flatnonzero(mask)


def _synthetic_centers(names: list[str], spec: SyntheticSpec) -> np.ndarray:
    from .encoders import bag_of_words_counts
    from .peer_gen import DEFAULT_DESCRIPTION_TEMPLATE

    common_text = DEFAULT_DESCRIPTION_TEMPLATE.replace("[CLASS]", "").strip()
    common = bag_of_words_counts(common_text, spec.raw_dim)
    return np.stack(
        [
            spec.center_scale
            * (spec.common_scale * common + bag_of_words_counts(name, spec.raw_dim))
            for name in names
        ]
    )


def generate_synthetic_raw(spec: SyntheticSpec) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Seeded Gaussian clusters; returns (class_names, raw, labels, is_train)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(11,)))
    names = list(synthetic_class_names(spec.n_classes))
    centers = _synthetic_centers(names, spec)
    per_class = spec.train_per_class + spec.test_per_class
    raw = np.empty((spec.n_classes * per_class, spec.raw_dim), dtype=np.float64)
    labels = np.empty(spec.n_classes * per_class, dtype=np.int64)
    is_train = np.zeros(spec.n_classes * per_class, dtype=bool)
    for c in range(spec.n_classes):
        lo = c * per_class
        raw[lo : lo + per_class] = centers[c] + rng.standard_normal((per_class, spec.raw_dim)) * spec.noise_scale
        labels[lo : lo + per_class] = c
        is_train[lo : lo + spec.train_per_class] = True
    return names, raw, labels, is_train


def synthetic_feature_dataset(spec: SyntheticSpec, encoder: ToyEncoderConfig) -> FeatureDataset:
    names, raw, labels, is_train = generate_synthetic_raw(spec)
    if encoder.raw_dim != spec.raw_dim:
        encoder = ToyEncoderConfig(seed=encoder.seed, raw_dim=spec.raw_dim, out_dim=encoder.out_dim)
    feats = toy_encode_images(raw, encoder)
    return FeatureDataset(class_names=names, features=feats, labels=labels, is_train=is_train)


def load_manifest_dataset(manifest_path: str | Path, features: EmbeddingMatrix) -> FeatureDataset:
    """Bind a labels manifest to an imported feature bank (row i = samples[i])."""
    doc = persist.read_json(manifest_path)
    if not isinstance(doc, dict) or "samples" not in doc or "classes" not in doc:
        raise ConfigError(f"{manifest_path}: not a valid labels manifest")
    samples = doc["samples"]
    if len(samples) != features.rows:
        raise ConfigError(
            f"{manifest_path}: {len(samples)} samples but feature bank has {features.rows} rows"
        )
    classes = list(doc["classes"])
    index = {name: i for i, name in enumerate(classes)}
    labels = np.array([index[s["class"]] for s in samples], dtype=np.int64)
    is_train = np.array([s["split"] == "train" for s in samples], dtype=bool)
    ids = [str(s["id"]) for s in samples]
    return FeatureDataset(
        class_names=classes, features=features, labels=labels, is_train=is_train, sample_ids=ids
    )


def catalog_from_manifest(manifest_path: str | Path) -> ClassCatalog:
    doc = persist.read_json(manifest_path)
    if not isinstance(doc, dict) or "classes" not in doc:
        raise ConfigError(f"{manifest_path}: not a valid labels manifest")
    return ClassCatalog(
        classes=tuple(doc["classes"]),
        animal_classes=frozenset(doc.get("animal_classes", [])),
    )


def write_manifest(
    path: str | Path,
    dataset_name: str,
    class_names: list[str],
    labels: np.ndarray,
    is_train: np.ndarray,
    sample_ids: list[str],
    animal_classes: list[str] | None = None,
) -> None:
    samples = [
        {"id": sid, "class": class_names[int(lb)], "split": "train" if tr else "test"}
        for sid, lb, tr in zip(sample_ids, labels, is_train)
    ]
    persist.write_json(
        path,
        {
            "dataset": dataset_name,
            "classes": list(class_names),
            "animal_classes": list(animal_classes or []),
            "samples": samples,
        },
    )


# ---------------------------------------------------------------------------
# end-to-end benchmark runs

@dataclass(frozen=True)
class PipelineSettings:
    """Everything one repeat of the benchmark pipeline needs."""

    training: TrainingConfig = field(default_factory=TrainingConfig)
    knn: KnnConfig = field(default_factory=KnnConfig)
    peer: PeerGenConfig = field(default_factory=PeerGenConfig)
    encoder: ToyEncoderConfig = field(default_factory=ToyEncoderConfig)
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    variant: str = "pcc_ce"
    peers: PeerClassSet | None = None   # pre-generated peers; stub-generated if None
    hidden_dims: tuple[int, ...] | None = None  # None -> (feature_dim,) * 3

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass
class EvalResult:
    protocol: str
    aurocs: list[float]
    seeds: list[int]
    openness_pct: float
    variant: str = "pcc_ce"

    @property
    def mean(self) -> float:
        return float(np.mean(self.aurocs))

    @property
    def std(self) -> float:
        return float(np.std(self.aurocs))


def _variant_loss(base: LossConfig, variant: str) -> LossConfig:
    if variant == "pcc_ce":
        return replace(base, use_pcc=True, use_ce=True, use_mixup=True)
    if variant == "pcc_only":
        return replace(base, use_pcc=True, use_ce=False, use_mixup=True)
    if variant == "ce_only":
        return replace(base, use_pcc=False, use_ce=True)
    if variant == "pcc_ce_nomix":
        return replace(base, use_pcc=True, use_ce=True, use_mixup=False)
    raise ConfigError(f"variant {variant!r} has no loss configuration")


def run_single(dataset: FeatureDataset, split: BenchmarkSplit, settings: PipelineSettings, seed: int) -> float:
    """Train (unless passthrough), build the bank, score ID/OOD test rows, AUROC."""
    known = list(split.known_classes)
    train_rows = dataset.rows_for(known, train=True)
    id_rows = dataset.rows_for(known, train=False)
    ood_rows = dataset.rows_for(list(split.unknown_classes), train=False)
    if train_rows.size == 0 or id_rows.size == 0 or ood_rows.size == 0:
        raise InvalidArgumentError("split leaves an empty train/ID-test/OOD-test set")

    values = dataset.features.values
    train_x, id_x, ood_x = (
        np.asarray(values[rows], dtype=np.float64) for rows in (train_rows, id_rows, ood_rows)
    )

    if settings.variant == "passthrough":
        bank_vecs = passthrough_transform(train_x)
        id_q = passthrough_transform(id_x)
        ood_q = passthrough_transform(ood_x)
        bank = bank_from_vectors(bank_vecs)
    else:
        name_to_local = {name: i for i, name in enumerate(known)}
        global_to_local = {
            dataset.class_names.index(name): name_to_local[name] for name in known
        }
        train_y = np.array([global_to_local[int(g)] for g in dataset.labels[train_rows]])

        peers = settings.peers
        if peers is None:
            provider = StubProvider(seed=seed)
            peers = generate_peer_classes(known, settings.peer, provider)
        class_texts = toy_encode_texts(
            [render_description(name, settings.peer) for name in known], settings.encoder
        ).values.astype(np.float64)
        peer_texts = {
            name_to_local[name]: toy_encode_texts(
                [render_description(p, settings.peer) for p in peers.peers[name]],
                settings.encoder,
            ).values.astype(np.float64)
            for name in known
            if peers.peers.get(name)
        }

        head = init_head(
            num_id_classes=len(known),
            num_peer_outputs=peers.distinct_peer_count(),
            seed=seed,
            feature_dim=dataset.features.dim,
            hidden_dims=settings.hidden_dims,
        )
        cfg = replace(
            settings.training,
            seed=seed,
            loss=_variant_loss(settings.training.loss, settings.variant),
        )
        train(train_x, train_y, class_texts, peer_texts, head, cfg)

        bank = build_bank(head, train_x)
        id_q = bank_transform(head, id_x)
        ood_q = bank_transform(head, ood_x)

    k = min(settings.knn.k, bank.rows)
    id_scores = knn_scores(id_q, bank, k, settings.knn.backend)
    ood_scores = knn_scores(ood_q, bank, k, settings.knn.backend)
    return auroc(id_scores, ood_scores)


def run_benchmark(
    protocol: str,
    repeats: int,
    settings: PipelineSettings,
    base_seed: int = 0,
    dataset: FeatureDataset | None = None,
    catalog: ClassCatalog | None = None,
) -> EvalResult:
    """Repeat split -> train -> bank -> score -> AUROC; aggregate mean/std.

    Repeat r uses seed base_seed + r for the split, peers, head init, and
    training, so results are reproducible end to end.
    """
    if repeats < 1:
        raise InvalidArgumentError(f"repeats must be >= 1, got {repeats}")
    if protocol == "synthetic" and dataset is None:
        spec = replace(settings.synthetic, seed=base_seed)
        dataset = synthetic_feature_dataset(spec, settings.encoder)
    if dataset is None:
        raise InvalidArgumentError(f"protocol {protocol!r} needs an imported dataset")
    if catalog is None:
        if protocol == "synthetic":
            catalog = ClassCatalog(classes=tuple(dataset.class_names))
        else:
            catalog = builtin_catalog(protocol)

    aurocs, seeds = [], []
    for r in range(repeats):
        seed = base_seed + r
        split = make_split(protocol, catalog, seed)
        aurocs.append(run_single(dataset, split, settings, seed))
        seeds.append(seed)
    n_known, n_unknown = PROTOCOL_COUNTS[protocol]
    return EvalResult(
        protocol=protocol,
        aurocs=aurocs,
        seeds=seeds,
        openness_pct=openness(n_known, n_known + n_unknown),
        variant=settings.variant,
    )


def write_results_csv(results: list[EvalResult], path: str | Path) -> None:
    lines = ["protocol,repeat,seed,auroc,openness"]
    for res in results:
        for r, (seed, score) in enumerate(zip(res.seeds, res.aurocs)):
            lines.append(f"{res.protocol},{r},{seed},{score!r},{res.openness_pct!r}")
    persist.atomic_write_text(path, "\n".join(lines) + "\n")


def read_results_csv(path: str | Path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                continue
            rows.append(dict(zip(header, parts)))
    return rows


def write_table_md(results_rows: list[dict], path: str | Path) -> None:
    """Aggregate per-repeat rows into a mean +- std markdown table."""
    by_protocol: dict[str, list[float]] = {}
    openness_by: dict[str, str] = {}
    for row in results_rows:
        by_protocol.setdefault(row["protocol"], []).append(float(row["auroc"]))
        openness_by[row["protocol"]] = row["openness"]
    lines = [
        "| protocol | openness (%) | AUROC (mean +- std) | repeats |",
        "| --- | --- | --- | --- |",
    ]
    for proto in sorted(by_protocol):
        vals = np.array(by_protocol[proto])
        lines.append(
            f"| {proto} | {float(openness_by[proto]):.2f} | "
            f"{vals.mean():.4f} +- {vals.std():.4f} | {len(vals)} |"
        )
    persist.atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# projection export

def pca_projection(data: np.ndarray, n_components: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Centered PCA with a deterministic sign convention.

    Returns (coords (n, n_components), components (n_components, dim)). Each
    component's first non-negligible loading is made positive.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise InvalidArgumentError("projection needs at least 3 samples")
    centered = x - x.mean(axis=0, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    scale = float(s[0]) if s.size else 0.0
    if scale < 1e-12:
        raise InvalidArgumentError("data has rank 0 after centering; nothing to project")
    comps = vt[:n_components].copy()
    if comps.shape[0] < n_components:
        comps = np.vstack([comps, np.zeros((n_components - comps.shape[0], x.shape[1]))])
    for row in comps:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    coords = centered @ comps.T
    return coords, comps


def export_projection(
    data: np.ndarray,
    labels: list[str],
    out_path: str | Path,
    id_flags: list[bool] | None = None,
    sample_ids: list[str] | None = None,
) -> np.ndarray:
    """Write (sample_id, x, y, label, id_or_ood) CSV rows of the 2-D PCA."""
    coords, _ = pca_projection(data, 2)
    n = coords.shape[0]
    if len(labels) != n:
        raise InvalidArgumentError("one label per sample required")
    if id_flags is not None and len(id_flags) != n:
        raise InvalidArgumentError("one id/ood flag per sample required")
    ids = sample_ids if sample_ids is not None else [f"s{i:06d}" for i in range(n)]
    lines = ["sample_id,x,y,label,id_or_ood"]
    for i in range(n):
        flag = "id" if (id_flags is None or id_flags[i]) else "ood"
        lines.append(f"{ids[i]},{float(coords[i, 0])!r},{float(coords[i, 1])!r},{labels[i]},{flag}")
    persist.atomic_write_text(out_path, "\n".join(lines) + "\n")
    return coords
