"""Benchmark harness: open-set splits, openness, AUROC, repeated end-to-end
runs, result tables, and 2-D projection export.

Real image datasets enter only as imported embedding files plus a labels
manifest; the harness never touches pixels. A built-in ``synthetic``
protocol (seeded Gaussian clusters, 6 ID + 4 OOD classes) gives desk-scale
end-to-end runs with the toy encoder.

Every split samples from the classes of the dataset it splits. The shipped
CIFAR catalog only decides which of those classes the ``cifar_plus``
protocols draw: CIFAR-10's non-animal classes as knowns, CIFAR-100's animal
classes as unknowns.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import persist
from .encoders import (
    EmbeddingMatrix,
    ToyEncoderConfig,
    bag_of_words_counts,
    toy_encode_images,
    toy_encode_texts,
)
from .errors import ConfigError, DivergenceError, FormatError, InvalidArgumentError
from .head import init_head
from .knn_detector import (
    FeatureBank,
    KnnConfig,
    bank_transform,
    build_bank,
    knn_scores,
    passthrough_transform,
)
from .peer_gen import (
    DEFAULT_DESCRIPTION_TEMPLATE,
    PeerClassSet,
    PeerGenConfig,
    StubProvider,
    generate_peer_classes,
    render_description,
)
from .trainer import TrainingConfig, TrainingState, train

# (known classes, unknown classes) demanded by each protocol.
PROTOCOL_COUNTS = {
    "cifar10_6v4": (6, 4),
    "cifar_plus_10": (4, 10),
    "cifar_plus_50": (4, 50),
    "cifar100_20v80": (20, 80),
    "tinyimagenet_20v180": (20, 180),
    "synthetic": (6, 4),
}
PROTOCOLS = tuple(PROTOCOL_COUNTS)

# The loss switches of each variant that trains a head; "passthrough" trains none.
VARIANT_LOSS = {
    "pcc_ce": {"use_pcc": True, "use_ce": True, "use_mixup": True},
    "pcc_only": {"use_pcc": True, "use_ce": False, "use_mixup": True},
    "ce_only": {"use_pcc": False, "use_ce": True},
    "pcc_ce_nomix": {"use_pcc": True, "use_ce": True, "use_mixup": False},
}
VARIANTS = (*VARIANT_LOSS, "passthrough")


# ---------------------------------------------------------------------------
# class catalogs and splits

@dataclass(frozen=True)
class ClassCatalog:
    """The class names a split may sample: the classes of the dataset it splits."""

    classes: tuple[str, ...]


def _cifar_plus_pools(held: set[str]) -> tuple[list[str], list[str]]:
    """CIFAR-10's non-animal and CIFAR-100's animal classes, in the shipped
    catalog's order, restricted to the ``held`` class names."""
    text = resources.files("odpc.data").joinpath("class_catalogs.json").read_text("utf-8")
    static = json.loads(text)
    c10, c100 = static["cifar10"], static["cifar100"]
    non_animal = [c for c in c10["classes"] if c not in c10["animal_classes"] and c in held]
    animals = [c for c in c100["classes"] if c in c100["animal_classes"] and c in held]
    return non_animal, animals


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


@dataclass(frozen=True)
class BenchmarkSplit:
    protocol: str
    known_classes: tuple[str, ...]
    unknown_classes: tuple[str, ...]

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
    def openness_pct(self) -> float:
        n_known = len(self.known_classes)
        return openness(n_known, n_known + len(self.unknown_classes))


def _sample(rng: np.random.Generator, pool: list[str], count: int, what: str,
            source: str = "catalog") -> list[str]:
    if len(pool) < count:
        raise InvalidArgumentError(f"need {count} {what} classes, {source} has {len(pool)}")
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[int(i)] for i in picks]


def make_split(protocol: str, class_catalog: ClassCatalog, seed: int) -> BenchmarkSplit:
    """Protocol-specific known/unknown class sampling, deterministic per seed."""
    if protocol not in PROTOCOLS:
        raise InvalidArgumentError(f"unknown protocol {protocol!r}")
    n_known, n_unknown = PROTOCOL_COUNTS[protocol]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(5,)))
    if protocol in ("cifar_plus_10", "cifar_plus_50"):
        non_animal, animals = _cifar_plus_pools(set(class_catalog.classes))
        known = _sample(rng, non_animal, n_known, "CIFAR-10 non-animal known")
        unknown = _sample(rng, animals, n_unknown, "CIFAR-100 animal unknown")
    else:
        pool = list(class_catalog.classes)
        known = _sample(rng, pool, n_known, "known")
        remaining = [c for c in pool if c not in set(known)]
        unknown = _sample(rng, remaining, n_unknown, "unknown",
                          f"the catalog of {len(pool)} less the {n_known} known")
    return BenchmarkSplit(protocol=protocol, known_classes=tuple(known), unknown_classes=tuple(unknown))


# ---------------------------------------------------------------------------
# metrics

def openness(n_train_classes: int, n_total_test_classes: int) -> float:
    """Open-set difficulty in percent: 100 * (1 - sqrt(2*Ntr / (Ntr + Nte))).

    Ntr is the number of known classes and Nte the total number of classes
    seen at test (known + unknown). This is the form consistent with the
    standard printed benchmark figures. The other reading, with denominator
    Nte + Nunknown, gives 7.42% for 6 known of 10 classes with 4 unknown,
    far from the published 13.39%.
    """
    if n_train_classes < 1 or n_total_test_classes < n_train_classes:
        raise InvalidArgumentError(
            f"need n_total_test >= n_train >= 1, got ({n_train_classes}, {n_total_test_classes})"
        )
    ratio = 2.0 * n_train_classes / (n_train_classes + n_total_test_classes)
    return float(100.0 * (1.0 - np.sqrt(ratio)))


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """P(ood score > id score) + 0.5 * P(tie), from two exact integer counts:
    the sorted ID scores below each OOD score, and those not above it.

    OOD is the positive class; higher scores must mean "more OOD".
    """
    id_scores = np.asarray(id_scores, dtype=np.float64).ravel()
    ood_scores = np.asarray(ood_scores, dtype=np.float64).ravel()
    if id_scores.size == 0 or ood_scores.size == 0:
        raise InvalidArgumentError("auroc needs non-empty score lists for both classes")
    if np.isnan(id_scores).any() or np.isnan(ood_scores).any():
        return float("nan")
    ranked = np.sort(id_scores)
    below = np.searchsorted(ranked, ood_scores, side="left").sum()
    not_above = np.searchsorted(ranked, ood_scores, side="right").sum()
    return float((below + not_above) / 2 / (id_scores.size * ood_scores.size))


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

    def __post_init__(self):
        for name in ("n_classes", "raw_dim", "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("center_scale", "common_scale", "noise_scale"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


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
    """The synthetic clusters encoded with ``encoder``, whose ``raw_dim``
    must be the data's: ``fit`` hashes the texts at the same width."""
    if encoder.raw_dim != spec.raw_dim:
        raise ConfigError(f"encoder raw_dim {encoder.raw_dim} differs from the synthetic "
                          f"data's raw_dim {spec.raw_dim}")
    names, raw, labels, is_train = generate_synthetic_raw(spec)
    feats = toy_encode_images(raw, encoder)
    return FeatureDataset(class_names=names, features=feats, labels=labels, is_train=is_train)


def read_manifest(manifest_path: str | Path) -> dict:
    """A labels manifest's JSON object, checked to list its ``classes`` as distinct names with no \\r."""
    doc = persist.read_json(manifest_path)
    classes = doc.get("classes") if isinstance(doc, dict) else None
    if not (isinstance(classes, list) and all(isinstance(name, str) for name in classes)):
        raise ConfigError(f"{manifest_path}: not a labels manifest whose classes are a list of names")
    for name in classes:
        if "\r" in name:
            raise ConfigError(f"{manifest_path}: class {name!r} holds a carriage return")
    if len(set(classes)) < len(classes):
        repeated = next(name for i, name in enumerate(classes) if name in classes[:i])
        raise ConfigError(f"{manifest_path}: class {repeated!r} is listed more than once")
    return doc


def load_manifest_dataset(manifest_path: str | Path, features: EmbeddingMatrix) -> FeatureDataset:
    """Bind a labels manifest to an imported feature bank (row i = samples[i]).

    A malformed manifest raises ConfigError; a bad sample is named by its
    index, with the key it lacks, the class it names that is not listed, its
    ``split`` if that is not ``"train"`` or ``"test"``, or its ``id`` if that
    is not a string or an integer, holds a carriage return, or repeats an
    earlier id (compared as text).
    """
    doc = read_manifest(manifest_path)
    samples, classes = doc.get("samples"), doc["classes"]
    if not isinstance(samples, list):
        raise ConfigError(f"{manifest_path}: samples must be a list")
    if len(samples) != features.rows:
        raise ConfigError(
            f"{manifest_path}: {len(samples)} samples but feature bank has {features.rows} rows"
        )
    index = {name: i for i, name in enumerate(classes)}
    is_train_split = {"train": True, "test": False}
    try:
        labels = np.array([index[s["class"]] for s in samples], dtype=np.int64)
        is_train = np.array([is_train_split[s["split"]] for s in samples], dtype=bool)
        ids = [str(s["id"]) for s in samples if type(s["id"]) in (str, int)]
    except (KeyError, TypeError):
        raise _bad_sample(manifest_path, samples, index) from None
    if len(set(ids)) < len(samples) or "\r" in "".join(ids):
        raise _bad_sample(manifest_path, samples, index)
    return FeatureDataset(
        class_names=classes, features=features, labels=labels, is_train=is_train, sample_ids=ids
    )


def _bad_sample(manifest_path: str | Path, samples: list, index: dict[str, int]) -> ConfigError:
    """The error naming the first manifest sample that cannot be bound."""
    first_with_id: dict[str, int] = {}
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            return ConfigError(f"{manifest_path}: sample {i} is not an object")
        missing = [key for key in ("class", "split", "id") if key not in sample]
        if missing:
            return ConfigError(f"{manifest_path}: sample {i} lacks {', '.join(map(repr, missing))}")
        name = sample["class"]
        if not isinstance(name, str) or name not in index:
            return ConfigError(f"{manifest_path}: sample {i} names class {name!r}, not in classes")
        if sample["split"] not in ("train", "test"):
            return ConfigError(f"{manifest_path}: sample {i} has split {sample['split']!r}, "
                               "not 'train' or 'test'")
        sid = sample["id"]
        if type(sid) not in (str, int):
            return ConfigError(f"{manifest_path}: sample {i} has id {sid!r}, not a string or an integer")
        if "\r" in str(sid):
            return ConfigError(f"{manifest_path}: sample {i} has id {sid!r}, which holds a carriage return")
        if first_with_id.setdefault(str(sid), i) != i:
            return ConfigError(f"{manifest_path}: sample {i} repeats the id {sid!r} of sample "
                               f"{first_with_id[str(sid)]}")
    return ConfigError(f"{manifest_path}: not a valid labels manifest")


def write_manifest(
    path: str | Path,
    dataset_name: str,
    class_names: list[str],
    labels: np.ndarray,
    is_train: np.ndarray,
    sample_ids: list[str],
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
    hidden_dims: tuple[int, ...] = (512, 512, 512)  # the head's shared layers, as published

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if min(self.hidden_dims, default=0) < 1:
            raise ConfigError(f"hidden_dims must be >= 1 each, got {self.hidden_dims}")


@dataclass
class EvalResult:
    protocol: str
    aurocs: list[float]
    seeds: list[int]
    openness_pct: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.aurocs))

    @property
    def std(self) -> float:
        return float(np.std(self.aurocs))


def fit(dataset: FeatureDataset, peers: PeerClassSet, settings: PipelineSettings,
        seed: int) -> TrainingState:
    """Train a head on ``dataset``'s train rows of the classes ``peers``
    names; ``train`` reads them in place.

    Class i is the i-th key of ``peers.peers`` and gets local label i. The
    classes' descriptions and then each class's peer descriptions, in order,
    are rendered with ``peers.description_template`` and encoded with
    ``settings.encoder`` in one call, into the one matrix ``train`` takes;
    the classifier gets one peer output per distinct peer label. ``seed``
    seeds the head and the training run, and ``settings.variant`` picks the
    loss terms; a variant that mixes needs peers for every class.
    """
    if settings.variant == "passthrough":
        raise ConfigError("variant 'passthrough' trains no head")
    classes, peer_lists = list(peers.peers), list(peers.peers.values())
    missing = set(classes) - set(dataset.class_names)
    if missing:
        raise ConfigError(f"the peer set names classes {sorted(missing)} that the dataset lacks")
    loss = replace(settings.training.loss, **VARIANT_LOSS[settings.variant])
    bare = [name for name, labels in zip(classes, peer_lists) if not labels]
    if loss.use_pcc and loss.use_mixup and bare:
        raise ConfigError(f"variant {settings.variant!r} mixes each class with one of its peers, "
                          f"but the peer set gives classes {bare} none")
    rows = dataset.rows_for(classes, train=True)
    local_label = np.full(len(dataset.class_names), -1)
    local_label[[dataset.class_names.index(name) for name in classes]] = np.arange(len(classes))
    texts = [render_description(label, peers.description_template)
             for label in [*classes, *(p for labels in peer_lists for p in labels)]]
    peer_bounds = np.cumsum([len(classes), *map(len, peer_lists)])
    head = init_head(len(classes), peers.distinct_peer_count(), seed=seed,
                     feature_dim=dataset.features.dim, hidden_dims=settings.hidden_dims)
    cfg = replace(settings.training, seed=seed, loss=loss)
    return train(dataset.features.values, local_label[dataset.labels[rows]],
                 toy_encode_texts(texts, settings.encoder).values, peer_bounds, head, cfg, rows)


def run_single(dataset: FeatureDataset, split: BenchmarkSplit, settings: PipelineSettings, seed: int) -> float:
    """Train (unless passthrough), build the bank, score ID/OOD test rows, AUROC."""
    known = list(split.known_classes)
    train_rows = dataset.rows_for(known, train=True)
    id_rows = dataset.rows_for(known, train=False)
    ood_rows = dataset.rows_for(list(split.unknown_classes), train=False)
    if train_rows.size == 0 or id_rows.size == 0 or ood_rows.size == 0:
        raise InvalidArgumentError("split leaves an empty train/ID-test/OOD-test set")
    # The bank holds one row per train row, and k may not exceed the bank.
    k = settings.knn.k
    if k > train_rows.size:
        raise ConfigError(f"knn_k {k} exceeds the split's {train_rows.size} train rows")

    # The rows are read in place and stay float32: training and the
    # transforms gather them in batches and chunks and cast to float64, which
    # is exact.
    values = dataset.features.values
    if settings.variant == "passthrough":
        bank = FeatureBank(passthrough_transform(values, train_rows))
        id_q = passthrough_transform(values, id_rows)
        ood_q = passthrough_transform(values, ood_rows)
    else:
        peers = generate_peer_classes(known, settings.peer, StubProvider(seed=seed))
        head = fit(dataset, peers, settings, seed).head
        bank = build_bank(head, values, train_rows)
        id_q = bank_transform(head, values, id_rows)
        ood_q = bank_transform(head, values, ood_rows)

    id_scores = knn_scores(id_q, bank, k, settings.knn.backend)
    ood_scores = knn_scores(ood_q, bank, k, settings.knn.backend)
    return auroc(id_scores, ood_scores)


def run_benchmark(
    protocol: str,
    repeats: int,
    settings: PipelineSettings,
    base_seed: int = 0,
    dataset: FeatureDataset | None = None,
) -> EvalResult:
    """Repeat split -> train -> bank -> score -> AUROC; aggregate mean/std.

    Every split samples from the dataset's own classes. Repeat r uses seed
    base_seed + r for the split, peers, head init, and training, so results
    are reproducible end to end. A repeat whose training diverges raises
    DivergenceError with ``repeat r (seed s): `` before train's message.
    """
    if repeats < 1:
        raise InvalidArgumentError(f"repeats must be >= 1, got {repeats}")
    if protocol == "synthetic" and dataset is None:
        spec = replace(settings.synthetic, seed=base_seed)
        dataset = synthetic_feature_dataset(spec, settings.encoder)
    if dataset is None:
        raise InvalidArgumentError(f"protocol {protocol!r} needs an imported dataset")
    catalog = ClassCatalog(classes=tuple(dataset.class_names))

    aurocs, seeds = [], []
    for r in range(repeats):
        seed = base_seed + r
        split = make_split(protocol, catalog, seed)
        try:
            aurocs.append(run_single(dataset, split, settings, seed))
        except DivergenceError as exc:
            raise DivergenceError(f"repeat {r} (seed {seed}): {exc}") from exc
        seeds.append(seed)
    # Every split of a protocol has the protocol's class counts.
    return EvalResult(protocol=protocol, aurocs=aurocs, seeds=seeds,
                      openness_pct=split.openness_pct)


def write_results_csv(result: EvalResult, path: str | Path) -> None:
    rows = [(result.protocol, r, seed, score, result.openness_pct)
            for r, (seed, score) in enumerate(zip(result.seeds, result.aurocs))]
    persist.write_csv(path, ["protocol", "repeat", "seed", "auroc", "openness"], rows)


# The numeric columns of results.csv: what each holds, and the check of a parsed value.
_RESULT_RANGES = {
    "auroc": ("nan or in [0, 1]", lambda v: np.isnan(v) or 0 <= v <= 1),
    "openness": ("in [0, 100)", lambda v: 0 <= v < 100),
}


def read_results_csv(path: str | Path) -> list[dict]:
    """One dict per row of ``persist.write_csv``'s CSV, keyed by the header; blank
    lines are skipped. Text that is not UTF-8 or that the CSV reader rejects, a
    row whose field count differs from the header's, that lacks a ``protocol``,
    ``auroc`` or ``openness`` column, whose ``auroc`` is neither ``nan`` nor in
    [0, 1], or whose ``openness`` is not in [0, 100) raises FormatError naming
    the file (and the line, once the text decodes).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            records = [(reader.line_num, parts) for parts in reader]
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num} is not CSV ({exc})") from None
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    header = records[0][1] if records else []
    rows = []
    for lineno, parts in records[1:]:
        if len(parts) < 2 and not "".join(parts).strip():
            continue
        if len(parts) != len(header):
            raise FormatError(
                f"{path}: line {lineno} has {len(parts)} fields, the header {len(header)}"
            )
        row = dict(zip(header, parts))
        missing = [c for c in ("protocol", *_RESULT_RANGES) if c not in row]
        if missing:
            raise FormatError(f"{path}: line {lineno} has no {missing[0]!r} column")
        for column, (allowed, valid) in _RESULT_RANGES.items():
            try:
                value = float(row[column])
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno} {column} {row[column]!r} is not a number"
                ) from None
            if not valid(value):
                raise FormatError(f"{path}: line {lineno} {column} {row[column]!r} is not {allowed}")
        rows.append(row)
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

def pca_projection(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered 2-D PCA with a deterministic sign convention.

    Returns (coords (n, 2), components (2, dim)); 1-d data gets a zero second
    component. Each component's first non-negligible loading is made positive.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3:
        raise InvalidArgumentError("projection needs at least 3 samples")
    centered = x - x.mean(axis=0, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    scale = float(s[0]) if s.size else 0.0
    if scale < 1e-12:
        raise InvalidArgumentError("data has rank 0 after centering; nothing to project")
    comps = np.zeros((2, x.shape[1]))
    comps[: min(2, len(vt))] = vt[:2]
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
    id_flags: list[bool],
    sample_ids: list[str] | None = None,
) -> np.ndarray:
    """Write (sample_id, x, y, label, id_or_ood) CSV rows of the 2-D PCA."""
    coords, _ = pca_projection(data)
    n = coords.shape[0]
    if len(labels) != n:
        raise InvalidArgumentError("one label per sample required")
    if len(id_flags) != n:
        raise InvalidArgumentError("one id/ood flag per sample required")
    ids = sample_ids if sample_ids is not None else [f"s{i:06d}" for i in range(n)]
    rows = [(ids[i], x, y, labels[i], "id" if id_flags[i] else "ood")
            for i, (x, y) in enumerate(coords.tolist())]
    persist.write_csv(out_path, ["sample_id", "x", "y", "label", "id_or_ood"], rows)
    return coords
