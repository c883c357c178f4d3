import hashlib
import importlib.util
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    auroc_pair_count_reference,
    best_rank2_reconstruction_reference,
    shipped_class_names,
)
from odpc.bench import (
    ClassCatalog,
    PipelineSettings,
    SyntheticSpec,
    auroc,
    export_projection,
    fit,
    generate_synthetic_raw,
    load_manifest_dataset,
    make_split,
    openness,
    pca_projection,
    read_manifest,
    read_results_csv,
    run_benchmark,
    run_single,
    synthetic_class_names,
    synthetic_feature_dataset,
    write_manifest,
    write_results_csv,
    write_table_md,
)
from odpc.encoders import EmbeddingMatrix, ToyEncoderConfig, toy_encode_texts
from odpc.errors import ConfigError, FormatError, InvalidArgumentError
from odpc.knn_detector import KnnConfig
from odpc.peer_gen import DEFAULT_DESCRIPTION_TEMPLATE, PeerClassSet, StubProvider, generate_peer_classes


# ---------------------------------------------------------------------------
# openness

@pytest.mark.parametrize(
    "n_train,n_test_total,expected",
    [(6, 10, 13.39), (4, 14, 33.33), (4, 54, 62.86), (20, 100, 42.26), (20, 200, 57.35)],
)
def test_openness_matches_published_benchmark_values(n_train, n_test_total, expected):
    assert openness(n_train, n_test_total) == pytest.approx(expected, abs=0.01)


def test_openness_closed_world_zero():
    for m in (1, 5, 80):
        assert openness(m, m) == pytest.approx(0.0, abs=1e-12)


def test_openness_monotone_in_total_classes():
    values = [openness(6, t) for t in range(6, 60)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_openness_invalid_counts():
    with pytest.raises(InvalidArgumentError):
        openness(0, 5)
    with pytest.raises(InvalidArgumentError):
        openness(6, 5)


def test_openness_literal_form_documented_discrepancy():
    # the other denominator reading (Nte + Nunknown, in openness's
    # docstring) gives 7.42% for the 6-known / 4-unknown split, far from the
    # published 13.39% that openness reproduces
    literal = 100.0 * (1.0 - math.sqrt(2 * 6 / (10 + 4)))
    assert literal == pytest.approx(7.42, abs=0.01)
    assert openness(6, 10) - literal > 5.0


# ---------------------------------------------------------------------------
# auroc

def test_auroc_perfect_separation():
    assert auroc([0.1, 0.2], [0.9, 1.0]) == 1.0
    assert auroc([0.9, 1.0], [0.1, 0.2]) == 0.0


def test_auroc_identical_multisets_half():
    assert auroc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5


def test_auroc_hand_counted():
    assert auroc([1.0, 3.0], [2.0, 4.0]) == 0.75


@pytest.mark.parametrize("seed", range(10))
def test_auroc_equals_pair_count_oracle(seed):
    r = np.random.default_rng(seed)
    n_id, n_ood = int(r.integers(3, 80)), int(r.integers(3, 80))
    if seed % 2:
        id_s = r.integers(0, 12, n_id).astype(float)   # force ties
        ood_s = r.integers(0, 12, n_ood).astype(float)
    else:
        id_s = r.standard_normal(n_id)
        ood_s = r.standard_normal(n_ood)
    assert auroc(id_s, ood_s) == float(auroc_pair_count_reference(list(id_s), list(ood_s)))


def test_auroc_complement_on_tie_free_scores(rng):
    a = rng.standard_normal(30)
    b = rng.standard_normal(40)
    assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)


def test_auroc_invariant_under_monotone_transform(rng):
    a = rng.standard_normal(25)
    b = rng.standard_normal(25) + 0.5
    base = auroc(a, b)
    assert auroc(np.exp(a), np.exp(b)) == pytest.approx(base, abs=1e-12)
    assert auroc(3 * a + 7, 3 * b + 7) == pytest.approx(base, abs=1e-12)


def test_auroc_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        auroc([], [1.0])
    with pytest.raises(InvalidArgumentError):
        auroc([1.0], [])


@pytest.mark.parametrize("id_s, ood_s", [([math.nan, 1.0], [2.0]), ([1.0], [2.0, math.nan])],
                         ids=["nan-id", "nan-ood"])
def test_auroc_of_a_nan_score_is_nan(id_s, ood_s):
    assert math.isnan(auroc(id_s, ood_s))


# ---------------------------------------------------------------------------
# splits

CIFAR10 = ClassCatalog(classes=shipped_class_names("cifar10"))
CIFAR100 = ClassCatalog(classes=shipped_class_names("cifar100"))
CIFAR_PLUS = ClassCatalog(classes=CIFAR10.classes + CIFAR100.classes)
PROTOCOL_CATALOGS = {
    "cifar10_6v4": CIFAR10,
    "cifar_plus_10": CIFAR_PLUS,
    "cifar_plus_50": CIFAR_PLUS,
    "cifar100_20v80": CIFAR100,
    "synthetic": ClassCatalog(classes=synthetic_class_names()),
}


def test_make_split_counts_per_protocol():
    checks = {
        "cifar10_6v4": (6, 4),
        "cifar_plus_10": (4, 10),
        "cifar_plus_50": (4, 50),
        "cifar100_20v80": (20, 80),
        "synthetic": (6, 4),
    }
    for protocol, (k, u) in checks.items():
        split = make_split(protocol, PROTOCOL_CATALOGS[protocol], seed=3)
        assert len(split.known_classes) == k
        assert len(split.unknown_classes) == u
        assert not set(split.known_classes) & set(split.unknown_classes)


def test_make_split_deterministic():
    a = make_split("cifar10_6v4", CIFAR10, seed=9)
    b = make_split("cifar10_6v4", CIFAR10, seed=9)
    c = make_split("cifar10_6v4", CIFAR10, seed=10)
    assert a.known_classes == b.known_classes and a.unknown_classes == b.unknown_classes
    assert a.known_classes != c.known_classes or a.unknown_classes != c.unknown_classes


def test_cifar_plus_splits_respect_animal_markers():
    animals = shipped_class_names("cifar100", "animal_classes")
    split = make_split("cifar_plus_10", CIFAR_PLUS, seed=1)
    assert set(split.known_classes) == {"airplane", "automobile", "ship", "truck"}
    assert set(split.unknown_classes) <= set(animals)
    big = make_split("cifar_plus_50", CIFAR_PLUS, seed=1)
    assert len(big.unknown_classes) == 50
    assert set(big.unknown_classes) == set(animals)
    # The pools hold only the classes the catalog lists.
    short = ClassCatalog(classes=CIFAR10.classes + animals[:9])
    with pytest.raises(InvalidArgumentError, match="need 10 CIFAR-100 animal unknown classes, catalog has 9"):
        make_split("cifar_plus_10", short, seed=1)


# sha256 of json.dumps([[known, unknown] for seeds 0-31]) as drawn by the
# cifar_plus protocols from the full shipped CIFAR-10 + CIFAR-100 catalog.
CIFAR_PLUS_SPLITS_SHA256 = {
    "cifar_plus_10": "6769c04b86ab771843f5363e8c1d108a3480f24ffde8cc93d35e865c628ed722",
    "cifar_plus_50": "d1d60c17aae842eeb05035eb566674b50176481d4e7bab3350bc39b389c4ab47",
}


@pytest.mark.parametrize("protocol", sorted(CIFAR_PLUS_SPLITS_SHA256))
def test_cifar_plus_splits_pinned_for_seeds_0_to_31(protocol):
    # The pools follow the shipped order, so neither the order of the
    # dataset's classes nor classes outside CIFAR move a split.
    catalogs = [CIFAR_PLUS, ClassCatalog(classes=("extra",) + CIFAR_PLUS.classes[::-1])]
    for catalog in catalogs:
        splits = [make_split(protocol, catalog, seed) for seed in range(32)]
        rows = [[list(s.known_classes), list(s.unknown_classes)] for s in splits]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == CIFAR_PLUS_SPLITS_SHA256[protocol]


def test_tinyimagenet_split_needs_user_catalog():
    catalog = ClassCatalog(classes=tuple(f"wnid_{i:03d}" for i in range(200)))
    split = make_split("tinyimagenet_20v180", catalog, seed=0)
    assert len(split.known_classes) == 20 and len(split.unknown_classes) == 180
    assert split.openness_pct == pytest.approx(57.35, abs=0.01)


def test_split_openness_property():
    split = make_split("cifar10_6v4", CIFAR10, seed=0)
    assert split.openness_pct == pytest.approx(13.39, abs=0.01)


def test_insufficient_catalog_rejected():
    tiny = ClassCatalog(classes=("a", "b", "c"))
    with pytest.raises(InvalidArgumentError):
        make_split("cifar10_6v4", tiny, seed=0)
    # The unknowns come from what the knowns leave, and the error says so.
    short = ClassCatalog(classes=tuple(f"wnid_{i:03d}" for i in range(180)))
    with pytest.raises(InvalidArgumentError, match="need 180 unknown classes, "
                       "the catalog of 180 less the 20 known has 160"):
        make_split("tinyimagenet_20v180", short, seed=0)


# ---------------------------------------------------------------------------
# synthetic data and manifests

def test_synthetic_raw_shapes_and_determinism():
    spec = SyntheticSpec(seed=5)
    names, raw, labels, is_train = generate_synthetic_raw(spec)
    assert len(names) == 10 and len(set(names)) == 10
    assert raw.shape == (10 * 300, 64)
    assert int(is_train.sum()) == 10 * 200
    names2, raw2, labels2, is_train2 = generate_synthetic_raw(spec)
    assert np.array_equal(raw, raw2)
    assert names == names2


@pytest.mark.parametrize(
    "field,value",
    [("n_classes", 0), ("raw_dim", 0), ("train_per_class", -1), ("test_per_class", 0),
     ("center_scale", -3.0), ("common_scale", math.inf), ("noise_scale", math.nan)],
)
def test_synthetic_spec_rejects_bad_count_or_scale(field, value):
    with pytest.raises(ConfigError, match=field):
        SyntheticSpec(**{field: value})


def test_synthetic_feature_dataset_has_unit_rows():
    ds = synthetic_feature_dataset(SyntheticSpec(seed=1, train_per_class=20, test_per_class=10),
                                   ToyEncoderConfig())
    assert ds.features.rows == 10 * 30
    norms = np.linalg.norm(ds.features.values.astype(np.float64), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-4


def test_synthetic_data_and_encoder_raw_dims_must_agree():
    # fit hashes the texts at the encoder's raw_dim, so the images may not
    # be projected from another width.
    settings = replace(_fast_settings(), synthetic=SyntheticSpec(raw_dim=32))
    with pytest.raises(ConfigError, match="encoder raw_dim 64 differs from the synthetic "
                       "data's raw_dim 32"):
        run_benchmark("synthetic", 1, settings)


def test_manifest_roundtrip(tmp_path, rng):
    names = list(synthetic_class_names(3))
    labels = np.array([0, 1, 2, 1])
    is_train = np.array([True, True, False, False])
    ids = [f"s{i}" for i in range(4)]
    path = tmp_path / "labels.json"
    write_manifest(path, "toy", names, labels, is_train, ids)
    feats = EmbeddingMatrix(rng.standard_normal((4, 8)).astype(np.float32))
    ds = load_manifest_dataset(path, feats)
    assert ds.class_names == names
    assert np.array_equal(ds.labels, labels)
    assert np.array_equal(ds.is_train, is_train)
    assert ds.sample_ids == ids
    # Manifests written indented, with an ``animal_classes`` key, still load the same.
    old = tmp_path / "old_labels.json"
    old.write_text(json.dumps({**json.loads(path.read_text()), "animal_classes": [names[0]]},
                              sort_keys=True, indent=2) + "\n")
    old_ds = load_manifest_dataset(old, feats)
    assert (old_ds.class_names, old_ds.sample_ids) == (names, ids)
    assert np.array_equal(old_ds.labels, labels)


def test_manifest_row_count_mismatch(tmp_path, rng):
    names = list(synthetic_class_names(2))
    path = tmp_path / "labels.json"
    write_manifest(path, "toy", names, np.array([0, 1]), np.array([True, False]), ["a", "b"])
    with pytest.raises(ConfigError):
        load_manifest_dataset(path, EmbeddingMatrix(rng.standard_normal((3, 4)).astype(np.float32)))



def test_manifest_repeating_a_class_is_config_error(tmp_path):
    names = list(synthetic_class_names(3))
    path = tmp_path / "labels.json"
    write_manifest(path, "toy", names, np.array([0, 1, 2]), np.array([True, True, False]),
                   ["a", "b", "c"])
    doc = json.loads(path.read_text())
    doc["classes"].append(names[1])
    path.write_text(json.dumps(doc), encoding="utf-8")
    for read in (read_manifest,
                 lambda p: load_manifest_dataset(p, EmbeddingMatrix(np.ones((3, 4), np.float32)))):
        with pytest.raises(ConfigError, match=f"labels.json: class {names[1]!r} is listed more than once"):
            read(path)


@pytest.mark.parametrize("split", ["val", "Train", "", 1, None, ["train"]],
                         ids=["val", "Train", "empty", "number", "null", "list"])
def test_manifest_split_other_than_train_or_test_is_config_error(tmp_path, split):
    names = list(synthetic_class_names(2))
    path = tmp_path / "labels.json"
    write_manifest(path, "toy", names, np.array([0, 1, 0, 1]), np.array([True, True, False, False]),
                   ["a", "b", "c", "d"])
    doc = json.loads(path.read_text())
    doc["samples"][2]["split"] = split
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = f"labels.json: sample 2 has split {split!r}, not 'train' or 'test'"
    with pytest.raises(ConfigError, match=re.escape(message)) as exc:
        load_manifest_dataset(path, EmbeddingMatrix(np.ones((4, 4), np.float32)))
    assert str(path) in str(exc.value)


def _manifest_with_ids(tmp_path, ids: dict):
    """A four-sample labels.json whose sample ids ``a``..``d`` are replaced by ``ids``."""
    path = tmp_path / "labels.json"
    write_manifest(path, "toy", list(synthetic_class_names(2)), np.array([0, 1, 0, 1]),
                   np.array([True, True, False, False]), ["a", "b", "c", "d"])
    doc = json.loads(path.read_text())
    for i, sample_id in ids.items():
        doc["samples"][i]["id"] = sample_id
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("ids, message", [
    ({2: None}, "sample 2 has id None, not a string or an integer"),
    ({2: {"k": "v"}}, "sample 2 has id {'k': 'v'}, not a string or an integer"),
    ({2: True}, "sample 2 has id True, not a string or an integer"),
    ({2: 1.0}, "sample 2 has id 1.0, not a string or an integer"),
    ({2: "a"}, "sample 2 repeats the id 'a' of sample 0"),
    ({1: "7", 3: 7}, "sample 3 repeats the id 7 of sample 1"),
], ids=["null", "object", "bool", "float", "repeat", "repeat-as-text"])
def test_manifest_id_not_a_distinct_string_or_integer_is_config_error(tmp_path, ids, message):
    path = _manifest_with_ids(tmp_path, ids)
    with pytest.raises(ConfigError, match=re.escape(f"labels.json: {message}")) as exc:
        load_manifest_dataset(path, EmbeddingMatrix(np.ones((4, 4), np.float32)))
    assert str(path) in str(exc.value)


def test_manifest_integer_ids_load_as_text(tmp_path):
    path = _manifest_with_ids(tmp_path, {0: 10, 3: 0})
    dataset = load_manifest_dataset(path, EmbeddingMatrix(np.ones((4, 4), np.float32)))
    assert dataset.sample_ids == ["10", "b", "c", "0"]


# ---------------------------------------------------------------------------
# benchmark runs (desk-scale settings to stay fast)

def _fast_settings(variant="pcc_ce"):
    from odpc.trainer import TrainingConfig

    return PipelineSettings(
        training=TrainingConfig(epochs=2),
        synthetic=SyntheticSpec(train_per_class=40, test_per_class=20),
        variant=variant,
    )


def test_run_benchmark_repeats_and_determinism():
    res1 = run_benchmark("synthetic", 2, _fast_settings(), base_seed=3)
    res2 = run_benchmark("synthetic", 2, _fast_settings(), base_seed=3)
    assert res1.aurocs == res2.aurocs
    assert res1.seeds == [3, 4]
    assert res1.openness_pct == pytest.approx(13.39, abs=0.01)
    assert all(0.0 <= a <= 1.0 for a in res1.aurocs)


def test_run_benchmark_single_repeat_zero_std():
    res = run_benchmark("synthetic", 1, _fast_settings("passthrough"), base_seed=0)
    assert res.std == 0.0


def test_results_csv_roundtrip_and_table(tmp_path):
    res = run_benchmark("synthetic", 2, _fast_settings("passthrough"), base_seed=1)
    path = tmp_path / "results.csv"
    write_results_csv(res, path)
    rows = read_results_csv(path)
    assert len(rows) == 2
    assert rows[0]["protocol"] == "synthetic"
    assert float(rows[0]["auroc"]) == res.aurocs[0]
    table = tmp_path / "table.md"
    write_table_md(rows, table)
    text = table.read_text()
    assert "synthetic" in text and "+-" in text


def test_results_csv_with_quoted_fields_reads_as_unquoted(tmp_path):
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("protocol,repeat,seed,auroc,openness\nsynthetic,0,7,0.9,13.39\n", encoding="utf-8")
    quoted.write_text('"protocol",repeat,seed,"auroc","openness"\n"synthetic",0,7,"0.9","13.39"\n',
                      encoding="utf-8")
    assert read_results_csv(quoted) == read_results_csv(plain)


def test_run_benchmark_imported_dataset(tmp_path, rng):
    # an imported-features protocol: 10 fake classes, 30 samples each
    names = [f"c{i}" for i in range(10)]
    labels = np.repeat(np.arange(10), 30)
    is_train = np.tile(np.arange(30) < 20, 10)
    feats = rng.standard_normal((300, 512))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    ds_path = tmp_path / "labels.json"
    write_manifest(ds_path, "fake", names, labels, is_train, [str(i) for i in range(300)])
    dataset = load_manifest_dataset(ds_path, EmbeddingMatrix(feats.astype(np.float32), normalized=True))
    # 6 known classes x 20 train rows: a bank of 120 rows, so k is at most 120.
    settings = replace(_fast_settings("passthrough"), knn=KnnConfig(k=120))
    res = run_benchmark("synthetic", 1, settings, base_seed=0, dataset=dataset)
    assert 0.0 <= res.aurocs[0] <= 1.0
    with pytest.raises(ConfigError, match="knn_k 121 exceeds the split's 120 train rows"):
        run_benchmark("synthetic", 1, replace(settings, knn=KnnConfig(k=121)), dataset=dataset)


def test_run_benchmark_validates_repeats():
    with pytest.raises(InvalidArgumentError):
        run_benchmark("synthetic", 0, _fast_settings())


def test_one_repeat_peaks_at_its_bank_and_queries_plus_named_buffers():
    """One ``pcc_ce`` repeat (0 epochs) over a 12,000-row bank and 3,000
    queries allocates at most the float64 bank and queries plus the named
    buffers below and a slack. A full ID-query x bank distance matrix (165
    MiB), a float64 copy of the dataset (90 MiB) or a second bank (141 MiB)
    breaks the bound, and the named buffers must stay smaller than the first.
    tracemalloc sees numpy's buffers."""
    from odpc.head import param_shapes
    from odpc.knn_detector import BANK_CHUNK_ROWS, SCAN_BLOCK_ELEMS
    from odpc.trainer import TrainingConfig

    settings = replace(PipelineSettings(), training=TrainingConfig(epochs=0),
                       synthetic=SyntheticSpec(train_per_class=2000, test_per_class=300))
    dataset = synthetic_feature_dataset(settings.synthetic, settings.encoder)
    split = make_split("synthetic", ClassCatalog(classes=tuple(dataset.class_names)), 0)
    n_known = len(split.known_classes)
    bank_rows = dataset.rows_for(split.known_classes, train=True).size
    queries = int((~dataset.is_train).sum())
    assert (bank_rows, queries) == (12_000, 3_000)
    width = sum(settings.hidden_dims)
    # At most one peer output per generated peer label.
    dims = (dataset.features.dim, *settings.hidden_dims, n_known * (1 + settings.peer.peers_per_class))
    n_params = sum(math.prod(shape) for shape in param_shapes(dims))
    allowance = (
        n_params * (3 * 8 + 4)  # the float64 mirror, gradient and velocity; the float32 head
        + SCAN_BLOCK_ELEMS * (8 + 8)  # one block's float64 distances and int64 partition indices
        + BANK_CHUNK_ROWS * width * 8  # one chunk's float64 activations
        + 16 * 2**20  # slack: the k-th rows and their differences, the texts, index arrays
    )
    id_queries = dataset.rows_for(split.known_classes, train=False).size
    assert allowance < id_queries * bank_rows * 8
    tracemalloc.start()
    try:
        run_single(dataset, split, settings, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (bank_rows + queries) * width * 8 + allowance


def test_one_epoch_fit_peak_grows_by_less_than_the_added_rows():
    """A 1-epoch ``pcc_ce`` fit on 2n train rows peaks less than the added
    rows' float32 bytes above the fit on n rows: the workspace does not
    depend on n and the rows are read in place, so a float64 copy of the
    split (twice the added rows' bytes) breaks the bound."""
    from odpc.trainer import TrainingConfig

    peaks, n_rows = [], []
    for per_class in (200, 400):
        settings = replace(PipelineSettings(), training=TrainingConfig(epochs=1),
                           synthetic=SyntheticSpec(train_per_class=per_class, test_per_class=20))
        dataset = synthetic_feature_dataset(settings.synthetic, settings.encoder)
        known = list(make_split("synthetic", ClassCatalog(classes=tuple(dataset.class_names)), 0).known_classes)
        peers = generate_peer_classes(known, settings.peer, StubProvider(seed=0))
        n_rows.append(dataset.rows_for(known, train=True).size)
        tracemalloc.start()
        try:
            fit(dataset, peers, settings, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert n_rows == [1_200, 2_400]
    assert peaks[1] - peaks[0] < (n_rows[1] - n_rows[0]) * dataset.features.dim * 4


def _fit_inputs(variant="pcc_ce", encoder=None):
    """A synthetic dataset, a peer set naming its classes 4, 1 and 7 in that
    order, and settings that train 0 epochs."""
    from odpc.trainer import TrainingConfig

    settings = replace(_fast_settings(variant), training=TrainingConfig(epochs=0),
                       encoder=encoder or ToyEncoderConfig())
    dataset = synthetic_feature_dataset(settings.synthetic, settings.encoder)
    known = [dataset.class_names[g] for g in (4, 1, 7)]
    peers = PeerClassSet(peers={name: ["wolf", f"Peer {i}"] for i, name in enumerate(known)},
                         description_template=DEFAULT_DESCRIPTION_TEMPLATE, provenance={})
    return dataset, peers, settings


def test_fit_sizes_classifier_by_distinct_peers_of_known_classes():
    dataset, peers, settings = _fit_inputs()
    head = fit(dataset, peers, settings, seed=0).head
    # "wolf" is shared by all three classes.
    assert (head.num_id_classes, head.num_peer_outputs) == (3, 4)


def test_fit_rejects_known_class_without_peers():
    dataset, peers, settings = _fit_inputs()
    known = list(peers.peers)
    peers.peers[known[1]] = []
    with pytest.raises(ConfigError, match=re.escape(
            "variant 'pcc_ce' mixes each class with one of its peers, but the peer set gives "
            f"classes {[known[1]]} none")):
        fit(dataset, peers, settings, seed=0)


def test_fit_rejects_a_peer_class_the_dataset_lacks():
    dataset, peers, settings = _fit_inputs()
    peers.peers["nope"] = ["fox"]
    with pytest.raises(ConfigError, match=r"the peer set names classes \['nope'\] that the dataset lacks"):
        fit(dataset, peers, settings, seed=0)


def test_fit_encodes_every_description_in_one_call_bit_equal_to_per_class_calls(monkeypatch):
    # Without mixup a class may have no peers; its range of rows is empty.
    dataset, peers, settings = _fit_inputs("pcc_ce_nomix")
    known = list(peers.peers)
    peers = replace(peers, description_template="A sketch of a [CLASS]")
    peers.peers[known[2]] = []
    calls, seen = [], {}

    def counting_encode(texts, cfg):
        calls.append(list(texts))
        return toy_encode_texts(texts, cfg)

    def capture(features, labels, texts, peer_bounds, head, cfg, rows):
        seen.update(features=features, labels=labels, texts=texts, peer_bounds=peer_bounds, rows=rows)
        return "state"

    monkeypatch.setattr("odpc.bench.toy_encode_texts", counting_encode)
    monkeypatch.setattr("odpc.bench.train", capture)
    assert fit(dataset, peers, settings, seed=0) == "state"
    assert len(calls) == 1
    # The train rows of classes 4, 1 and 7, read in place, with local labels 0, 1 and 2.
    assert seen["features"] is dataset.features.values
    expected_rows = np.flatnonzero(np.isin(dataset.labels, [4, 1, 7]) & dataset.is_train)
    np.testing.assert_array_equal(seen["rows"], expected_rows)
    np.testing.assert_array_equal(dataset.labels[seen["rows"]], np.array([4, 1, 7])[seen["labels"]])
    assert sorted(set(seen["labels"].tolist())) == [0, 1, 2]

    def per_class(labels):
        texts = [f"A sketch of a {label}" for label in labels]
        return toy_encode_texts(texts, settings.encoder).values

    # The encoder's float32 matrix: the class rows, then each class's peer rows.
    expected = np.vstack([per_class(known)] + [per_class(peers.peers[name]) for name in known])
    got = seen["texts"]
    assert got.dtype == np.float32 and got.shape == expected.shape == (7, settings.encoder.out_dim)
    assert got.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(seen["peer_bounds"], [3, 5, 7, 7])


def test_fit_default_settings_build_512_wide_layers_like_the_cli():
    from odpc.cli import load_config

    dataset, peers, settings = _fit_inputs(encoder=ToyEncoderConfig(out_dim=64))
    assert settings.hidden_dims == PipelineSettings().hidden_dims
    head = fit(dataset, peers, settings, seed=0).head
    assert head.dims[:4] == (64, 512, 512, 512)
    assert load_config(None).settings.hidden_dims == settings.hidden_dims


def test_fit_rejects_passthrough():
    dataset, peers, settings = _fit_inputs("passthrough")
    with pytest.raises(ConfigError, match="passthrough"):
        fit(dataset, peers, settings, seed=0)


@pytest.mark.parametrize(
    "doc",
    [{"classes": "cat,dog"}, {"classes": ["cat", 3]}],
    ids=["classes-string", "classes-number"],
)
def test_read_manifest_requires_name_lists(tmp_path, doc):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({**doc, "samples": []}), encoding="utf-8")
    with pytest.raises(ConfigError, match="labels.json"):
        read_manifest(path)
    with pytest.raises(ConfigError, match="labels.json"):
        load_manifest_dataset(path, EmbeddingMatrix(np.zeros((0, 4), dtype=np.float32)))


def test_read_results_csv_rejects_short_row(tmp_path):
    path = tmp_path / "results.csv"
    # The blank line is skipped, not reported.
    path.write_text("protocol,repeat,seed,auroc,openness\n\nsynthetic,0,7\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 3"):
        read_results_csv(path)


@pytest.mark.parametrize("column", ["protocol", "auroc", "openness"])
def test_read_results_csv_requires_result_columns(tmp_path, column):
    path = tmp_path / "results.csv"
    header = "protocol,repeat,seed,auroc,openness".replace(column, "other")
    path.write_text(f"{header}\nsynthetic,0,7,0.8,13.39\n", encoding="utf-8")
    with pytest.raises(FormatError, match=f"line 2 has no '{column}' column"):
        read_results_csv(path)


def _perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_targets_resolve():
    """Every attribute perfbench's tracer wraps is still bound in its module."""
    spans = _perfbench_spans()
    bound = spans.originals()
    assert len(bound) == len(spans.TARGETS)
    assert all(callable(fn) for fn in bound.values())


def test_tracer_step_spans_fire():
    """The tracer's train-step spans see one small training run: a wrapped
    name that the step path stops calling would read zero."""
    from odpc.trainer import TrainingConfig

    spans = _perfbench_spans()
    unwrapped = spans.originals()
    settings = PipelineSettings(
        training=TrainingConfig(epochs=1),
        synthetic=SyntheticSpec(train_per_class=20, test_per_class=10),
        knn=KnnConfig(k=10),
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_iteration()
        run_benchmark("synthetic", 1, settings, base_seed=0)
        tracer.end_iteration()
    finally:
        tracer.uninstall()
    assert spans.originals() == unwrapped
    (seen,) = tracer.iterations
    for name in ("trainer.steps", "losses.loss_and_grad_s", "losses.negatives_s", "head.forward_rows"):
        assert seen[name] > 0, name


# ---------------------------------------------------------------------------
# projection export

def test_projection_identity_on_centered_2d():
    pts = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    coords, comps = pca_projection(pts)
    # recovered up to the fixed sign convention; x-axis has larger variance
    assert np.allclose(np.abs(coords), np.abs(pts), atol=1e-12)
    assert np.allclose(np.abs(comps), np.eye(2), atol=1e-12)
    for row in comps:
        nz = row[np.abs(row) > 1e-12]
        assert nz[0] > 0


def test_projection_duplicated_sample_duplicates_row(tmp_path):
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    coords = export_projection(pts, ["a", "b", "a", "c"], tmp_path / "proj.csv", id_flags=[True] * 4)
    assert np.allclose(coords[0], coords[2])
    lines = (tmp_path / "proj.csv").read_text().strip().splitlines()
    assert lines[0] == "sample_id,x,y,label,id_or_ood"
    assert len(lines) == 5


@pytest.mark.parametrize("seed", range(3))
def test_projection_matches_eigendecomposition_rank2(seed):
    r = np.random.default_rng(seed)
    data = r.standard_normal((10, 512))
    coords, comps = pca_projection(data)
    ours = coords @ comps
    ref = best_rank2_reconstruction_reference(data)
    assert np.max(np.abs(ours - ref)) < 1e-6


def test_projection_of_1d_data_has_a_zero_second_component():
    coords, comps = pca_projection(np.arange(5.0)[:, None])
    assert comps.tolist() == [[1.0], [0.0]]
    assert coords.tolist() == [[-2.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]


def test_projection_rank0_rejected():
    flat = np.ones((5, 4))
    with pytest.raises(InvalidArgumentError):
        pca_projection(flat)


def test_projection_needs_three_samples():
    with pytest.raises(InvalidArgumentError):
        pca_projection(np.eye(2))


def test_export_projection_id_ood_flags(tmp_path):
    pts = np.vstack([np.eye(3), -np.eye(3)])
    export_projection(pts, list("abcdef"), tmp_path / "p.csv",
                      id_flags=[True, True, True, False, False, False])
    lines = (tmp_path / "p.csv").read_text().strip().splitlines()[1:]
    assert [ln.split(",")[-1] for ln in lines] == ["id"] * 3 + ["ood"] * 3
