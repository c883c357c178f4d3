import numpy as np
import pytest

from conftest import knn_full_scan_reference, knn_kth_distance_reference, unit_rows
from odpc.errors import ConfigError, InvalidArgumentError, ShapeError
from odpc.head import forward, init_head
from odpc.knn_detector import (
    BANK_CHUNK_ROWS,
    Decision,
    KnnConfig,
    bank_from_vectors,
    bank_transform,
    build_bank,
    calibrate_threshold,
    detect,
    export_scores,
    _query_chunk,
    knn_scores,
    load_bank,
    passthrough_transform,
    save_bank,
)


def test_build_bank_shape_and_unit_segments(rng):
    head = init_head(3, 2, seed=0, feature_dim=16)
    feats = unit_rows(rng, 12, 16)
    bank = build_bank(head, feats)
    assert bank.vectors.shape == (12, 48)
    for s in range(3):
        seg = bank.vectors[:, s * 16 : (s + 1) * 16]
        assert np.max(np.abs(np.linalg.norm(seg, axis=1) - 1.0)) < 1e-4


def test_build_bank_deterministic(rng):
    head = init_head(3, 2, seed=0, feature_dim=16)
    feats = unit_rows(rng, 10, 16)
    a = build_bank(head, feats)
    b = build_bank(head, feats)
    assert np.array_equal(a.vectors, b.vectors)


def test_build_bank_rejects_empty(rng):
    head = init_head(2, 0, seed=0, feature_dim=8)
    with pytest.raises(InvalidArgumentError):
        build_bank(head, np.zeros((0, 8)))


def test_query_transform_matches_bank_transform(rng):
    head = init_head(3, 2, seed=1, feature_dim=16)
    feats = unit_rows(rng, 6, 16)
    bank = build_bank(head, feats)
    q = bank_transform(head, feats)
    assert np.allclose(bank.vectors, q)


def test_self_query_first_neighbor_zero(rng):
    bank = bank_from_vectors(unit_rows(rng, 9, 12))
    assert knn_scores(bank.vectors[4][None], bank, 1)[0] == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_segment_distance():
    # two bank rows, orthogonal unit vectors per 2-wide segment; querying the
    # first row, the 2nd neighbor differs by sqrt(2) in each of 3 segments
    r1 = np.array([1.0, 0.0] * 3)
    r2 = np.array([0.0, 1.0] * 3)
    bank = bank_from_vectors(np.stack([r1, r2]), layer_dims=(2, 2, 2))
    assert knn_scores(r1[None], bank, 2)[0] == pytest.approx(np.sqrt(6.0), abs=1e-12)
    assert knn_kth_distance_reference(r1, [r1, r2], 2) == pytest.approx(np.sqrt(6.0))


def test_k_beyond_rows_rejected(rng):
    bank = bank_from_vectors(unit_rows(rng, 2, 6))
    with pytest.raises(InvalidArgumentError):
        knn_scores(bank.vectors[:1], bank, 3)
    with pytest.raises(InvalidArgumentError):
        knn_scores(bank.vectors[:1], bank, 0)


def test_query_dim_mismatch(rng):
    bank = bank_from_vectors(unit_rows(rng, 4, 6))
    with pytest.raises(ShapeError):
        knn_scores(unit_rows(rng, 2, 5), bank, 1)


@pytest.mark.parametrize("seed", range(5))
def test_exact_matches_loop_reference(seed):
    r = np.random.default_rng(seed)
    bank_rows = r.standard_normal((40, 10))
    queries = r.standard_normal((7, 10))
    bank = bank_from_vectors(bank_rows)
    for k in (1, 3, 40):
        ours = knn_scores(queries, bank, k)
        for qi, q in enumerate(queries):
            assert ours[qi] == pytest.approx(knn_kth_distance_reference(q, bank_rows, k), abs=1e-9)


# Bank rows chosen so a scan chunk holds 1024 queries.
_SCAN_BANK_ROWS = 2048
_SCAN_CHUNK = _query_chunk(_SCAN_BANK_ROWS)


@pytest.mark.parametrize(
    "n_queries",
    [0, 1, _SCAN_CHUNK - 1, _SCAN_CHUNK, _SCAN_CHUNK + 1],
    ids=["0", "1", "chunk-1", "chunk", "chunk+1"],
)
def test_scan_matches_full_scan_at_chunk_boundaries(n_queries):
    r = np.random.default_rng(n_queries)
    bank_rows = r.standard_normal((_SCAN_BANK_ROWS, 8))
    bank = bank_from_vectors(bank_rows)
    queries = r.standard_normal((n_queries, 8))
    full = knn_full_scan_reference(queries, bank_rows)
    for k in (1, 5, _SCAN_BANK_ROWS):
        ours = knn_scores(queries, bank, k)
        assert ours.shape == (n_queries,)
        assert np.all(np.abs(ours - full[:, k - 1]) < 1e-9), k


def _unchunked_bank_transform(head, feats):
    per_layer = forward(head, feats).per_layer
    return np.concatenate([h / np.linalg.norm(h, axis=1)[:, None] for h in per_layer], axis=1)


@pytest.mark.parametrize("rows", [BANK_CHUNK_ROWS - 1, BANK_CHUNK_ROWS, BANK_CHUNK_ROWS + 1])
def test_bank_transform_chunks_bit_equal_to_one_batch(rows):
    r = np.random.default_rng(rows)
    head = init_head(3, 2, seed=4, feature_dim=16)
    feats = unit_rows(r, rows, 16)
    want = _unchunked_bank_transform(head, feats)
    assert np.array_equal(bank_transform(head, feats), want)
    assert np.array_equal(build_bank(head, feats).vectors, want)


def test_bank_transform_zero_row_in_second_chunk_raises(rng):
    head = init_head(3, 2, seed=4, feature_dim=16)
    feats = unit_rows(rng, BANK_CHUNK_ROWS + 1, 16)
    feats[-1] = 0.0  # zero biases: a zero input row stays zero through layer 1
    with pytest.raises(InvalidArgumentError, match="layer 1"):
        bank_transform(head, feats)


def test_scores_monotone_in_k(rng):
    bank = bank_from_vectors(rng.standard_normal((30, 8)))
    q = rng.standard_normal((5, 8))
    prev = np.zeros(5)
    for k in range(1, 31):
        cur = knn_scores(q, bank, k)
        assert np.all(cur >= prev - 1e-12)
        prev = cur


def test_permutation_invariance(rng):
    rows = rng.standard_normal((25, 6))
    q = rng.standard_normal((4, 6))
    a = knn_scores(q, bank_from_vectors(rows), 7)
    perm = rng.permutation(25)
    b = knn_scores(q, bank_from_vectors(rows[perm]), 7)
    assert np.allclose(a, b)


def test_passthrough_transform_stacks_and_normalizes(rng):
    feats = rng.standard_normal((5, 8)) * 3.0
    out = passthrough_transform(feats, copies=3)
    assert out.shape == (5, 24)
    unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    assert np.allclose(out[:, :8], unit)
    assert np.allclose(out[:, 8:16], unit)


def test_calibrate_threshold_quantile_interpolates():
    scores = np.arange(1.0, 101.0)
    thr = calibrate_threshold(scores, 0.95)
    assert 95.0 < thr < 96.0
    assert calibrate_threshold(np.full(10, 3.25), 0.95) == pytest.approx(3.25)
    assert calibrate_threshold(scores, 1.0) == pytest.approx(100.0)
    with pytest.raises(InvalidArgumentError):
        calibrate_threshold(np.array([]), 0.95)


def test_calibration_realized_fraction(rng):
    scores = rng.standard_normal(1000)
    thr = calibrate_threshold(scores, 0.95)
    frac = float(np.mean(scores <= thr))
    assert abs(frac - 0.95) <= 0.002


def test_detect_boundary_convention():
    assert detect(1.0, 1.0) is Decision.ID
    assert detect(1.0 + 1e-12, 1.0) is Decision.OOD
    assert detect(0.0, 0.5) is Decision.ID
    with pytest.raises(InvalidArgumentError):
        detect(float("nan"), 1.0)


def test_bank_save_load_roundtrip(tmp_path, rng):
    vecs = rng.standard_normal((6, 9)).astype(np.float32)
    bank = bank_from_vectors(vecs, layer_dims=(3, 3, 3))
    path = tmp_path / "bank.fb"
    save_bank(bank, path)
    back = load_bank(path, layer_dims=(3, 3, 3))
    assert np.allclose(back.vectors, bank.vectors)


def test_export_scores_csv(tmp_path):
    path = tmp_path / "scores.csv"
    export_scores(path, ["a", "b"], np.array([0.4, 2.0]), threshold=1.0)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample_id,score,decision"
    assert lines[1].startswith("a,") and lines[1].endswith(",ID")
    assert lines[2].startswith("b,") and lines[2].endswith(",OOD")


def test_knn_config_validation():
    with pytest.raises(ConfigError):
        KnnConfig(k=0)
    with pytest.raises(ConfigError):
        KnnConfig(target_tpr=0.0)
    with pytest.raises(ConfigError):
        KnnConfig(backend="fancy")
    with pytest.raises(ConfigError):
        KnnConfig(backend="indexed")


def test_unknown_scan_backend_rejected(rng):
    bank = bank_from_vectors(unit_rows(rng, 4, 6))
    with pytest.raises(InvalidArgumentError):
        knn_scores(unit_rows(rng, 2, 6), bank, 1, "indexed")


def test_bank_immutable(rng):
    bank = bank_from_vectors(unit_rows(rng, 4, 6))
    with pytest.raises(ValueError):
        bank.vectors[0, 0] = 5.0


def test_build_bank_non_uniform_layer_dims(rng):
    head = init_head(3, 1, seed=2, feature_dim=16, hidden_dims=(8, 12, 6))
    for b in head.biases:
        b[...] = rng.uniform(0.05, 0.3, b.shape).astype(np.float32)
    bank = build_bank(head, unit_rows(rng, 7, 16))
    assert bank.vectors.shape == (7, 26)
    assert bank.layer_dims == (8, 12, 6)
    off = 0
    for width in (8, 12, 6):
        seg = bank.vectors[:, off : off + width]
        assert np.max(np.abs(np.linalg.norm(seg, axis=1) - 1.0)) < 1e-4
        off += width
