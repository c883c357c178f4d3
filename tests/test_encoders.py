import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import embedding_check_reference, toy_encode_reference, unit_rows
from odpc import encoders, persist
from odpc.blocks import CHECK_BLOCK_ELEMS, ZERO_NORM, normalize_rows, row_norms, rows_per_block
from odpc.encoders import (
    EmbeddingMatrix,
    ToyEncoderConfig,
    bag_of_words_counts,
    import_embeddings,
    toy_encode_images,
    toy_encode_texts,
)
from odpc.errors import FormatError, InvalidArgumentError, ShapeError

CFG = ToyEncoderConfig(seed=3, raw_dim=32, out_dim=48)


def test_image_encoding_deterministic_bitwise(rng):
    raw = rng.standard_normal((10, 32))
    a = toy_encode_images(raw, CFG)
    b = toy_encode_images(raw, CFG)
    assert a.values.tobytes() == b.values.tobytes()


def test_image_rows_unit_norm(rng):
    out = toy_encode_images(rng.standard_normal((25, 32)), CFG)
    norms = np.linalg.norm(out.values.astype(np.float64), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-4
    assert out.normalized


def test_different_seed_changes_output(rng):
    raw = rng.standard_normal((4, 32))
    a = toy_encode_images(raw, CFG)
    b = toy_encode_images(raw, ToyEncoderConfig(seed=4, raw_dim=32, out_dim=48))
    assert not np.allclose(a.values, b.values)


def test_zero_vector_rejected(rng):
    raw = rng.standard_normal((3, 32))
    raw[1] = 0.0
    with pytest.raises(InvalidArgumentError):
        toy_encode_images(raw, CFG)


@pytest.mark.parametrize("delta", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
def test_image_encoding_chunks_bit_equal_to_whole_matrix(delta):
    rng = np.random.default_rng(60 + delta)
    raw = rng.standard_normal((encoders.ENCODE_CHUNK_ROWS + delta, 32))
    out = toy_encode_images(raw, CFG)
    assert out.values.dtype == np.float32
    assert out.values.tobytes() == toy_encode_reference(raw, CFG).tobytes()


def test_zero_row_in_second_chunk_names_its_global_index(rng):
    raw = rng.standard_normal((encoders.ENCODE_CHUNK_ROWS + 7, 32))
    bad = raw.shape[0] - 3
    raw[bad] = 0.0
    with pytest.raises(InvalidArgumentError, match=f"row {bad} "):
        toy_encode_images(raw, CFG)


# Raw values that reach the encoder's error paths: NaN and infinities make
# non-finite rows, 1e200 squares to infinity (the unit rows come out zero),
# and zero or 1e-300 rows have no norm left to divide by.
SPECIAL_RAW = (np.nan, np.inf, -np.inf, 1e200, 0.0, 1e-300)

# Rows of 32 raw values: normal Gaussian ones, and some given a special value
# in every entry (whole) or in its first entry only; the encoder takes them
# in two chunks.
_specials = st.lists(
    st.tuples(st.integers(0, encoders.ENCODE_CHUNK_ROWS + 2), st.sampled_from(SPECIAL_RAW),
              st.booleans()),
    max_size=4,
)


def _raw_with(seed, specials):
    raw = np.random.default_rng(seed).standard_normal((encoders.ENCODE_CHUNK_ROWS + 3, 32))
    for row, value, whole in specials:
        raw[row, : None if whole else 1] = value
    return raw


@given(seed=st.integers(0, 2**16), specials=_specials)
@example(seed=0, specials=[(5, 1e200, True)])
@example(seed=0, specials=[(5, 1e200, False), (300, np.nan, False)])
@example(seed=0, specials=[(400, 0.0, True), (7, np.inf, True)])
@example(seed=0, specials=[(2, 1e-300, True)])
def test_toy_encoding_errors_match_whole_matrix_oracle(seed, specials):
    """The encoding equals the whole-matrix reference and passes the full
    check, or raises what the reference followed by that check raises."""
    raw = _raw_with(seed, specials)
    with np.errstate(all="ignore"):
        want = toy_encode_reference(raw, CFG)
        norms = np.linalg.norm(raw @ encoders._projection(CFG), axis=1)
    small = np.flatnonzero(norms < ZERO_NORM)
    if small.size:
        message = f"projected row {small[0]} has (near-)zero norm"
    else:
        message = embedding_check_reference(want, normalized=True)
    try:
        with np.errstate(all="ignore"):
            got = toy_encode_images(raw, CFG)
    except InvalidArgumentError as exc:
        assert str(exc) == message
        return
    assert message is None
    assert got.normalized and got.values.tobytes() == want.tobytes()
    EmbeddingMatrix(got.values, normalized=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_norms_bit_equal_to_linalg_norm(rng, dtype):
    for n in (37, 0):
        rows = (rng.standard_normal((n, 48)) * 3.0).astype(dtype)
        want = np.linalg.norm(rows.astype(np.float64), axis=1).tobytes()
        for square in (np.empty(rows.shape), None):
            assert row_norms(rows, square).tobytes() == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalize_rows_bit_equal_to_dividing_by_linalg_norm(rng, dtype):
    for n in (37, 0):
        rows = (rng.standard_normal((n, 48)) * 3.0).astype(dtype)
        x = rows.astype(np.float64)
        norms = np.linalg.norm(x, axis=1)
        want = x / norms[:, None]
        out = np.empty(rows.shape)
        assert normalize_rows(rows, out, "rows").tobytes() == norms.tobytes()
        assert out.tobytes() == want.tobytes()
        shared = np.empty(rows.shape)  # the squares go into the output first
        normalize_rows(rows, shared, "rows", square=shared)
        assert shared.tobytes() == want.tobytes()
        normalize_rows(x, x, "rows", square=np.empty(rows.shape))  # in place
        assert x.tobytes() == want.tobytes()


def test_normalize_rows_names_a_zero_row_by_its_global_index(rng):
    rows = rng.standard_normal((5, 4))
    rows[3] = 1e-13
    with pytest.raises(InvalidArgumentError, match=r"^layer 2 row 103 has \(near-\)zero norm$"):
        normalize_rows(rows, np.empty(rows.shape), "layer 2", first_row=100)


def _rows_to_last_check_block(dim):
    # Two full validation blocks and a short third one.
    return 2 * rows_per_block(dim, CHECK_BLOCK_ELEMS) + 3


def test_embedding_matrix_rejects_non_finite_in_last_block(rng):
    values = unit_rows(rng, _rows_to_last_check_block(48), 48).astype(np.float32)
    EmbeddingMatrix(values, normalized=True)
    values[-1, 7] = np.inf
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        EmbeddingMatrix(values)


def test_embedding_matrix_rejects_off_unit_row_in_last_block(rng):
    values = unit_rows(rng, _rows_to_last_check_block(48), 48).astype(np.float32)
    values[-1] *= np.float32(1.001)
    EmbeddingMatrix(values)
    with pytest.raises(InvalidArgumentError, match="deviates by 1.00e-03"):
        EmbeddingMatrix(values, normalized=True)


def test_embedding_matrix_float32_max_row_deviates_not_non_finite(rng):
    """Squared in float64, float32's largest value is finite, so the norm
    pass that checks finiteness reports this row as off the unit sphere."""
    values = unit_rows(rng, 4, 48).astype(np.float32)
    values[2] = np.finfo(np.float32).max
    EmbeddingMatrix(values)
    message = embedding_check_reference(values, normalized=True)
    assert "deviates by" in message
    with pytest.raises(InvalidArgumentError) as exc:
        EmbeddingMatrix(values, normalized=True)
    assert str(exc.value) == message
    values[2, 0] = np.inf
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        EmbeddingMatrix(values, normalized=True)


def test_dimension_mismatch(rng):
    with pytest.raises(ShapeError):
        toy_encode_images(rng.standard_normal((3, 31)), CFG)


def test_text_identical_strings_equal_rows():
    out = toy_encode_texts(["This is a photo of a dog", "This is a photo of a dog"], CFG)
    assert np.array_equal(out.values[0], out.values[1])


def test_text_bag_of_words_order_invariance():
    out = toy_encode_texts(["a b", "b a"], CFG)
    assert np.array_equal(out.values[0], out.values[1])
    # independent count construction feeding the same projection
    direct = bag_of_words_counts("a b", CFG.raw_dim)
    swapped = bag_of_words_counts("b a", CFG.raw_dim)
    assert np.array_equal(direct, swapped)


def test_text_counts_match_manual_tally():
    counts = bag_of_words_counts("x y x", 32)
    assert counts.sum() == 3.0
    # "x" hashed twice into one bin unless it collides with "y"
    assert sorted(c for c in counts if c > 0) in ([1.0, 2.0], [3.0])


def test_text_empty_string_rejected():
    with pytest.raises(InvalidArgumentError):
        toy_encode_texts(["dog", "   "], CFG)


def test_text_no_descriptions_give_empty_normalized_matrix():
    out = toy_encode_texts([], CFG)
    assert out.values.shape == (0, CFG.out_dim) and out.values.dtype == np.float32
    assert out.normalized


def test_import_roundtrip(tmp_path, rng):
    mat = rng.standard_normal((7, 16)).astype(np.float32)
    path = tmp_path / "feat.fb"
    persist.write_bank(mat, path, normalized=False)
    emb = import_embeddings(path)
    assert not emb.normalized
    assert np.array_equal(emb.values, mat)


def test_import_truncated_and_bad_magic(tmp_path, rng):
    path = tmp_path / "feat.fb"
    persist.write_bank(rng.standard_normal((4, 4)).astype(np.float32), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        import_embeddings(path)
    path.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(FormatError):
        import_embeddings(path)


def test_embedding_matrix_validates_normalized_flag(rng):
    values = rng.standard_normal((3, 8)).astype(np.float32)
    with pytest.raises(InvalidArgumentError):
        EmbeddingMatrix(values * 5.0, normalized=True)


def test_encoding_is_pure_no_input_mutation(rng):
    raw = rng.standard_normal((6, 32))
    snapshot = raw.copy()
    toy_encode_images(raw, CFG)
    assert np.array_equal(raw, snapshot)
