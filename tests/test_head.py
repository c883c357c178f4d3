import json
import math
import re
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import assert_views_follow_layout, checkpoint_bytes_reference, json_paths
from odpc import persist
from odpc.errors import CorruptFileError, FormatError, InvalidArgumentError, ShapeError
from odpc.head import (
    CK_MAGIC,
    MlpHead,
    _manifest,
    forward,
    forward_with_cache,
    init_head,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    softmax,
)


def manual_forward(head, x):
    """Independent recomputation: explicit per-row, per-unit loops."""
    x = np.asarray(x, dtype=np.float64)
    h = x
    for w, b in zip(head.weights, head.biases):
        w = w.astype(np.float64)
        out = np.zeros((h.shape[0], w.shape[0]))
        for r in range(h.shape[0]):
            for u in range(w.shape[0]):
                out[r, u] = max(0.0, float(np.dot(w[u], h[r])) + float(b[u]))
        h = out
    wc = head.clf_weight.astype(np.float64)
    logits = np.zeros((h.shape[0], wc.shape[0]))
    for r in range(h.shape[0]):
        for u in range(wc.shape[0]):
            logits[r, u] = float(np.dot(wc[u], h[r])) + float(head.clf_bias[u])
    return logits


def test_init_classifier_dimension():
    head = init_head(6, 18, seed=0)
    assert head.dims[-1] == 24
    assert head.clf_weight.shape == (24, 512)
    assert [w.shape for w in head.weights] == [(512, 512)] * 3


def test_init_deterministic():
    a = init_head(3, 5, seed=11, feature_dim=32)
    b = init_head(3, 5, seed=11, feature_dim=32)
    assert np.array_equal(a.params, b.params)


def test_init_bounds_and_zero_bias():
    head = init_head(4, 0, seed=5, feature_dim=64)
    bound = 1.0 / np.sqrt(64)
    for w in head.weights + [head.clf_weight]:
        assert np.max(np.abs(w)) <= bound
    for b in head.biases + [head.clf_bias]:
        assert not b.any()


def test_init_rejects_bad_counts():
    with pytest.raises(InvalidArgumentError):
        init_head(1, 0, seed=0)
    with pytest.raises(InvalidArgumentError):
        init_head(3, -1, seed=0)


def test_forward_matches_manual_recomputation(rng):
    head = init_head(3, 4, seed=7, feature_dim=24)
    for b in head.biases:
        b[...] = rng.uniform(-0.2, 0.2, b.shape).astype(np.float32)
    x = rng.standard_normal((5, 24))
    _, logits = forward_with_cache(head, x)
    ref = manual_forward(head, x)
    assert np.max(np.abs(logits - ref)) < 1e-5


def test_forward_zero_weights_uniform_probabilities(rng):
    head = init_head(2, 2, seed=0, feature_dim=8)
    head.params[...] = 0.0
    hs, logits = forward_with_cache(head, rng.standard_normal((3, 8)))
    assert not any(layer.any() for layer in hs[1:])
    assert np.allclose(softmax(logits), 0.25)


def test_forward_empty_batch():
    head = init_head(2, 0, seed=0, feature_dim=8)
    hs, logits = forward_with_cache(head, np.zeros((0, 8)))
    assert logits.shape == (0, 2)
    assert all(layer.shape == (0, 8) for layer in hs[1:])
    with np.errstate(all="raise"):
        probs = softmax(logits)
    assert probs.shape == (0, 2) and probs.dtype == np.float64


def test_forward_softmax_rows_sum_to_one(rng):
    head = init_head(4, 3, seed=2, feature_dim=16)
    _, logits = forward_with_cache(head, rng.standard_normal((9, 16)))
    assert np.max(np.abs(softmax(logits).sum(axis=1) - 1.0)) < 1e-6


def test_forward_shared_layers_for_both_modalities(rng):
    head = init_head(3, 2, seed=4, feature_dim=16)
    row = rng.standard_normal((1, 16))
    for a, b in zip(forward(head, row), forward(head, row.copy())):
        assert np.array_equal(a, b)


def test_forward_dim_mismatch(rng):
    head = init_head(2, 0, seed=0, feature_dim=8)
    with pytest.raises(ShapeError):
        forward(head, rng.standard_normal((2, 9)))


def test_checkpoint_roundtrip_bitwise(tmp_path):
    head = init_head(3, 5, seed=9, feature_dim=16)
    head.epoch = 12
    path = tmp_path / "head.ckpt"
    save_checkpoint(head, path)
    back = load_checkpoint(path)
    assert back.num_id_classes == 3 and back.num_peer_outputs == 5
    assert back.seed == 9 and back.epoch == 12
    assert head.params.tobytes() == back.params.tobytes()


def test_param_views_follow_flat_layout(tmp_path):
    head = init_head(3, 2, seed=1, feature_dim=16, hidden_dims=(8, 12, 6))
    assert_views_follow_layout(head)
    assert_views_follow_layout(head.like(np.zeros(head.params.size)))
    save_checkpoint(head, tmp_path / "head.ckpt")
    back = load_checkpoint(tmp_path / "head.ckpt")
    assert_views_follow_layout(back)
    assert back.params.tobytes() == head.params.tobytes()


@pytest.mark.parametrize("extra", [-1, 1])
def test_mis_sized_params_rejected(extra):
    head = init_head(3, 2, seed=1, feature_dim=16, hidden_dims=(8, 12, 6))
    with pytest.raises(ShapeError):
        MlpHead(np.zeros(head.params.size + extra, dtype=np.float32), head.dims, 3, 2, seed=1)
    with pytest.raises(ShapeError):
        MlpHead(head.params, head.dims[1:], 3, 2, seed=1)


def test_checkpoint_corrupt_blob(tmp_path):
    head = init_head(2, 2, seed=1, feature_dim=8)
    path = tmp_path / "head.ckpt"
    save_checkpoint(head, path)
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0x55
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError):
        load_checkpoint(path)


def test_checkpoint_manifest_shape_mismatch(tmp_path):
    head = init_head(2, 2, seed=1, feature_dim=8)
    path = tmp_path / "head.ckpt"
    save_checkpoint(head, path)
    blob = path.read_bytes()
    # drop some trailing parameter bytes: declared shapes no longer match
    path.write_bytes(blob[: len(blob) - 12])
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _rewrite_manifest(path, edit):
    """Rewrite a checkpoint's manifest with ``edit``, as sorted-key JSON with a
    matching CRC, as the writer writes it."""
    data = path.read_bytes()
    off = len(CK_MAGIC)
    (mlen,) = struct.unpack_from("<I", data, off)
    manifest = json.loads(data[off + 4 : off + 4 + mlen])
    blob = data[off + 4 + mlen : -4]
    manifest_bytes = json.dumps(edit(manifest), sort_keys=True).encode("utf-8")
    crc = zlib.crc32(manifest_bytes + blob) & 0xFFFFFFFF
    path.write_bytes(CK_MAGIC + struct.pack("<I", len(manifest_bytes)) + manifest_bytes
                     + blob + struct.pack("<I", crc))


def _reshaped(manifest, index, shape):
    tensors = list(manifest["tensors"])
    tensors[index] = {**tensors[index], "shape": shape}
    return {**manifest, "tensors": tensors}


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: list(m),
        lambda m: {**m, "tensors": [{"name": "fc1.weight"}] + m["tensors"][1:]},
        lambda m: {**m, "tensors": ["fc1.weight"] + m["tensors"][1:]},
        lambda m: _reshaped(m, 0, [2, -4]),
        lambda m: {k: v for k, v in m.items() if k != "num_id_classes"},
        lambda m: {**m, "epoch": "3"},
        # fc2.weight as (4, 16): the same bytes, but fc1's 8 outputs no longer feed it
        lambda m: _reshaped(m, 2, [4, 16]),
        lambda m: _reshaped(m, 1, [1, 8]),
        # fc1.weight and fc2.weight swapped: both (8, 8), so only the order is wrong
        lambda m: {**m, "tensors": [m["tensors"][i] for i in (2, 1, 0, 3, 4, 5, 6, 7)]},
        # the tensors still chain as (8, 8, 8, 8, 4); only the declared widths differ
        lambda m: {**m, "feature_dim": 999},
        lambda m: {**m, "hidden_dims": [1, 2, 3]},
        # the writer writes no other key, no other tensor field, and integer widths only
        lambda m: {**m, "comment": "x"},
        lambda m: {**m, "tensors": [{**m["tensors"][0], "dtype": "f4"}] + m["tensors"][1:]},
        lambda m: {**m, "feature_dim": 8.0},
        lambda m: {**m, "version": True},
    ],
    ids=["manifest-list", "tensor-without-shape", "tensor-not-object", "negative-dim",
         "missing-num-id-classes", "epoch-string", "weights-do-not-chain", "bias-not-1d",
         "tensors-out-of-order", "feature-dim-disagrees", "hidden-dims-disagree",
         "extra-key", "extra-tensor-field", "float-width", "bool-version"],
)
def test_checkpoint_malformed_manifest_is_format_error_naming_path(tmp_path, edit):
    head = init_head(2, 2, seed=1, feature_dim=8)
    path = tmp_path / "head.ckpt"
    save_checkpoint(head, path)
    _rewrite_manifest(path, edit)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(8, 4, 6, 4), (8, 4, 6, 5, 7, 4)], ids=["two-hidden", "four-hidden"])
def test_checkpoint_of_another_layer_count_is_format_error_naming_path(tmp_path, dims):
    # The manifest _manifest makes of these widths, with a payload of the size they
    # declare: only the count of hidden widths tells the file from a head's.
    path = tmp_path / "head.ckpt"
    params = np.zeros(sum(math.prod(shape) for shape in param_shapes(dims)), dtype=np.float32)
    persist.write_manifest_frame(path, CK_MAGIC, _manifest(dims, 2, 2, 1, 0), [params])
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_checkpoint(path)


_JSON_VALUE = st.one_of(
    st.integers(-1, 9), st.integers(2**31, 2**63), st.integers(0, 9).map(float), st.floats(),
    st.booleans(), st.text(max_size=4), st.lists(st.integers(0, 9), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(0, 9), max_size=2),
)
# The head the property below saves, and the key path of every value in its manifest.
_SAVED = dict(num_id_classes=2, num_peer_outputs=2, seed=1, feature_dim=8, hidden_dims=(4, 6, 5))
_PATHS = list(json_paths(_manifest((8, 4, 6, 5, 4), 2, 2, 1, 0)))


@given(action=st.sampled_from(["drop", "set", "add"]), at=st.sampled_from(_PATHS),
       value=_JSON_VALUE, key=st.text(max_size=12))
@example(action="set", at=("epoch",), value=3, key="")
@example(action="set", at=("seed",), value=2**40, key="")
def test_mutated_checkpoint_is_format_error_or_saves_back_to_the_same_bytes(action, at, value, key):
    """A saved checkpoint whose manifest has the value ``at`` dropped, set to
    ``value``, or given a sibling ``key`` (list: element) ``value``, written
    back as the writer writes it: ``load_checkpoint`` either raises
    FormatError naming the file, or returns a head that ``save_checkpoint``
    writes to the same bytes."""

    def edit(manifest):
        *parents, last = at
        parent = manifest
        for step in parents:
            parent = parent[step]
        if action == "drop":
            del parent[last]
        elif action == "set":
            parent[last] = value
        elif isinstance(parent, dict):
            parent[key] = value
        else:
            parent.append(value)
        return manifest

    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "head.ckpt", Path(tmp) / "again.ckpt"
        save_checkpoint(init_head(**_SAVED), path)
        _rewrite_manifest(path, edit)
        try:
            head = load_checkpoint(path)
        except FormatError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        save_checkpoint(head, again)
        assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "init",
    [dict(num_id_classes=3, num_peer_outputs=5, seed=9),
     dict(num_id_classes=3, num_peer_outputs=1, seed=2, feature_dim=16, hidden_dims=(8, 12, 6)),
     dict(num_id_classes=4, num_peer_outputs=0, seed=5, feature_dim=8)],
    ids=["default-dims", "hidden-8-12-6", "no-peer-outputs"],
)
def test_checkpoint_bytes_equal_whole_file_oracle(tmp_path, rng, init):
    head = init_head(**init)
    for b in head.biases:
        b[...] = rng.standard_normal(b.shape).astype(np.float32)
    head.epoch = 7
    path = tmp_path / "head.ckpt"
    save_checkpoint(head, path)
    assert path.read_bytes() == checkpoint_bytes_reference(head)


def _cut_in_manifest(path):
    path.write_bytes(path.read_bytes()[: len(CK_MAGIC) + 4 + 10])


@pytest.mark.parametrize(
    ("damage", "message"),
    [
        # a self-consistent manifest whose fc1 is 2**31 x 2**31 float32s: np.empty of that
        # would raise MemoryError, so a FormatError shows the size was checked before
        # anything was allocated
        (lambda p: _rewrite_manifest(p, lambda m: _manifest((2**31, 2**31, 8, 8, 4), 2, 2, 1, 0)),
         "payload size mismatch"),
        (lambda p: p.write_bytes(p.read_bytes() + b"\0"), "payload size mismatch"),
        (_cut_in_manifest, "truncated manifest"),
    ],
    ids=["declares-more-than-held", "trailing-byte", "cut-in-manifest"],
)
def test_checkpoint_size_damage_is_format_error_naming_path(tmp_path, damage, message):
    path = tmp_path / "head.ckpt"
    save_checkpoint(init_head(2, 2, seed=1, feature_dim=8), path)
    damage(path)
    with pytest.raises(FormatError, match=re.escape(str(path)) + ".*" + message):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_forward_does_not_mutate_head(rng):
    head = init_head(2, 1, seed=3, feature_dim=8)
    before = head.params.copy()
    forward(head, rng.standard_normal((4, 8)))
    assert np.array_equal(head.params, before)


def test_forward_with_cache_leaves_a_float64_input_unchanged(rng):
    # hs[0] is the caller's own array; the in-place ReLUs must write only the layers' outputs.
    head = init_head(2, 1, seed=3, feature_dim=8)
    for b in head.biases:
        b[...] = 0.5
    x = rng.standard_normal((4, 8))
    before = x.copy()
    hs, _ = forward_with_cache(head, x)
    assert hs[0] is x
    assert x.view(np.uint64).tobytes() == before.view(np.uint64).tobytes()
    assert all(layer.min() >= 0.0 for layer in hs[1:])


def test_init_custom_hidden_dims(rng):
    head = init_head(3, 2, seed=1, feature_dim=16, hidden_dims=(8, 12, 6))
    assert [w.shape for w in head.weights] == [(8, 16), (12, 8), (6, 12)]
    assert head.clf_weight.shape == (5, 6)
    assert [h.shape[1] for h in forward(head, rng.standard_normal((4, 16)))] == [8, 12, 6]
