"""Shared fixtures and independent reference implementations.

The reference ("oracle") functions here deliberately avoid the vectorized
code paths they check: scalar Python loops, math.exp/log, explicit pair
counting, full eigendecompositions. Keep them that way.
"""

from __future__ import annotations

import json
import math
import struct
import tempfile
import zlib
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from odpc import persist
from odpc.encoders import _projection
from odpc.head import MlpHead, init_head, tensor_names
from odpc.losses import LossConfig, NegativeSet, Workspace, build_negative_set, loss_and_grad

# Property tests run the same examples on every run and keep no example
# database; the example count keeps them to seconds. Hypothesis' other
# caches (source constants, unicode tables) go to the system temporary
# directory, not to a .hypothesis/ in the working directory.
settings.register_profile("odpc", derandomize=True, deadline=None, database=None, max_examples=30)
settings.load_profile("odpc")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "odpc-hypothesis")


# ---------------------------------------------------------------------------
# scalar loss oracles

def pcc_reference(img, txt_pos, txt_all, mixed_img, mixed_txt, tau, form="per_anchor"):
    """Loop-based float64 recomputation of the per-layer contrastive loss."""
    img = np.asarray(img, dtype=np.float64)
    txt_pos = np.asarray(txt_pos, dtype=np.float64)
    txt_all = np.asarray(txt_all, dtype=np.float64)
    n = img.shape[0]

    def unit(v):
        return v / math.sqrt(float(np.dot(v, v)))

    ratios = []
    total = 0.0
    for i in range(n):
        a = unit(img[i])
        pos = math.exp(float(np.dot(a, unit(txt_pos[i]))) / tau)
        negs = 0.0
        for k in range(n):
            if k == i:
                continue
            negs += math.exp(float(np.dot(a, unit(txt_all[k]))) / tau)
            if mixed_img is not None:
                negs += math.exp(float(np.dot(a, unit(np.asarray(mixed_img, dtype=np.float64)[k]))) / tau)
            if mixed_txt is not None:
                negs += math.exp(float(np.dot(a, unit(np.asarray(mixed_txt, dtype=np.float64)[k]))) / tau)
        if form == "per_anchor":
            total += -math.log(pos / (pos + negs))
        else:
            ratios.append(pos / negs)
    if form == "per_anchor":
        return total / n
    return -math.log(sum(ratios) / n)


def ce_reference(logits, labels):
    """Loop-based float64 cross-entropy."""
    logits = np.asarray(logits, dtype=np.float64)
    total = 0.0
    for row, y in zip(logits, labels):
        m = float(np.max(row))
        denom = sum(math.exp(float(v) - m) for v in row)
        total += -(float(row[int(y)]) - m - math.log(denom))
    return total / logits.shape[0]


# ---------------------------------------------------------------------------
# seeded (head, batch, negatives) instances for gradient checks; a batch is
# the (images, labels, texts) arrays loss_and_grad takes

def unit_rows(rng, n, dim):
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def stack_texts(class_texts, peers):
    """``(texts, peer_bounds)`` as ``bench.fit`` passes them to ``train``: the
    class rows, then the rows of ``peers[c]`` for each class c in order. A
    class that ``peers`` lacks gets an empty range."""
    per_class = [peers.get(c, class_texts[:0]) for c in range(len(class_texts))]
    return np.vstack([class_texts, *per_class]), np.cumsum([len(class_texts), *map(len, per_class)])


def _min_abs_preactivation(head: MlpHead, images, labels, texts, negatives: NegativeSet | None):
    from odpc.head import forward_with_cache

    streams = [images, texts[labels]]
    if negatives is not None:
        streams += [negatives.mixed_images, negatives.mixed_texts]
    stacked = np.vstack(streams)
    hs, _ = forward_with_cache(head, stacked)
    zs = [h @ w.astype(np.float64).T + b.astype(np.float64)
          for h, w, b in zip(hs, head.weights, head.biases)]
    min_z = min(float(np.min(np.abs(z))) for z in zs)
    min_norm = min(float(np.min(np.linalg.norm(h, axis=1))) for h in hs)
    return min_z, min_norm


def make_grad_instance(seed: int, dim: int = 16, n: int = 4, n_id: int = 3,
                       use_mixup: bool = True, tau: float = 0.05,
                       form: str = "per_anchor"):
    """Deterministic (head, (images, labels, texts), negatives, cfg) with
    pre-activations bounded away from the ReLU kink so central differences
    are valid at h=1e-4. With mixup, texts holds two peers per class after
    the class rows; without, only the class rows."""
    cfg = LossConfig(temperature=tau, pcc_form=form, use_mixup=use_mixup)
    head = init_head(n_id, 2 * n_id, seed=seed, feature_dim=dim)
    brng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    for b in head.biases:
        b[...] = brng.uniform(0.1, 0.5, size=b.shape).astype(np.float32)

    for attempt in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(102, attempt)))
        labels = np.concatenate([np.arange(n_id), rng.integers(0, n_id, size=n - n_id)])
        img = unit_rows(rng, n, dim)
        texts = unit_rows(rng, n_id, dim)
        negatives = None
        if use_mixup:
            texts, peer_bounds = stack_texts(texts, {c: unit_rows(rng, 2, dim) for c in range(n_id)})
            negatives = build_negative_set(img, labels, texts, peer_bounds, 0.5, rng)
        min_z, min_norm = _min_abs_preactivation(head, img, labels, texts, negatives)
        if min_z > 1e-3 and min_norm > 0.05:
            return head, (img, labels, texts), negatives, cfg
    raise RuntimeError(f"no kink-free gradient instance found for seed {seed}")


def negative_draws_reference(labels, peer_counts, rng):
    """build_negative_set's draws, one batch row at a time: a uniform
    same-batch index of another class, then a uniform peer of the row's
    class. Returns (q_indices, p_choices) as lists."""
    q_indices, p_choices = [], []
    for y in labels:
        others = [k for k, other in enumerate(labels) if other != y]
        q_indices.append(others[int(rng.integers(len(others)))])
        p_choices.append(int(rng.integers(peer_counts[y])))
    return q_indices, p_choices


def loss_and_grad_per_row_reference(head: MlpHead, images, labels, class_texts,
                                    negatives: NegativeSet | None, cfg: LossConfig):
    """loss_and_grad on per-row copies: the batch's texts are expanded to
    class_texts[labels] and mixed_texts[text_index], every one of the 4N
    stacked rows (images, texts, mixed images, mixed texts) is forwarded and
    backpropagated on its own, and parameters are cast to float64 where used.
    Returns (total loss, gradients in tensor_names() order)."""
    from odpc.head import forward_with_cache, softmax
    from odpc.losses import _normalized, _pcc_value_and_input_grads

    n = len(labels)
    use_mix = cfg.use_pcc and cfg.use_mixup
    streams = [images, class_texts[labels]]
    if use_mix:
        streams += [negatives.mixed_images, negatives.mixed_texts[negatives.text_index]]
    hs, logits = forward_with_cache(head, np.vstack(streams))
    adj = [np.zeros_like(h) for h in hs[1:]]
    total = 0.0
    for l in range(1, 4):
        if not cfg.use_pcc:
            break
        parts = [hs[l][s * n : (s + 1) * n] for s in range(len(streams))]
        sets = [_normalized(part, "features") for part in parts[1:]]
        value, grads = _pcc_value_and_input_grads(
            _normalized(parts[0], "features"), sets[0], sets,
            cfg.temperature, cfg.pcc_form,
        )
        total += value
        g_img, g_pos, g_negs = grads
        adj[l - 1][:n] += g_img
        adj[l - 1][n : 2 * n] += g_pos + g_negs[0]
        if use_mix:
            adj[l - 1][2 * n : 3 * n] += g_negs[1]
            adj[l - 1][3 * n :] += g_negs[2]
    d_clf_w = np.zeros(head.clf_weight.shape)
    d_clf_b = np.zeros(head.clf_bias.shape)
    if cfg.use_ce:
        total += ce_reference(logits[:n], labels)
        g_logits = softmax(logits[:n])
        g_logits[np.arange(n), labels] -= 1.0
        g_logits /= n
        d_clf_w = g_logits.T @ hs[3][:n]
        d_clf_b = g_logits.sum(axis=0)
        adj[2][:n] += g_logits @ head.clf_weight.astype(np.float64)
    d_w, d_b = [None] * 3, [None] * 3
    running = adj[2]
    for li in (2, 1, 0):
        dz = running * (hs[li + 1] > 0)
        d_w[li] = dz.T @ hs[li]
        d_b[li] = dz.sum(axis=0)
        if li > 0:
            running = dz @ head.weights[li].astype(np.float64) + adj[li - 1]
    return total, [d_w[0], d_b[0], d_w[1], d_b[1], d_w[2], d_b[2], d_clf_w, d_clf_b]


def fd_max_rel_error(head: MlpHead, images, labels, texts, negatives: NegativeSet | None,
                     cfg: LossConfig, h: float = 1e-4) -> float:
    """Max relative error between analytic gradients and central differences,
    over every parameter of the head, in float64. The analytic gradient comes
    from one workspace; the differences perturb a second one's mirror."""
    _, grads = loss_and_grad(Workspace.of(head), images, labels, texts, negatives, cfg)
    probe = Workspace.of(head)
    flat = probe.mirror.params

    def loss_at():
        return loss_and_grad(probe, images, labels, texts, negatives, cfg)[0].total

    worst = 0.0
    gflat = grads.params
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_at()
        flat[i] = orig - h
        down = loss_at()
        flat[i] = orig
        fd = (up - down) / (2.0 * h)
        denom = max(abs(fd), abs(gflat[i]), 1e-8)
        worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


# ---------------------------------------------------------------------------
# other oracles

def knn_kth_distance_reference(query, bank_rows, k):
    """Per-query loop: all Euclidean distances, ascending sort, k-th entry."""
    dists = sorted(
        math.sqrt(float(np.dot(query - row, query - row))) for row in bank_rows
    )
    return dists[k - 1]


def knn_full_scan_reference(queries, bank_rows):
    """Euclidean distances from each query to every bank row by direct float64
    subtraction (no Gram-matrix expansion), one query at a time; each row is
    sorted ascending, so column k-1 holds the k-th nearest distance."""
    bank_rows = np.asarray(bank_rows, dtype=np.float64)
    out = np.empty((len(queries), bank_rows.shape[0]))
    for i, q in enumerate(np.asarray(queries, dtype=np.float64)):
        out[i] = np.sort(np.sqrt(np.sum((bank_rows - q) ** 2, axis=1)))
    return out


def auroc_pair_count_reference(id_scores, ood_scores) -> Fraction:
    """O(n^2) pair counting; OOD is the positive class."""
    wins = 0
    ties = 0
    for o in ood_scores:
        for i in id_scores:
            if o > i:
                wins += 1
            elif o == i:
                ties += 1
    return Fraction(2 * wins + ties, 2 * len(id_scores) * len(ood_scores))


def best_rank2_reconstruction_reference(data):
    """Rank-2 approximation of centered data via a full eigendecomposition
    of the covariance matrix."""
    x = np.asarray(data, dtype=np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered
    evals, evecs = np.linalg.eigh(cov)
    top = evecs[:, np.argsort(evals)[::-1][:2]]
    return centered @ top @ top.T


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# whole-matrix oracles for the streamed ingest path

def bank_bytes_reference(matrix, normalized: bool) -> bytes:
    """The feature bank file for ``matrix``, assembled from one whole-file copy."""
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    n_rows, dim = np.shape(matrix)
    return (
        b"ODPCFB01"
        + struct.pack("<IIIB", persist.BANK_VERSION, n_rows, dim, int(normalized))
        + payload
        + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    )


def named_views(head: MlpHead) -> list[tuple[str, np.ndarray]]:
    """``tensor_names()`` paired with the head's views, taken in that order
    from its fc weights and biases and its classifier."""
    views = [a for pair in zip(head.weights, head.biases) for a in pair]
    return list(zip(tensor_names(), views + [head.clf_weight, head.clf_bias], strict=True))


def assert_views_follow_layout(head: MlpHead) -> None:
    """Each named view is a view into ``head.params``, starting where the one
    before it ends, in ``tensor_names()`` order."""
    offset = 0
    for name, view in named_views(head):
        assert np.shares_memory(view, head.params), name
        assert view.ctypes.data == head.params.ctypes.data + offset * head.params.itemsize, name
        offset += view.size
    assert offset == head.params.size


def json_paths(doc, prefix=()):
    """The key path of every value inside ``doc``: each object key and list index."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from json_paths(value, (*prefix, key))


def checkpoint_bytes_reference(head: MlpHead) -> bytes:
    """The checkpoint file for ``head``, assembled from one whole-file join."""
    tensors, blob_parts = [], []
    for name, arr in named_views(head):
        arr32 = np.ascontiguousarray(arr, dtype=np.float32)
        tensors.append({"name": name, "shape": list(arr32.shape)})
        blob_parts.append(arr32.tobytes())
    manifest = {
        "version": 1,
        "feature_dim": head.feature_dim,
        "hidden_dims": [int(w.shape[0]) for w in head.weights],
        "num_id_classes": head.num_id_classes,
        "num_peer_outputs": head.num_peer_outputs,
        "seed": head.seed,
        "epoch": head.epoch,
        "tensors": tensors,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blob = b"".join(blob_parts)
    crc = zlib.crc32(manifest_bytes + blob) & 0xFFFFFFFF
    return (b"ODPCCK01" + struct.pack("<I", len(manifest_bytes)) + manifest_bytes + blob
            + struct.pack("<I", crc))


def toy_encode_reference(raw, cfg) -> np.ndarray:
    """The toy image encoding computed on the whole matrix at once."""
    projected = np.asarray(raw, dtype=np.float64) @ _projection(cfg)
    return (projected / np.linalg.norm(projected, axis=1)[:, None]).astype(np.float32)


def shipped_class_names(dataset: str, key: str = "classes") -> tuple[str, ...]:
    """``key`` (``classes`` or ``animal_classes``) of ``dataset`` (``cifar10``
    or ``cifar100``) in the shipped CIFAR catalog, in its order."""
    text = resources.files("odpc.data").joinpath("class_catalogs.json").read_text("utf-8")
    return tuple(json.loads(text)[dataset][key])
