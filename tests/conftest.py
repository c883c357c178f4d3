"""Shared fixtures and independent reference implementations.

The reference ("oracle") functions here deliberately avoid the vectorized
code paths they check: scalar Python loops, math.exp/log, explicit pair
counting, full eigendecompositions. Keep them that way.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from odpc.head import MlpHead, init_head
from odpc.losses import LossConfig, NegativeSet, TrainingBatch, build_negative_set, loss_and_grad


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
# seeded (head, batch, negatives) instances for gradient checks

def unit_rows(rng, n, dim):
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _min_abs_preactivation(head: MlpHead, batch: TrainingBatch, negatives: NegativeSet | None):
    from odpc.head import forward_with_cache

    streams = [batch.image_features, batch.text_features]
    if negatives is not None:
        streams += [negatives.mixed_images, negatives.mixed_texts]
    stacked = np.vstack(streams)
    hs, zs, _ = forward_with_cache(head, stacked)
    min_z = min(float(np.min(np.abs(z))) for z in zs)
    min_norm = min(float(np.min(np.linalg.norm(h, axis=1))) for h in hs)
    return min_z, min_norm


def make_grad_instance(seed: int, dim: int = 16, n: int = 4, n_id: int = 3,
                       use_mixup: bool = True, tau: float = 0.05,
                       form: str = "per_anchor"):
    """Deterministic (head, batch, negatives, cfg) with pre-activations bounded
    away from the ReLU kink so central differences are valid at h=1e-4."""
    cfg = LossConfig(temperature=tau, pcc_form=form, use_mixup=use_mixup)
    head = init_head(n_id, 2 * n_id, seed=seed, feature_dim=dim)
    brng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    for b in head.biases:
        b[...] = brng.uniform(0.1, 0.5, size=b.shape).astype(np.float32)

    for attempt in range(200):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(102, attempt)))
        labels = np.concatenate([np.arange(n_id), rng.integers(0, n_id, size=n - n_id)])
        img = unit_rows(rng, n, dim)
        class_txt = unit_rows(rng, n_id, dim)
        batch = TrainingBatch(img, labels, class_txt[labels])
        negatives = None
        if use_mixup:
            peers = {c: unit_rows(rng, 2, dim) for c in range(n_id)}
            negatives = build_negative_set(batch, peers, 0.5, rng)
        min_z, min_norm = _min_abs_preactivation(head, batch, negatives)
        if min_z > 1e-3 and min_norm > 0.05:
            return head, batch, negatives, cfg
    raise RuntimeError(f"no kink-free gradient instance found for seed {seed}")


def fd_max_rel_error(head: MlpHead, batch: TrainingBatch, negatives: NegativeSet | None,
                     cfg: LossConfig, h: float = 1e-4) -> float:
    """Max relative error between analytic gradients and central differences,
    over every parameter of the head, in float64."""
    _, grads = loss_and_grad(head, batch, negatives, cfg)
    params = [arr.astype(np.float64) for _, arr in head.param_items()]

    def loss_at():
        probe = MlpHead(
            weights=[params[0], params[2], params[4]],
            biases=[params[1], params[3], params[5]],
            clf_weight=params[6], clf_bias=params[7],
            num_id_classes=head.num_id_classes,
            num_peer_outputs=head.num_peer_outputs,
            seed=head.seed,
        )
        return loss_and_grad(probe, batch, negatives, cfg, want_grad=False)[0].total

    worst = 0.0
    for arr, (_, grad) in zip(params, grads.param_items()):
        flat = arr.ravel()
        gflat = grad.ravel()
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
