"""Mixup negatives, the per-layer peer-class contrastive loss, cross-entropy,
and exact reverse-mode gradients for every head parameter.

The contrastive term at one layer scores each image anchor against its paired
text description (positive) and, for every other batch index k, three
negatives: the mixed image k, the non-paired text k, and the mixed text k.
Rows are L2-normalized before any dot product, so feature scale never leaks
into similarities and a temperature of 0.005 keeps exponents in [-200, 200].

Two readings of the objective are supported:

  per_anchor (default): mean over anchors of -log(pos / (pos + negatives)),
      the bounded, conventional contrastive form.
  literal: -log of the batch mean of pos / negatives ratios, with the
      positive absent from the denominator.

All math runs in float64 with max-subtraction, regardless of input dtype.

One core computes the term and its gradients from the normalized anchors,
positives and a list of normalized negative sets (non-paired text, mixed
image, mixed text; without mixup the list is shorter). Each set's exponent
matrix has its diagonal (k == i) set to -inf in place, and exp(-inf) is
exactly 0, so the gradient weights need no second mask.

A batch holds each text row once. Image i pairs with texts[labels[i]] (see
``trainer.train`` for the layout), and NegativeSet holds one mixed text per
distinct (label, peer) pair, batch row i using mixed_texts[text_index[i]].
loss_and_grad forwards the images, the class descriptions in the batch, the
mixed images and the mixed texts, gathers the per-row text activations for
the contrastive terms, and sums their adjoints back into their rows.

A training run's float64 buffers live in one Workspace in the head's
layout: the parameter mirror the forward and backward read, which
``trainer.sgd_step`` refreshes as it writes the parameters, and the gradient,
which loss_and_grad writes in place with ``out=``.

The step functions (build_negative_set, loss_and_grad, and the contrastive and
cross-entropy cores) raise nothing of their own: they take the float64 rows
and int64 labels ``trainer.train`` prepared and trust its one check of
labels, peers and widths before the first epoch, and train skips
single-class batches; a layer that switches off every unit of a row fails
normalize_rows, which train reports as DivergenceError. The standalone
pcc_loss and ce_loss check their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import normalize_rows
from .errors import ConfigError, DegenerateBatchError, InvalidArgumentError, ShapeError
from .head import MlpHead, forward_with_cache, softmax

PCC_FORMS = ("per_anchor", "literal")


@dataclass(frozen=True)
class LossConfig:
    temperature: float = 0.005
    mix_lambda: float = 0.5
    pcc_form: str = "per_anchor"
    use_pcc: bool = True
    use_ce: bool = True
    use_mixup: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0.0 <= self.mix_lambda <= 1.0:
            raise ConfigError(f"mix_lambda must lie in [0, 1], got {self.mix_lambda}")
        if self.pcc_form not in PCC_FORMS:
            raise ConfigError(f"pcc_form must be one of {PCC_FORMS}, got {self.pcc_form!r}")
        if not (self.use_pcc or self.use_ce):
            raise ConfigError("at least one loss term must be enabled")


@dataclass
class NegativeSet:
    """Feature-space mixup negatives for one batch.

    mixed_texts holds one blend per distinct (label, peer) pair of the batch,
    in ascending (label, peer) order: batch row i uses mixed_texts[text_index[i]].
    """

    mixed_images: np.ndarray
    mixed_texts: np.ndarray
    text_index: np.ndarray  # text_index[i]: the mixed_texts row of batch row i


def build_negative_set(
    images: np.ndarray,
    labels: np.ndarray,
    texts: np.ndarray,
    peer_bounds: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> NegativeSet:
    """Sample mixup negatives for a batch of float64 ``images`` rows.

    Mixed image i blends image i with a uniformly chosen same-batch image of
    a different class; the mixed text of row i blends texts[y], y = labels[i],
    with a uniformly chosen peer row of texts[peer_bounds[y]:peer_bounds[y+1]],
    and each distinct (label, peer) blend is made once. A blend of a and b
    is lam * a + (1 - lam) * b. Deterministic given the rng. The batch holds
    at least two classes and each of them has peers: ``trainer.train`` skips
    single-class batches and checks the peers up front.
    """
    n = len(labels)
    q_indices = np.empty(n, dtype=np.int64)
    p_choices = np.empty(n, dtype=np.int64)
    for i in range(n):
        candidates = np.flatnonzero(labels != labels[i])
        q_indices[i] = candidates[rng.integers(len(candidates))]
        p_choices[i] = rng.integers(peer_bounds[labels[i] + 1] - peer_bounds[labels[i]])

    # One integer per (label, peer) pair, ascending in (label, peer) order.
    pair_keys = labels * (p_choices.max() + 1) + p_choices
    _, first, text_index = np.unique(pair_keys, return_index=True, return_inverse=True)
    mixed_images = lam * images + (1.0 - lam) * images[q_indices]
    mixed_texts = (lam * texts[labels[first]]
                   + (1.0 - lam) * texts[peer_bounds[labels[first]] + p_choices[first]])
    return NegativeSet(mixed_images, mixed_texts, text_index)


def _normalized(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(unit rows, row norms) of ``x``; the unit rows' buffer holds the squares first."""
    x = np.asarray(x, dtype=np.float64)
    hat = np.empty(x.shape)
    return hat, normalize_rows(x, hat, what, square=hat)


def _logsumexp_rows(parts: list[np.ndarray]) -> np.ndarray:
    """Row-wise logsumexp over a list of (N,) / (N,N) arrays; -inf entries drop out."""
    stacked = np.concatenate([p.reshape(p.shape[0], -1) for p in parts], axis=1)
    m = stacked.max(axis=1)
    return m + np.log(np.exp(stacked - m[:, None]).sum(axis=1))


def _pcc_value_and_input_grads(anchors, positives, negatives, tau: float, form: str):
    """Loss value and gradients w.r.t. the raw inputs.

    ``anchors``, ``positives`` and each of ``negatives`` are ``_normalized``
    (unit rows, row norms) pairs of N >= 2 rows; ``tau`` > 0 and ``form`` is
    one of PCC_FORMS. Returns (value, (g_img, g_pos, [g_neg, ...])).
    """
    (a_hat, a_n), (p_hat, p_n) = anchors, positives
    n = a_hat.shape[0]

    inv_tau = 1.0 / tau
    sp = np.einsum("ij,ij->i", a_hat, p_hat)
    sims = [a_hat @ hat.T for hat, _ in negatives]
    # Exponent arguments with the diagonal (k == i) masked out of every set.
    args = [s * inv_tau for s in sims]
    for arg in args:
        np.fill_diagonal(arg, -np.inf)

    if form == "per_anchor":
        lse = _logsumexp_rows([sp[:, None] * inv_tau] + args)
        value = float(np.mean(lse - sp * inv_tau))
    else:
        lse = _logsumexp_rows(args)
        log_ratio = sp * inv_tau - lse
        m = log_ratio.max()
        value = float(np.log(n) - (m + np.log(np.exp(log_ratio - m).sum())))

    # dL/d(similarity) for the positive vector and each negative matrix.
    if form == "per_anchor":
        d_sp = (np.exp(sp * inv_tau - lse) - 1.0) * inv_tau / n
        d_sims = [np.exp(arg - lse[:, None]) * inv_tau / n for arg in args]
    else:
        alpha = np.exp(log_ratio - m)
        alpha /= alpha.sum()
        d_sp = -alpha * inv_tau
        d_sims = [np.exp(arg - lse[:, None]) * alpha[:, None] * inv_tau for arg in args]

    # Chain through s = <a_hat, b_hat>: ds/da = (b_hat - s*a_hat)/||a||.
    part1 = d_sp[:, None] * p_hat
    row_coef = d_sp * sp
    for (hat, _), d_s, s in zip(negatives, d_sims, sims):
        part1 += d_s @ hat
        row_coef += np.einsum("ik,ik->i", d_s, s)
    g_img = (part1 - row_coef[:, None] * a_hat) / a_n[:, None]
    g_pos = d_sp[:, None] * (a_hat - sp[:, None] * p_hat) / p_n[:, None]
    g_negs = [
        (d_s.T @ a_hat - np.einsum("ik,ik->k", d_s, s)[:, None] * hat) / norms[:, None]
        for (hat, norms), d_s, s in zip(negatives, d_sims, sims)
    ]
    return value, (g_img, g_pos, g_negs)


def pcc_loss(
    layer_img: np.ndarray,
    layer_txt_pos: np.ndarray,
    layer_txt_all: np.ndarray,
    layer_mixed_img: np.ndarray | None,
    layer_mixed_txt: np.ndarray | None,
    tau: float,
    form: str = "per_anchor",
) -> float:
    """Peer-class contrastive loss over one layer's activations.

    All inputs must come from the same shared layer. Mixed-feature matrices
    may be None to drop the mixup negatives (text negatives remain).
    """
    if not tau > 0:
        raise InvalidArgumentError(f"temperature must be > 0, got {tau}")
    if form not in PCC_FORMS:
        raise InvalidArgumentError(f"unknown pcc form {form!r}")
    anchors = _normalized(layer_img, "image features")
    if anchors[0].shape[0] < 2:
        raise DegenerateBatchError(f"contrastive loss needs N >= 2, got {anchors[0].shape[0]}")

    def like_images(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
        hat, norms = _normalized(x, what)
        if hat.shape != anchors[0].shape:
            raise ShapeError(f"{what} shape {hat.shape} does not match images {anchors[0].shape}")
        return hat, norms

    positives = like_images(layer_txt_pos, "paired text features")
    negatives = [like_images(layer_txt_all, "text features")]
    if layer_mixed_img is not None:
        negatives.append(like_images(layer_mixed_img, "mixed image features"))
    if layer_mixed_txt is not None:
        negatives.append(like_images(layer_mixed_txt, "mixed text features"))
    return _pcc_value_and_input_grads(anchors, positives, negatives, tau, form)[0]


def ce_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of softmax(logits) against integer labels."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError("logits must be (N, M) with one label per row")
    n, m = logits.shape
    if n == 0:
        raise DegenerateBatchError("cross-entropy of an empty batch is undefined")
    if labels.min() < 0 or labels.max() >= m:
        raise InvalidArgumentError(
            f"label out of range [0, {m}): {labels.min()}..{labels.max()}"
        )
    return _cross_entropy(logits, labels)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """ce_loss without its checks: float64 (N, M) logits, N >= 1 int64 labels in [0, M)."""
    return float(np.mean(_logsumexp_rows([logits]) - logits[np.arange(len(labels)), labels]))


@dataclass
class LossBreakdown:
    total: float
    pcc_layers: tuple[float, ...]
    ce: float


@dataclass
class Workspace:
    """A training run's float64 buffers, each a head in ``head``'s layout.

    ``mirror.params`` is the head's parameters cast to float64, kept equal to
    them by ``trainer.sgd_step``; ``grads.params`` is the gradient, rewritten
    in full by each ``loss_and_grad`` call.
    """

    mirror: MlpHead
    grads: MlpHead

    @classmethod
    def of(cls, head: MlpHead) -> Workspace:
        return cls(head.like(head.params.astype(np.float64)), head.like(np.empty(head.params.size)))


def _scatter_sum(inverse: np.ndarray, count: int, per_row: np.ndarray) -> np.ndarray:
    """Sum per-row adjoints into their distinct rows with a one-hot GEMM."""
    one_hot = (np.arange(count)[:, None] == inverse[None, :]).astype(np.float64)
    return one_hot @ per_row


def loss_and_grad(
    work: Workspace,
    images: np.ndarray,
    labels: np.ndarray,
    texts: np.ndarray,
    negatives: NegativeSet | None,
    cfg: LossConfig,
) -> tuple[LossBreakdown, MlpHead]:
    """Objective value and gradients at the parameters ``work.mirror`` for one
    batch of float64 ``images`` rows, image i of class labels[i] and paired
    with its class description texts[labels[i]].

    The objective is the sum of the contrastive term at each shared layer
    plus cross-entropy on the image logits, with terms switched by cfg.
    Text and image features share the same layers, so every enabled stream
    contributes to the shared-layer gradients; encoder inputs stay frozen.
    The gradients are written into, and returned as, ``work.grads``, so
    ``grads.params`` lines up element for element with the head's params.
    cfg alone turns the mixup negatives on: with use_pcc and use_mixup set,
    ``negatives`` is build_negative_set's set for this batch.
    """
    n = len(labels)
    use_mix = cfg.use_pcc and cfg.use_mixup

    classes, text_inv = np.unique(labels, return_inverse=True)
    streams = [images, texts[classes]]
    if use_mix:
        mixed_inv = negatives.text_index
        streams += [negatives.mixed_images, negatives.mixed_texts]
    bounds = np.cumsum([0] + [len(s) for s in streams])
    params = work.mirror
    hs, logits_all = forward_with_cache(params, np.vstack(streams))
    n_layers = len(params.weights)

    def block(arr: np.ndarray, s: int) -> np.ndarray:
        return arr[bounds[s] : bounds[s + 1]]

    # Adjoints w.r.t. post-ReLU activations, per layer, stacked over streams.
    adj = [np.zeros_like(hs[l + 1]) for l in range(n_layers)]

    pcc_values = []
    if cfg.use_pcc:
        for l in range(1, n_layers + 1):
            h = hs[l]
            anchors = _normalized(block(h, 0), f"layer {l} image features")
            sets = [_normalized(block(h, 1)[text_inv], f"layer {l} paired text features")]
            if use_mix:
                sets.append(_normalized(block(h, 2), f"layer {l} mixed image features"))
                sets.append(_normalized(block(h, 3)[mixed_inv], f"layer {l} mixed text features"))
            value, (g_img, g_pos, g_negs) = _pcc_value_and_input_grads(
                anchors, sets[0], sets, cfg.temperature, cfg.pcc_form
            )
            pcc_values.append(value)
            block(adj[l - 1], 0)[...] = g_img
            block(adj[l - 1], 1)[...] = _scatter_sum(text_inv, len(classes), g_pos + g_negs[0])
            if use_mix:
                block(adj[l - 1], 2)[...] = g_negs[1]
                block(adj[l - 1], 3)[...] = _scatter_sum(mixed_inv, len(negatives.mixed_texts), g_negs[2])
    else:
        pcc_values = [0.0] * n_layers

    ce_value = 0.0
    if cfg.use_ce:
        logits_img = block(logits_all, 0)
        ce_value = _cross_entropy(logits_img, labels)
        g_logits = softmax(logits_img)
        g_logits[np.arange(n), labels] -= 1.0
        g_logits /= n

    total = float(sum(pcc_values) + ce_value)
    breakdown = LossBreakdown(total=total, pcc_layers=tuple(pcc_values), ce=ce_value)

    # The backward writes every block of the reused gradient buffer except
    # the classifier's without CE; those are zeroed.
    grads = work.grads
    running = adj[n_layers - 1]
    if cfg.use_ce:
        np.matmul(g_logits.T, block(hs[n_layers], 0), out=grads.clf_weight)
        np.sum(g_logits, axis=0, out=grads.clf_bias)
        running[0:n] += g_logits @ params.clf_weight
    else:
        grads.clf_weight.fill(0.0)
        grads.clf_bias.fill(0.0)

    for li in range(n_layers - 1, -1, -1):
        dz = running * (hs[li + 1] > 0)
        np.matmul(dz.T, hs[li], out=grads.weights[li])
        np.sum(dz, axis=0, out=grads.biases[li])
        if li > 0:
            running = dz @ params.weights[li] + adj[li - 1]
    return breakdown, grads
