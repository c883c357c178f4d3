"""Deterministic training loop: seeded shuffling, per-batch mixup negatives,
SGD with classical momentum, and a step learning-rate schedule.

Everything downstream of (seed, data, config) is reproducible: shuffle and
negative-sampling generators are derived from (seed, epoch, batch) seed
sequences, parameters update in a fixed order, and float64 does the math
while parameters stay float32.

``train`` checks a run's inputs, the one description matrix and its peer
offsets among them, once, before the first epoch (see its docstring); the
per-step code it calls, in ``losses`` and ``sgd_step``, only computes.

``train`` allocates its large buffers once per run, so a step allocates
nothing the size of the parameters: a float64 velocity and a
``losses.Workspace`` holding the float64 parameter mirror and the flat
gradient, all in the layout of ``MlpHead.params``. It reads the features in
place: each batch's rows are gathered as the batch is drawn, through the
optional ``rows`` index, so a caller passes a split's rows without copying
them. ``sgd_step`` updates the parameters, velocity and mirror in one pass
of cache-sized blocks: per block, the velocity is scaled and the gradient
added in place, lr*v goes into a preallocated scratch block, theta - lr*v
overwrites that scratch, the result is written back to the parameters in
their own dtype, and the mirror takes the written values. These are the
same float64 operations, element by element, as the whole-array update
followed by a fresh float64 cast of the parameters, so the blocked update
is bit-equal to them; it only makes fewer passes over main memory.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import persist
from .errors import ConfigError, DivergenceError, InvalidArgumentError
from .head import N_SHARED_LAYERS, MlpHead
from .losses import LossConfig, Workspace, build_negative_set, loss_and_grad

logger = logging.getLogger(__name__)

# Elements per block of sgd_step's update: a block's float64 velocity,
# gradient, mirror and scratch plus its float32 parameter (36 bytes an
# element, 1,152 KiB a block) stay within a 2 MiB L2 cache.
SGD_BLOCK_ELEMS = 32768


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 160
    batch_size: int = 32
    lr: float = 1e-5
    momentum: float = 0.99
    step_size: int = 30
    gamma: float = 0.25
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (np.isfinite(self.momentum) and self.momentum >= 0):
            raise ConfigError(f"momentum must be finite and >= 0, got {self.momentum}")
        if self.step_size < 1:
            raise ConfigError(f"step_size must be >= 1, got {self.step_size}")
        if not 0 < self.gamma <= 1:
            raise ConfigError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    epoch: int
    lr: float
    total: float
    pcc_layers: tuple[float, ...]
    ce: float
    batches: int
    skipped: int


@dataclass
class TrainingState:
    head: MlpHead
    history: list[EpochStats]


def lr_at(epoch: int, cfg: TrainingConfig) -> float:
    """Step schedule: lr * gamma ** floor(epoch / step_size)."""
    if epoch < 0:
        raise InvalidArgumentError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr * cfg.gamma ** (epoch // cfg.step_size)


def sgd_step(params: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float, mirror: np.ndarray) -> None:
    """Classical momentum update, in place: v <- momentum*v + g; theta <- theta - lr*v.

    The four flat arrays share one layout; the float64 velocity and mirror
    are ``train``'s, and the parameters are written back in their own
    dtype. The update runs in blocks of SGD_BLOCK_ELEMS elements and is
    bit-equal to ``(theta.astype(float64) - lr*v).astype(theta.dtype)``;
    ``mirror`` then equals the new parameters cast to float64 (see the
    module docstring).
    """
    scratch = np.empty(min(SGD_BLOCK_ELEMS, params.size))
    for lo in range(0, params.size, SGD_BLOCK_ELEMS):
        hi = lo + SGD_BLOCK_ELEMS
        vb = velocity[lo:hi]
        vb *= momentum
        vb += grad[lo:hi]
        step = scratch[: len(vb)]
        np.multiply(vb, lr, out=step)
        np.subtract(params[lo:hi], step, out=step)
        params[lo:hi] = step
        mirror[lo:hi] = params[lo:hi]


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, epoch)))


def _batch_rng(seed: int, epoch: int, batch_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3, epoch, batch_idx)))


def train(
    features: np.ndarray,
    labels: np.ndarray,
    texts: np.ndarray,
    peer_bounds: np.ndarray,
    head: MlpHead,
    cfg: TrainingConfig,
    rows: np.ndarray | None = None,
) -> TrainingState:
    """Train the head on the frozen ``features`` rows that ``rows`` indexes
    (default: every row), row ``rows[j]`` of class ``labels[j]``.

    ``texts`` is one (C + P, dim) matrix: row c < C describes class c, and
    rows peer_bounds[c]:peer_bounds[c + 1] are its peers. Batches are drawn
    by a seeded shuffle each epoch, the last partial batch is dropped, and
    single-class batches are skipped; an epoch that skips any logs one
    warning with their count.

    The one check of a run's inputs comes first, also with ``epochs=0``:
    a ConfigError unless the features are (n, dim), ``rows`` holds 1-D
    integer indices in [0, n) with one label per row, the head and ``texts``
    are dim wide, ``texts`` is finite, ``peer_bounds`` runs from C to
    len(texts) without decreasing, the labels cover 2+ classes within
    [0, min(C, ID classes)), and with mixup on every present class has peers.
    A batch whose loss is not finite, or in which a layer switches off every
    unit of a row, raises DivergenceError before its update, and one whose
    update overflows the parameters raises it naming that batch.
    """
    # Every cast of the step inputs is made here; the step functions cast
    # nothing. The labels and descriptions are cast once, each batch's rows
    # as the batch is drawn, so the feature matrix is never copied whole.
    # float32 -> float64 is exact, so float32 inputs give the same bits as
    # their float64 casts.
    x = np.asarray(features)
    if x.ndim != 2:
        raise ConfigError(f"features must be (n, dim), got shape {x.shape}")
    rows = np.arange(x.shape[0]) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or not np.issubdtype(rows.dtype, np.integer):
        raise ConfigError(f"rows must be 1-D integer indices, got shape {rows.shape} {rows.dtype}")
    if rows.size and (rows.min() < 0 or rows.max() >= x.shape[0]):
        raise ConfigError(f"rows {rows.min()}..{rows.max()} do not lie in [0, {x.shape[0]}) "
                          "for the feature rows")
    labels = np.asarray(labels, dtype=np.int64)
    texts = np.asarray(texts, dtype=np.float64)
    bounds = np.asarray(peer_bounds)
    if labels.shape != rows.shape:
        raise ConfigError(f"labels of shape {labels.shape} do not give one label per row "
                          f"of the {rows.size} rows")
    dim = x.shape[1]
    if head.feature_dim != dim:
        raise ConfigError(f"the features are {dim}-d but the head takes {head.feature_dim}-d rows")
    if texts.ndim != 2 or texts.shape[1] != dim:
        raise ConfigError(f"the features are {dim}-d but the descriptions have shape {texts.shape}")
    finite = np.isfinite(texts).all(axis=1)
    if not finite.all():
        raise ConfigError(f"description row {int(np.argmin(finite))} holds a value that is not finite")
    n_class_rows = bounds.size - 1
    if (bounds.ndim != 1 or not np.issubdtype(bounds.dtype, np.integer) or n_class_rows < 0
            or bounds[0] != n_class_rows or bounds[-1] != len(texts) or (np.diff(bounds) < 0).any()):
        raise ConfigError(f"peer_bounds {bounds.tolist()} must be 1-D integers that start at "
                          f"{n_class_rows}, never decrease and end at the {len(texts)} description rows")
    present = np.unique(labels)
    if present.size < 2:
        raise ConfigError("training data must cover at least 2 classes")
    n_classes = min(n_class_rows, head.num_id_classes)
    if present[0] < 0 or present[-1] >= n_classes:
        raise ConfigError(f"labels {present[0]}..{present[-1]} do not lie in [0, {n_classes}) for "
                          f"{n_class_rows} class descriptions and {head.num_id_classes} ID classes")
    bare = present[bounds[present + 1] == bounds[present]]
    if cfg.loss.use_pcc and cfg.loss.use_mixup and bare.size:
        raise ConfigError(f"class {bare[0]} has no peer description features")
    if cfg.epochs == 0:
        return TrainingState(head, [])

    n = rows.size
    n_batches = n // cfg.batch_size
    if n_batches == 0:
        raise ConfigError(
            f"dataset of {n} rows yields no full batch of size {cfg.batch_size}"
        )

    velocity = np.zeros(head.params.size)
    work = Workspace.of(head)
    history = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        perm = _epoch_rng(cfg.seed, epoch).permutation(n)
        # Per-batch sums of total, the per-layer PCC terms and CE, in that order.
        sums = np.zeros(N_SHARED_LAYERS + 2)
        used = 0
        skipped = 0
        for b in range(n_batches):
            idx = perm[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            batch_labels = labels[idx]
            if np.unique(batch_labels).size < 2:
                skipped += 1
                continue
            images = np.asarray(x[rows[idx]], dtype=np.float64)
            negatives = None
            if cfg.loss.use_pcc and cfg.loss.use_mixup:
                negatives = build_negative_set(
                    images, batch_labels, texts, bounds, cfg.loss.mix_lambda,
                    _batch_rng(cfg.seed, epoch, b),
                )
            try:
                breakdown, grads = loss_and_grad(work, images, batch_labels, texts, negatives, cfg.loss)
            except InvalidArgumentError as exc:
                raise DivergenceError(f"epoch {epoch}, batch {b}: {exc} at lr {lr!r}: the layer "
                                      "switched off every unit of that row") from exc
            if not math.isfinite(breakdown.total):
                raise DivergenceError(f"epoch {epoch}, batch {b}: the loss is {breakdown.total} "
                                      f"at lr {lr!r}; lower the lr")
            try:
                with np.errstate(over="raise", invalid="raise"):
                    sgd_step(head.params, grads.params, velocity, lr, cfg.momentum, work.mirror.params)
            except FloatingPointError as exc:
                raise DivergenceError(f"epoch {epoch}, batch {b}: the update at lr {lr!r} overflows "
                                      "the float32 parameters; lower the lr") from exc
            sums += (breakdown.total, *breakdown.pcc_layers, breakdown.ce)
            used += 1

        if skipped:
            logger.warning("epoch %d: skipped %d single-class batch(es)", epoch, skipped)
        total, *pcc_layers, ce = (sums / used if used else np.full_like(sums, np.nan)).tolist()
        head.epoch = epoch + 1
        history.append(
            EpochStats(epoch, lr, total, tuple(pcc_layers), ce, batches=used, skipped=skipped)
        )
    return TrainingState(head, history)


def write_loss_history(history: list[EpochStats], path: str | Path) -> None:
    """CSV with one row per epoch: epoch, lr, total, pcc1, pcc2, pcc3, ce."""
    rows = [(st.epoch, st.lr, st.total, *st.pcc_layers, st.ce) for st in history]
    persist.write_csv(path, ["epoch", "lr", "total", "pcc1", "pcc2", "pcc3", "ce"], rows)
