"""K-th nearest-neighbor OOD scoring over concatenated layer features.

The bank stacks the three shared-layer activations of every training sample,
each 512-wide segment L2-normalized before concatenation so the layers
contribute equally. A query's score is the Euclidean distance to its k-th
closest bank row: the farther a sample sits from the training manifold, the
higher the score. A threshold calibrated to accept a target fraction of
held-out ID scores turns scores into ID/OOD decisions.

The bank functions read a split's rows in place: ``bank_transform``,
``passthrough_transform`` and ``build_bank`` take the whole feature matrix
and an optional ``rows`` index, and gather one chunk of at most
``BANK_CHUNK_ROWS`` rows at a time, so no caller copies the split.

Scoring is one exact scan. Per chunk of queries, one GEMM gives the squared
distances ``|q|^2 + |b|^2 - 2 q.b`` to every bank row (the bank computes
its ``|b|^2`` once), ``argpartition`` picks the k-th closest row, and that
row's distance is recomputed by direct float64 subtraction, so GEMM
rounding never reaches the returned score (a query equal to a bank row
scores exactly 0 at k=1). The tests check the scan
against a float64 direct-subtraction full scan over every bank row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import persist
from .blocks import normalize_rows, row_chunks, rows_per_block
from .errors import ConfigError, InvalidArgumentError, ShapeError
from .head import MlpHead, forward

# The scan is the only backend; ``KnnConfig.backend`` and the ``backend``
# argument remain because perfbench/workloads.py passes the latter.
BACKENDS = ("exact",)

# Elements of one chunk's (queries x bank rows) float64 distance block: 16 MiB.
SCAN_BLOCK_ELEMS = 1 << 21
# Most feature rows per ``forward`` call while mapping features to bank space.
BANK_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class KnnConfig:
    k: int = 200
    target_tpr: float = 0.95
    backend: str = "exact"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.target_tpr <= 1.0:
            raise ConfigError(f"target_tpr must lie in (0, 1], got {self.target_tpr}")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")


@dataclass
class FeatureBank:
    """Immutable search structure: per-layer-normalized, concatenated activations.
    The non-empty 2-D float64 ``vectors`` are frozen in place, not copied, and
    their squared row norms are computed once."""

    vectors: np.ndarray          # (n_train, bank dim), float64, read-only
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)  # (n_train,), read-only

    def __post_init__(self):
        v = self.vectors
        if not (isinstance(v, np.ndarray) and v.ndim == 2 and v.shape[0] and v.dtype == np.float64):
            raise InvalidArgumentError(f"bank vectors must be a non-empty 2-D float64 array, "
                                       f"got {np.shape(v)} {getattr(v, 'dtype', type(v))}")
        v.setflags(write=False)
        self.sq_norms = np.einsum("ij,ij->i", v, v)
        self.sq_norms.setflags(write=False)

    @property
    def rows(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def _matrix_and_rows(features: np.ndarray, rows: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The 2-D feature matrix and the rows to read from it (default: all)."""
    values = np.asarray(features)
    if values.ndim != 2:
        raise ShapeError(f"expected a 2-D batch, got shape {values.shape}")
    return values, np.arange(values.shape[0]) if rows is None else np.asarray(rows)


def bank_transform(head: MlpHead, features: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Map the ``features`` rows that ``rows`` indexes (default: all) to bank
    space: forward, per-layer normalize, concatenate.

    The rows are gathered and go through ``forward`` in near-equal chunks of
    at most ``BANK_CHUNK_ROWS`` (``blocks.row_chunks``, so the result is
    bit-equal to one batch); each chunk's normalized layers, and first their
    squares, are written straight into the output. A zero row names its
    layer and its position in ``rows``.
    """
    values, rows = _matrix_and_rows(features, rows)
    n = rows.size
    out = np.empty((n, sum(head.dims[1:-1])))
    for lo, hi in row_chunks(n, BANK_CHUNK_ROWS):
        segments = np.split(out[lo:hi], np.cumsum(head.dims[1:-2]), axis=1)
        for l, (h, seg) in enumerate(zip(forward(head, values[rows[lo:hi]]), segments), start=1):
            normalize_rows(h, seg, f"layer {l}", lo, square=seg)
        del h  # or the last layer's rows stay alive through the next chunk's forward
    return out


def passthrough_transform(features: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Bank-space stand-in without a trained head: the normalized ``features``
    rows that ``rows`` indexes (default: all). Rows are read in the chunks of
    ``bank_transform``, so the matrix is never cast whole."""
    values, rows = _matrix_and_rows(features, rows)
    out = np.empty((rows.size, values.shape[1]))
    for lo, hi in row_chunks(rows.size, BANK_CHUNK_ROWS):
        normalize_rows(values[rows[lo:hi]], out[lo:hi], "feature", lo, square=out[lo:hi])
    return out


def build_bank(head: MlpHead, train_features: np.ndarray, rows: np.ndarray | None = None) -> FeatureBank:
    """Forward the training rows (``rows`` of ``train_features``, default
    all) and freeze them into a search bank."""
    values, rows = _matrix_and_rows(train_features, rows)
    if rows.size == 0:
        raise InvalidArgumentError("cannot build a feature bank from an empty train set")
    return FeatureBank(bank_transform(head, values, rows))


def knn_scores(
    queries: np.ndarray, bank: FeatureBank, k: int, backend: str = "exact"
) -> np.ndarray:
    """K-th nearest-neighbor distance of each query row to the bank."""
    if backend not in BACKENDS:
        raise InvalidArgumentError(f"unknown backend {backend!r}; the only one is 'exact'")
    if not 1 <= k <= bank.rows:
        raise InvalidArgumentError(f"k={k} outside valid range [1, {bank.rows}]")
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != bank.dim:
        raise ShapeError(f"queries must be (n, {bank.dim}), got {q.shape}")
    b = bank.vectors
    scores = np.empty(q.shape[0])
    step = rows_per_block(bank.rows, SCAN_BLOCK_ELEMS)  # queries per distance block
    for lo in range(0, q.shape[0], step):
        qc = q[lo : lo + step]
        d2 = qc @ b.T
        d2 *= -2.0
        d2 += np.einsum("ij,ij->i", qc, qc)[:, None]
        d2 += bank.sq_norms
        kth = np.argpartition(d2, k - 1, axis=1)[:, k - 1]
        diff = qc - b[kth]
        scores[lo : lo + step] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        del d2, kth  # or this block's distances and indices stay alive through the next GEMM
    return scores


def calibrate_threshold(id_holdout_scores: np.ndarray, target_tpr: float) -> float:
    """Empirical target_tpr-quantile (linear interpolation) of ID scores."""
    scores = np.asarray(id_holdout_scores, dtype=np.float64)
    if scores.size == 0:
        raise InvalidArgumentError("cannot calibrate a threshold on zero scores")
    if not 0.0 < target_tpr <= 1.0:
        raise InvalidArgumentError(f"target_tpr must lie in (0, 1], got {target_tpr}")
    return float(np.quantile(scores, target_tpr, method="linear"))


class Decision(str, enum.Enum):
    ID = "ID"
    OOD = "OOD"


def detect(score: float, threshold: float) -> Decision:
    """OOD iff the score strictly exceeds the threshold."""
    if not (np.isfinite(score) and np.isfinite(threshold)):
        raise InvalidArgumentError("score and threshold must be finite")
    return Decision.OOD if score > threshold else Decision.ID


def export_scores(
    path: str | Path,
    sample_ids: list[str],
    scores: np.ndarray,
    threshold: float,
) -> None:
    """CSV of (sample_id, score, decision) rows against a calibrated threshold."""
    if len(sample_ids) != len(scores):
        raise InvalidArgumentError("sample_ids and scores differ in length")
    rows = [(sid, float(sc), detect(float(sc), threshold).value) for sid, sc in zip(sample_ids, scores)]
    persist.write_csv(path, ["sample_id", "score", "decision"], rows)
