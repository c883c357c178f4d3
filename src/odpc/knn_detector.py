"""K-th nearest-neighbor OOD scoring over concatenated layer features.

The bank stacks the three shared-layer activations of every training sample,
each 512-wide segment L2-normalized before concatenation so the layers
contribute equally. A query's score is the Euclidean distance to its k-th
closest bank row: the farther a sample sits from the training manifold, the
higher the score. A threshold calibrated to accept a target fraction of
held-out ID scores turns scores into ID/OOD decisions.

Scoring is one exact scan. Per chunk of queries, one GEMM gives the squared
distances ``|q|^2 + |b|^2 - 2 q.b`` to every bank row, ``argpartition``
picks the k-th closest row, and that row's distance is recomputed by direct
float64 subtraction, so GEMM rounding never reaches the returned score (a
query equal to a bank row scores exactly 0 at k=1). The tests check the scan
against a float64 direct-subtraction full scan over every bank row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import persist
from .encoders import EmbeddingMatrix
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
    """Immutable search structure: per-layer-normalized, concatenated activations."""

    vectors: np.ndarray          # (n_train, sum(layer_dims)), float64
    layer_dims: tuple[int, ...]
    built_from: str | None = None

    @property
    def rows(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def _write_normalized(out: np.ndarray, per_layer: list[np.ndarray]) -> None:
    """Write each layer's rows, L2-normalized, into its column segment of ``out``."""
    off = 0
    for l, h in enumerate(per_layer, start=1):
        norms = np.linalg.norm(h, axis=1)
        if np.any(norms < 1e-12):
            raise InvalidArgumentError(
                f"layer {l} produced a zero activation row; cannot normalize"
            )
        np.divide(h, norms[:, None], out=out[:, off : off + h.shape[1]])
        off += h.shape[1]


def bank_transform(head: MlpHead, features: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """Map encoder features to bank space: forward, per-layer normalize, concatenate.

    Rows go through ``forward`` in near-equal chunks of at most
    ``BANK_CHUNK_ROWS``; each chunk's normalized layers are written straight
    into the output. Equal chunks never leave a one- or two-row tail, which
    BLAS would multiply by its matrix-vector path and round differently from
    the same rows in a larger batch.
    """
    values = features.values if isinstance(features, EmbeddingMatrix) else np.asarray(features)
    if values.ndim != 2:
        raise ShapeError(f"expected a 2-D batch, got shape {values.shape}")
    n = values.shape[0]
    out = np.empty((n, sum(int(w.shape[0]) for w in head.weights)))
    n_chunks = max(1, -(-n // BANK_CHUNK_ROWS))
    bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        _write_normalized(out[lo:hi], forward(head, values[lo:hi]).per_layer)
    return out


def passthrough_transform(features: EmbeddingMatrix | np.ndarray, copies: int = 3) -> np.ndarray:
    """Bank-space stand-in without a trained head: the feature rows stacked
    ``copies`` times, each copy normalized. Matches the bank dimensionality."""
    values = features.values if isinstance(features, EmbeddingMatrix) else features
    values = np.asarray(values, dtype=np.float64)
    out = np.empty((values.shape[0], copies * values.shape[1]))
    _write_normalized(out, [values] * copies)
    return out


def build_bank(
    head: MlpHead,
    train_features: EmbeddingMatrix | np.ndarray,
    built_from: str | None = None,
) -> FeatureBank:
    """Forward all training features and freeze them into a search bank."""
    values = train_features.values if isinstance(train_features, EmbeddingMatrix) else train_features
    if np.asarray(values).shape[0] == 0:
        raise InvalidArgumentError("cannot build a feature bank from an empty train set")
    vectors = bank_transform(head, train_features)
    dims = tuple(int(w.shape[0]) for w in head.weights)
    vectors.setflags(write=False)
    return FeatureBank(vectors=vectors, layer_dims=dims, built_from=built_from)


def bank_from_vectors(vectors: np.ndarray, layer_dims: tuple[int, ...] | None = None) -> FeatureBank:
    """Wrap precomputed bank-space vectors (e.g. passthrough or loaded from disk)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise InvalidArgumentError(f"bank vectors must be a non-empty 2-D array, got {vectors.shape}")
    if layer_dims is None:
        layer_dims = (vectors.shape[1],)
    vectors = vectors.copy()
    vectors.setflags(write=False)
    return FeatureBank(vectors=vectors, layer_dims=tuple(layer_dims))


def _check_k(k: int, bank: FeatureBank) -> None:
    if not 1 <= k <= bank.rows:
        raise InvalidArgumentError(f"k={k} outside valid range [1, {bank.rows}]")


def _query_chunk(bank_rows: int) -> int:
    """Queries per scan chunk, so one distance block holds SCAN_BLOCK_ELEMS."""
    return max(1, SCAN_BLOCK_ELEMS // bank_rows)


def knn_scores(
    queries: np.ndarray, bank: FeatureBank, k: int, backend: str = "exact"
) -> np.ndarray:
    """K-th nearest-neighbor distance of each query row to the bank."""
    if backend not in BACKENDS:
        raise InvalidArgumentError(f"unknown backend {backend!r}; the only one is 'exact'")
    _check_k(k, bank)
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != bank.dim:
        raise ShapeError(f"queries must be (n, {bank.dim}), got {q.shape}")
    b = bank.vectors
    b_sq = np.einsum("ij,ij->i", b, b)
    scores = np.empty(q.shape[0])
    step = _query_chunk(bank.rows)
    for lo in range(0, q.shape[0], step):
        qc = q[lo : lo + step]
        d2 = qc @ b.T
        d2 *= -2.0
        d2 += np.einsum("ij,ij->i", qc, qc)[:, None]
        d2 += b_sq
        kth = np.argpartition(d2, k - 1, axis=1)[:, k - 1]
        diff = qc - b[kth]
        scores[lo : lo + step] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
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


def save_bank(bank: FeatureBank, path: str | Path) -> None:
    persist.write_bank(bank.vectors.astype(np.float32), path, normalized=False)


def load_bank(path: str | Path, layer_dims: tuple[int, ...] | None = None) -> FeatureBank:
    matrix, _ = persist.read_bank(path)
    return bank_from_vectors(matrix, layer_dims)


def export_scores(
    path: str | Path,
    sample_ids: list[str],
    scores: np.ndarray,
    threshold: float,
) -> None:
    """CSV of (sample_id, score, decision) rows against a calibrated threshold."""
    if len(sample_ids) != len(scores):
        raise InvalidArgumentError("sample_ids and scores differ in length")
    lines = ["sample_id,score,decision"]
    for sid, sc in zip(sample_ids, scores):
        lines.append(f"{sid},{float(sc)!r},{detect(float(sc), threshold).value}")
    persist.atomic_write_text(path, "\n".join(lines) + "\n")
