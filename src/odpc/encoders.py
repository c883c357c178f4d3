"""Frozen feature extraction.

Two sources of embeddings live behind the same matrix type: a deterministic
toy encoder (seeded Gaussian random projection onto the unit sphere) for
tests and desk-scale runs, and an import path for feature banks computed
elsewhere by a real vision-language model. Nothing in this module has
trainable state, and nothing here ever mutates after construction.

Whole matrices are processed in row blocks, never as one float64 copy.
``EmbeddingMatrix`` checks finiteness and, for normalized matrices, each
row's float64 norm one block at a time. The toy encoder projects
near-equal row chunks (``blocks.row_chunks``) and normalizes each straight
into a preallocated float32 output (``blocks.normalize_rows``), squaring
into one reused buffer. Per row everything is the same float64
arithmetic as on the whole matrix, so the same rows are accepted or
rejected and the encoding is bit-equal to it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import persist
from .blocks import CHECK_BLOCK_ELEMS, normalize_rows, row_chunks, row_norms, rows_per_block
from .errors import InvalidArgumentError, ShapeError

DEFAULT_FEATURE_DIM = 512

_NORM_TOL = 1e-4

# Most rows per chunk of the toy encoder's projection; at 512-d the chunk's
# float64 projection and squares take 2 MiB each. Traced ingest runs encoded
# 60,000 rows about twice as fast with 512-row chunks as with 2,048.
ENCODE_CHUNK_ROWS = 512


@dataclass(frozen=True)
class ToyEncoderConfig:
    seed: int = 0
    raw_dim: int = 64
    out_dim: int = DEFAULT_FEATURE_DIM

    def __post_init__(self):
        if self.raw_dim < 1 or self.out_dim < 1:
            raise InvalidArgumentError(
                f"encoder dims must be >= 1, got raw_dim={self.raw_dim} out_dim={self.out_dim}"
            )


@dataclass
class EmbeddingMatrix:
    """Fixed-dimension float32 feature rows.

    `normalized` asserts every row sits on the unit sphere (within 1e-4).
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ShapeError(f"embedding matrix must be 2-D, got shape {self.values.shape}")
        worst = 0.0
        chunks = row_chunks(self.rows, rows_per_block(self.dim, CHECK_BLOCK_ELEMS))
        square = np.empty((_largest(chunks), self.dim)) if self.normalized else None
        for lo, hi in chunks:
            block = self.values[lo:hi]
            if not np.isfinite(block).all():
                raise InvalidArgumentError("embedding matrix contains non-finite values")
            if square is not None and hi > lo:
                norms = row_norms(block, square[: hi - lo])
                worst = max(worst, float(np.max(np.abs(norms - 1.0))))
        if worst > _NORM_TOL:
            raise InvalidArgumentError(
                f"matrix flagged normalized but a row norm deviates by {worst:.2e}"
            )

    @property
    def rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])


def _largest(chunks: list[tuple[int, int]]) -> int:
    return max(hi - lo for lo, hi in chunks)


def _projection(cfg: ToyEncoderConfig) -> np.ndarray:
    """Fixed Gaussian projection matrix for a config; pure function of the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(7,)))
    return rng.standard_normal((cfg.raw_dim, cfg.out_dim)) / np.sqrt(cfg.out_dim)


def _project_and_normalize(raw: np.ndarray, cfg: ToyEncoderConfig) -> np.ndarray:
    """Project float64 rows, L2-normalize them and return them as float32."""
    projection = _projection(cfg)
    out = np.empty((raw.shape[0], cfg.out_dim), dtype=np.float32)
    chunks = row_chunks(raw.shape[0], ENCODE_CHUNK_ROWS)
    # One projection and one square buffer serve every chunk.
    buffers = np.empty((2, _largest(chunks), cfg.out_dim))
    for lo, hi in chunks:
        projected = np.matmul(raw[lo:hi], projection, out=buffers[0, : hi - lo])
        normalize_rows(projected, out[lo:hi], "projected", lo, square=buffers[1, : hi - lo])
    return out


def toy_encode_images(raw_vectors: np.ndarray, cfg: ToyEncoderConfig) -> EmbeddingMatrix:
    """Encode raw vectors with the seeded random projection, rows L2-normalized."""
    raw = np.asarray(raw_vectors, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != cfg.raw_dim:
        raise ShapeError(
            f"expected raw vectors of shape (n, {cfg.raw_dim}), got {raw.shape}"
        )
    return EmbeddingMatrix(_project_and_normalize(raw, cfg), normalized=True)


def _token_index(token: str, raw_dim: int) -> int:
    # Stable across processes (unlike hash()) so encodings are reproducible.
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % raw_dim


def bag_of_words_counts(text: str, raw_dim: int) -> np.ndarray:
    """Hash whitespace tokens into a fixed-size count vector."""
    counts = np.zeros(raw_dim, dtype=np.float64)
    for token in text.split():
        counts[_token_index(token, raw_dim)] += 1.0
    return counts


def toy_encode_texts(descriptions: list[str], cfg: ToyEncoderConfig) -> EmbeddingMatrix:
    """Encode descriptions via hashed bag-of-words counts, then project + normalize.

    Token order does not matter; identical strings map to identical rows.
    """
    for i, text in enumerate(descriptions):
        if not isinstance(text, str) or not text.strip():
            raise InvalidArgumentError(f"description {i} is empty")
    raw = np.stack([bag_of_words_counts(t, cfg.raw_dim) for t in descriptions]) if descriptions else np.zeros((0, cfg.raw_dim))
    return EmbeddingMatrix(_project_and_normalize(raw, cfg), normalized=True)


def import_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Load an externally computed feature bank file as an EmbeddingMatrix."""
    matrix, normalized = persist.read_bank(path)
    return EmbeddingMatrix(matrix, normalized=normalized)
