"""Row blocking and unit rows, shared by every pass that streams a matrix.

A matrix of ``n_rows`` rows is cut into the fewest near-equal chunks of at
most ``max_rows`` rows each. Equal chunks never leave a one- or two-row
tail, which BLAS multiplies through its matrix-vector path and rounds
differently from the same rows in a larger batch; a GEMM over the chunks is
therefore bit-equal to the GEMM over the whole matrix. Row norms are
per-row float64 operations, so a chunk's unit rows are the whole matrix's.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

# Elements per block of a validation pass over a matrix. A block's flags and
# float64 squares (64 KiB and 512 KiB) stay in a 2 MiB L2 cache.
CHECK_BLOCK_ELEMS = 1 << 16

# A row whose norm is below this has no direction to keep.
ZERO_NORM = 1e-12


def row_chunks(n_rows: int, max_rows: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of near-equal chunks covering ``range(n_rows)``.

    Zero rows give one empty chunk, so a pass over the chunks still runs
    once and produces correctly shaped empty results.
    """
    n_chunks = max(1, -(-n_rows // max(1, max_rows)))
    bounds = [n_rows * i // n_chunks for i in range(n_chunks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def rows_per_block(dim: int, block_elems: int) -> int:
    """Most whole rows of width ``dim`` that fit in ``block_elems`` elements."""
    return max(1, block_elems // max(1, dim))


def row_norms(rows: np.ndarray, square: np.ndarray | None = None) -> np.ndarray:
    """Float64 L2 norm of each row, bit for bit ``np.linalg.norm(rows.astype(np.float64),
    axis=1)``; the squares go into ``square`` (float64, ``rows``' shape) if given."""
    if rows.dtype != np.float64:
        # One exact cast, squared in place (a casting multiply buffers both operands).
        square = np.empty(rows.shape) if square is None else square
        square[...] = rows
        rows = square
    square = np.multiply(rows, rows, out=square)
    return np.sqrt(np.add.reduce(square, axis=1))


def normalize_rows(rows: np.ndarray, out: np.ndarray, what: str, first_row: int = 0,
                   square: np.ndarray | None = None) -> np.ndarray:
    """Write ``rows`` over their ``row_norms(rows, square)`` into ``out`` and return
    the norms; ``out`` may be ``rows``, and ``square`` may be ``out`` if it is not.
    A norm below ZERO_NORM raises InvalidArgumentError naming row ``first_row + i``."""
    norms = row_norms(rows, square)
    small = norms < ZERO_NORM
    if small.any():
        raise InvalidArgumentError(f"{what} row {first_row + int(np.argmax(small))} has (near-)zero norm")
    np.divide(rows, norms[:, None], out=out)
    return norms
