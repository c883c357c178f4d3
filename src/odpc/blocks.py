"""Row blocking shared by every pass that streams a matrix in pieces.

A matrix of ``n_rows`` rows is cut into the fewest near-equal chunks of at
most ``max_rows`` rows each. Equal chunks never leave a one- or two-row
tail, which BLAS multiplies through its matrix-vector path and rounds
differently from the same rows in a larger batch; a GEMM over the chunks is
therefore bit-equal to the GEMM over the whole matrix.
"""

from __future__ import annotations

# Elements per block of a validation pass over a matrix. A block's flags and
# float64 squares (64 KiB and 512 KiB) stay in a 2 MiB L2 cache.
CHECK_BLOCK_ELEMS = 1 << 16


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
