"""Binary and JSON persistence with fixed layouts.

Feature bank file layout (all integers little-endian):

    bytes 0..7    magic ``ODPCFB01``
    u32           format version (currently 1)
    u32           n_rows
    u32           dim
    u8            normalized flag (0 or 1)
    payload       n_rows * dim float32, row-major
    u32           CRC32 over the payload

Files are byte-identical across platforms for identical inputs. Writers go
through a temp-file-then-rename so partially written outputs never replace
good ones.

The bank payload is written and read without whole-file copies: the writer
converts its input to little-endian float32 at most once, checks it for
finite values block by block, and hands the array's own bytes to the file
and the CRC; the reader checks the declared payload size against the file
size before allocating anything, then reads the payload straight into the
returned array and runs the CRC over that array's bytes.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .blocks import CHECK_BLOCK_ELEMS, row_chunks, rows_per_block
from .errors import ConfigError, CorruptFileError, FormatError, InvalidArgumentError

BANK_MAGIC = b"ODPCFB01"
BANK_VERSION = 1

_HEADER = struct.Struct("<III B")
_PREFIX = len(BANK_MAGIC) + _HEADER.size
_CRC = struct.Struct("<I")



def atomic_write_bytes(path: str | Path, *parts) -> None:
    """Write bytes-like ``parts``, in order, to path atomically (temp file in
    the same dir, then rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_json(path: str | Path, obj: object) -> None:
    """Serialize obj as UTF-8 JSON with stable key ordering."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> object:
    """Parse a UTF-8 JSON file; text that is not valid JSON raises ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid UTF-8 JSON ({exc})") from exc


def write_bank(matrix: np.ndarray, path: str | Path, normalized: bool = False) -> None:
    """Persist a 2-D float matrix in the feature bank format.

    Values are stored as little-endian float32; pass data that is already
    float32 for a lossless roundtrip.
    """
    arr = np.ascontiguousarray(matrix, dtype="<f4")
    if arr.ndim != 2:
        raise InvalidArgumentError(f"bank matrix must be 2-D, got shape {arr.shape}")
    n_rows, dim = arr.shape
    for lo, hi in row_chunks(n_rows, rows_per_block(dim, CHECK_BLOCK_ELEMS)):
        if not np.isfinite(arr[lo:hi]).all():
            raise InvalidArgumentError("bank matrix contains non-finite values")
    payload = arr.reshape(-1).view(np.uint8)
    atomic_write_bytes(
        path,
        BANK_MAGIC + _HEADER.pack(BANK_VERSION, n_rows, dim, 1 if normalized else 0),
        payload,
        _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF),
    )


def read_bank(path: str | Path) -> tuple[np.ndarray, bool]:
    """Read a feature bank file; returns (float32 matrix, normalized flag).

    Raises FormatError on a bad magic/version/size, CorruptFileError on a
    CRC mismatch.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX)
        size = os.fstat(fh.fileno()).st_size
        if size < _PREFIX + _CRC.size:
            raise FormatError(f"{path}: file too short for a feature bank")
        if prefix[: len(BANK_MAGIC)] != BANK_MAGIC:
            raise FormatError(f"{path}: bad magic {prefix[:8]!r}")
        version, n_rows, dim, norm_flag = _HEADER.unpack_from(prefix, len(BANK_MAGIC))
        if version != BANK_VERSION:
            raise FormatError(f"{path}: unsupported bank version {version}")
        expected = n_rows * dim * 4
        if size != _PREFIX + expected + _CRC.size:
            raise FormatError(
                f"{path}: payload size mismatch (declared {expected} bytes, "
                f"file holds {size - _PREFIX - _CRC.size})"
            )
        matrix = np.empty((n_rows, dim), dtype="<f4")
        payload = matrix.reshape(-1).view(np.uint8)
        got = fh.readinto(payload)
        crc = fh.read(_CRC.size)
        if got != expected or len(crc) != _CRC.size or fh.read(1):
            raise FormatError(f"{path}: file changed size while it was read")
    (crc_stored,) = _CRC.unpack(crc)
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc_stored:
        raise CorruptFileError(f"{path}: payload CRC mismatch")
    return matrix, bool(norm_flag)
