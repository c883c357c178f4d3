"""Binary and JSON persistence with fixed layouts.

Feature bank file layout (all integers little-endian):

    bytes 0..7    magic ``ODPCFB01``
    u32           format version (currently 1)
    u32           n_rows
    u32           dim
    u8            normalized flag (0 or 1)
    payload       n_rows * dim float32, row-major
    u32           CRC32 over the payload only

Checkpoint layout (``write_manifest_frame``; all integers little-endian):

    bytes 0..7    magic ``ODPCCK01``
    u32           manifest byte length
    manifest      one-line sorted-key UTF-8 JSON (shapes, dims, seed, epoch, class counts)
    payload       float32 tensors, concatenated in manifest tensor order
    u32           CRC32 over the manifest bytes followed by the payload

Files are byte-identical across platforms for identical inputs. Writers go
through a temp-file-then-rename so partially written outputs never replace
good ones.

Both layouts are a prefix, a float32 payload and a CRC32, written by one
writer and read by one reader without whole-file copies: the writer hands
each array's own bytes to the file and the CRC; the reader checks the
declared payload size against the file size before allocating anything,
then reads the payload straight into the returned arrays.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
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
_U32 = struct.Struct("<I")


def atomic_write_bytes(path: str | Path, *parts) -> None:
    """Write bytes-like ``parts``, in order, to path atomically (temp file in
    the same dir, then rename). A path under a regular file raises
    NotADirectoryError, as opening one for reading does."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:  # the parent exists and is not a directory
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path.parent)) from exc
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


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write CSV atomically, one line per row; a cell is ``str`` of it, quoted
    only when it holds a comma, a double quote or a newline."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    atomic_write_text(path, text.getvalue())


def write_json(path: str | Path, obj: object) -> None:
    """Serialize obj as one line of sorted-key UTF-8 JSON, a manifest's layout."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True) + "\n")


def read_json(path: str | Path) -> object:
    """Parse a UTF-8 JSON file; text that is not UTF-8 JSON, nests deeper than
    the parser recurses or holds an integer too long to convert raises ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: cannot be parsed as JSON ({exc})") from exc


def _crc32(start: bytes, payloads) -> int:
    crc = zlib.crc32(start)
    for payload in payloads:
        crc = zlib.crc32(payload, crc)
    return crc & 0xFFFFFFFF


def _write_payload(path: str | Path, prefix: bytes, arrays, crc_start: bytes = b"") -> None:
    """Write ``prefix``, each of ``arrays`` as little-endian float32, and a
    u32 CRC32 over ``crc_start`` followed by the arrays' bytes."""
    payloads = [np.ascontiguousarray(a, dtype="<f4").reshape(-1).view(np.uint8) for a in arrays]
    atomic_write_bytes(path, prefix, *payloads, _U32.pack(_crc32(crc_start, payloads)))


def _read_payload(fh, path: str | Path, shapes, crc_start: bytes = b"") -> list[np.ndarray]:
    """Read what ``_write_payload`` wrote after its prefix, from ``fh``'s
    position to the end of the file: float32 arrays of ``shapes``, then the CRC."""
    expected = 4 * sum(math.prod(shape) for shape in shapes)
    held = os.fstat(fh.fileno()).st_size - fh.tell() - _U32.size
    if held != expected:
        raise FormatError(
            f"{path}: payload size mismatch (declared {expected} bytes, file holds {held})"
        )
    arrays = [np.empty(shape, dtype="<f4") for shape in shapes]
    payloads = [arr.reshape(-1).view(np.uint8) for arr in arrays]
    got = sum(fh.readinto(payload) for payload in payloads)
    crc = fh.read(_U32.size)
    if got != expected or len(crc) != _U32.size or fh.read(1):
        raise FormatError(f"{path}: file changed size while it was read")
    if _crc32(crc_start, payloads) != _U32.unpack(crc)[0]:
        raise CorruptFileError(f"{path}: payload CRC mismatch")
    return arrays


def write_manifest_frame(path: str | Path, magic: bytes, manifest: dict, arrays) -> None:
    """Write ``magic``, the JSON ``manifest`` and the float32 ``arrays`` in the
    checkpoint layout; atomic, lossless for float32."""
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    prefix = magic + _U32.pack(len(manifest_bytes)) + manifest_bytes
    _write_payload(path, prefix, arrays, crc_start=manifest_bytes)


def read_manifest_frame(path: str | Path, magic: bytes, shapes_of) -> tuple[dict, list[np.ndarray]]:
    """Read a file in the checkpoint layout; returns (manifest, arrays).

    ``shapes_of(path, manifest)`` validates the parsed manifest and returns
    the shapes of the arrays that follow it, in file order. Raises FormatError
    on a bad magic, manifest or size, CorruptFileError on a CRC mismatch.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(len(magic) + _U32.size)
        if len(prefix) < len(magic) + _U32.size or not prefix.startswith(magic):
            raise FormatError(f"{path}: bad magic or short file {prefix[: len(magic)]!r}")
        (length,) = _U32.unpack_from(prefix, len(magic))
        if os.fstat(fh.fileno()).st_size < len(prefix) + length + _U32.size:
            raise FormatError(f"{path}: truncated manifest")
        manifest_bytes = fh.read(length)
        try:
            manifest = json.loads(manifest_bytes.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: manifest cannot be parsed as JSON") from exc
        if not isinstance(manifest, dict):
            raise FormatError(f"{path}: manifest is not a JSON object")
        arrays = _read_payload(fh, path, shapes_of(path, manifest), crc_start=manifest_bytes)
    return manifest, arrays


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
    prefix = BANK_MAGIC + _HEADER.pack(BANK_VERSION, n_rows, dim, 1 if normalized else 0)
    _write_payload(path, prefix, [arr])


def read_bank(path: str | Path) -> tuple[np.ndarray, bool]:
    """Read a feature bank file; returns (float32 matrix, normalized flag).

    Raises FormatError on a bad magic/version/flag/size, CorruptFileError
    on a CRC mismatch.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX)
        if os.fstat(fh.fileno()).st_size < _PREFIX + _U32.size:
            raise FormatError(f"{path}: file too short for a feature bank")
        if prefix[: len(BANK_MAGIC)] != BANK_MAGIC:
            raise FormatError(f"{path}: bad magic {prefix[:8]!r}")
        version, n_rows, dim, norm_flag = _HEADER.unpack_from(prefix, len(BANK_MAGIC))
        if version != BANK_VERSION:
            raise FormatError(f"{path}: unsupported bank version {version}")
        if norm_flag not in (0, 1):
            raise FormatError(f"{path}: normalized flag must be 0 or 1, got {norm_flag}")
        (matrix,) = _read_payload(fh, path, [(n_rows, dim)])
    return matrix, bool(norm_flag)
