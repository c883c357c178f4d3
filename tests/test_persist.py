import ast
import json
import re
import struct
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from conftest import bank_bytes_reference
import odpc
from odpc import persist
from odpc.blocks import CHECK_BLOCK_ELEMS
from odpc.errors import ConfigError, CorruptFileError, FormatError, InvalidArgumentError


def test_bank_roundtrip_bitwise(tmp_path, rng):
    mat = rng.standard_normal((17, 9)).astype(np.float32)
    path = tmp_path / "bank.fb"
    persist.write_bank(mat, path, normalized=False)
    back, normalized = persist.read_bank(path)
    assert back.dtype == np.float32
    assert not normalized
    assert np.array_equal(back, mat)
    assert back.tobytes() == mat.tobytes()


def test_bank_roundtrip_empty(tmp_path):
    mat = np.zeros((0, 12), dtype=np.float32)
    path = tmp_path / "empty.fb"
    persist.write_bank(mat, path, normalized=True)
    back, normalized = persist.read_bank(path)
    assert back.shape == (0, 12)
    assert normalized


def test_bank_byte_stability(tmp_path, rng):
    mat = rng.standard_normal((5, 4)).astype(np.float32)
    persist.write_bank(mat, tmp_path / "a.fb")
    persist.write_bank(mat, tmp_path / "b.fb")
    assert (tmp_path / "a.fb").read_bytes() == (tmp_path / "b.fb").read_bytes()


def test_bank_flipped_payload_byte_is_corruption(tmp_path, rng):
    path = tmp_path / "bank.fb"
    persist.write_bank(rng.standard_normal((8, 8)).astype(np.float32), path)
    blob = bytearray(path.read_bytes())
    blob[len(persist.BANK_MAGIC) + 13 + 40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptFileError):
        persist.read_bank(path)


def test_bank_bad_magic(tmp_path, rng):
    path = tmp_path / "bank.fb"
    persist.write_bank(rng.standard_normal((2, 2)).astype(np.float32), path)
    blob = bytearray(path.read_bytes())
    blob[0:8] = b"NOTABANK"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        persist.read_bank(path)


def test_bank_normalized_flag_other_than_0_or_1_is_format_error(tmp_path, rng):
    # The flag byte follows the magic and three u32s, and the CRC does not cover it.
    path = tmp_path / "bank.fb"
    persist.write_bank(rng.standard_normal((3, 4)).astype(np.float32), path, normalized=True)
    blob = bytearray(path.read_bytes())
    blob[len(persist.BANK_MAGIC) + 12] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=re.escape(str(path)) + ".*got 7"):
        persist.read_bank(path)


def test_bank_truncated_file(tmp_path, rng):
    path = tmp_path / "bank.fb"
    persist.write_bank(rng.standard_normal((6, 6)).astype(np.float32), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(FormatError):
        persist.read_bank(path)


def test_bank_rejects_non_finite(tmp_path):
    mat = np.array([[1.0, np.inf]], dtype=np.float32)
    with pytest.raises(InvalidArgumentError):
        persist.write_bank(mat, tmp_path / "x.fb")


@pytest.mark.parametrize("layout", ["float64", "fortran", "strided", "empty"])
def test_bank_bytes_equal_whole_file_oracle(tmp_path, rng, layout):
    base = rng.standard_normal((40, 24))
    matrix = {
        "float64": base,
        "fortran": np.asfortranarray(base.astype(np.float32)),
        "strided": base.astype(np.float32)[::3, ::2],
        "empty": np.zeros((0, 24), dtype=np.float32),
    }[layout]
    path = tmp_path / "bank.fb"
    persist.write_bank(matrix, path, normalized=True)
    assert path.read_bytes() == bank_bytes_reference(matrix, normalized=True)


def test_bank_rejects_non_finite_in_last_check_block(tmp_path, rng):
    rows = CHECK_BLOCK_ELEMS // 16
    mat = rng.standard_normal((2 * rows + 3, 16)).astype(np.float32)
    mat[-1, -1] = np.nan
    with pytest.raises(InvalidArgumentError):
        persist.write_bank(mat, tmp_path / "x.fb")
    assert not (tmp_path / "x.fb").exists()


def test_bank_header_declaring_more_than_the_file_holds(tmp_path):
    path = tmp_path / "huge.fb"
    blob = persist.BANK_MAGIC + struct.pack("<III B", persist.BANK_VERSION, 2**31, 2**31, 0)
    path.write_bytes(blob + bytes(40 - len(blob)))
    with pytest.raises(FormatError, match="payload size mismatch"):
        persist.read_bank(path)


def test_bank_trailing_byte_is_format_error(tmp_path, rng):
    path = tmp_path / "bank.fb"
    persist.write_bank(rng.standard_normal((3, 5)).astype(np.float32), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError):
        persist.read_bank(path)


@pytest.mark.parametrize("blob", [b'{"epochs": 3', b'{"a": "\xff"}', b"[" * 100_000,
                                  b'{"epochs": ' + b"1" * 5000 + b"}"],
                         ids=["truncated", "not-utf8", "deeply-nested", "huge-integer"])
def test_read_json_bad_text_is_config_error(tmp_path, blob):
    path = tmp_path / "doc.json"
    path.write_bytes(blob)
    with pytest.raises(ConfigError, match="doc.json: cannot be parsed as JSON"):
        persist.read_json(path)


def test_json_stable_key_order(tmp_path):
    path = tmp_path / "doc.json"
    persist.write_json(path, {"b": 1, "a": {"z": 0, "y": 1}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"z": 0, "y": 1}}
    # One line of sorted-key JSON, the layout of a checkpoint manifest.
    assert text == json.dumps({"b": 1, "a": {"z": 0, "y": 1}}, sort_keys=True) + "\n"
    assert len(text.splitlines()) == 1


def test_atomic_write_leaves_no_temp_files(tmp_path):
    persist.atomic_write_text(tmp_path / "out.txt", "hello")
    persist.atomic_write_text(tmp_path / "out.txt", "world")
    assert (tmp_path / "out.txt").read_text() == "world"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_only_persist_imports_struct_or_zlib():
    """Byte layouts live in one module: no other module packs bytes or CRCs."""
    package = Path(odpc.__file__).parent
    offenders = [
        path.name for path in sorted(package.glob("*.py"))
        if path.name != "persist.py" and {"struct", "zlib"} & set(_top_level_imports(path))
    ]
    assert offenders == []


def test_runtime_imports_are_numpy_and_stdlib_only():
    """Every import in the package, function-level ones included, is odpc
    itself, numpy or the standard library; pyproject lists numpy alone."""
    package = Path(odpc.__file__).parent
    allowed = {"odpc", "numpy"} | set(sys.stdlib_module_names)
    offenders = sorted(
        f"{path.name}: {name}" for path in package.glob("*.py")
        for name in set(_top_level_imports(path)) - allowed
    )
    assert offenders == []
    pyproject = (package.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    deps = tomllib.loads(pyproject)["project"]["dependencies"]
    assert [re.match(r"[\w.-]+", dep).group() for dep in deps] == ["numpy"]
