"""On-disk containers: lossless round trips and strict malformed-input rejection."""

import io
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lstf_bytes
from lidarsynth import formats as F


# -- LSTF ---------------------------------------------------------------------


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.integers(0, 2**31 - 1),
)
def test_lstf_round_trip_any_rank(dims, seed):
    arr = np.random.default_rng(seed).standard_normal(dims).astype(np.float32)
    blob = lstf_bytes(arr)
    back = F._read_lstf_record(io.BytesIO(blob))
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_lstf_file_round_trip(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "t.lstf"
    F.write_lstf(path, arr)
    np.testing.assert_array_equal(F.read_lstf(path), arr)


def test_lstf_header_layout():
    blob = lstf_bytes(np.zeros((2, 3), dtype=np.float32))
    assert blob[:4] == b"LSTF"
    assert blob[4] == 1  # version
    assert blob[5] == 2  # rank
    assert int.from_bytes(blob[6:10], "little") == 2
    assert int.from_bytes(blob[10:14], "little") == 3
    assert len(blob) == 14 + 6 * 4


def test_lstf_rejects_bad_magic_version_and_truncation():
    blob = bytearray(lstf_bytes(np.ones(4, dtype=np.float32)))
    with pytest.raises(F.MalformedFileError):
        F._read_lstf_record(io.BytesIO(bytes(b"XXXX") + bytes(blob[4:])))
    bad_version = bytes(blob[:4]) + b"\x09" + bytes(blob[5:])
    with pytest.raises(F.MalformedFileError):
        F._read_lstf_record(io.BytesIO(bad_version))
    with pytest.raises(F.MalformedFileError):
        F._read_lstf_record(io.BytesIO(bytes(blob[:-3])))


def test_lstf_rejects_trailing_bytes_at_top_level(tmp_path):
    path = tmp_path / "t.lstf"
    path.write_bytes(lstf_bytes(np.ones(2, dtype=np.float32)) + b"extra")
    with pytest.raises(F.MalformedFileError):
        F.read_lstf(path)


def test_lstf_rejects_zero_dims(tmp_path):
    with pytest.raises(ValueError):
        F.write_lstf(tmp_path / "z.lstf", np.zeros((2, 0), dtype=np.float32))


def test_lstf_rejects_huge_dims_before_allocating(tmp_path):
    # 2**31 x 2**31 float32 would be 16 EiB; the size check must fire first
    blob = b"LSTF" + struct.pack("<BB2I", 1, 2, 2**31, 2**31) + bytes(16)
    with pytest.raises(F.MalformedFileError):
        F._read_lstf_record(io.BytesIO(blob))
    path = tmp_path / "huge.lstf"
    path.write_bytes(blob)
    with pytest.raises(F.MalformedFileError):
        F.read_lstf(path)


# -- LSCK ---------------------------------------------------------------------


def _lsck_reference_bytes(config_text: str, tensors: dict) -> bytes:
    """The LSCK layout assembled in memory, record by record, from lstf_bytes."""
    blob = config_text.encode("utf-8")
    out = b"LSCK" + struct.pack("<BI", 1, len(blob)) + blob + struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        out += struct.pack("<H", len(nb)) + nb + lstf_bytes(arr)
    return out


def _golden_tensors() -> dict:
    rng = np.random.default_rng(5)
    return {
        "fusion.proj.weight": rng.standard_normal((4, 3)).astype(np.float32),
        "decoder.fc.bias": rng.standard_normal(5),  # float64, narrowed on write
        "strided": rng.standard_normal((3, 6)).astype(np.float32)[:, ::2],
        "kernel.é": rng.standard_normal((2, 1, 3, 3)).astype(np.float32),
        "adam.fusion.proj.weight.m": np.zeros((4, 3), dtype=np.float32),
    }


_LSCK_GOOD = _lsck_reference_bytes("comment = café\n", _golden_tensors())
_LSTF_GOOD = lstf_bytes(np.arange(6, dtype=np.float32).reshape(2, 3))


def test_write_lsck_bytes_match_record_by_record_encoding(tmp_path):
    path = tmp_path / "g.lsck"
    F.write_lsck(path, "comment = café\n", _golden_tensors())
    assert path.read_bytes() == _LSCK_GOOD


_GOOD = np.arange(4, dtype=np.float32)
# per format: write a good file, the writes it must reject, and how to read the good array back
_FAILED_WRITES = {
    "lsck": (
        lambda p: F.write_lsck(p, "a = 1\n", {"w": _GOOD}),
        (
            lambda p: F.write_lsck(p, "a = 2\n", {"x" * 0x10000: np.ones(1, dtype=np.float32)}),
            # a tensor rejected after the temporary file is open
            lambda p: F.write_lsck(p, "a = 3\n", {"w": np.ones(2), "empty": np.zeros((2, 0))}),
        ),
        lambda p: F.read_lsck(p)[1]["w"],
    ),
    "lstf": (
        lambda p: F.write_lstf(p, _GOOD),
        (lambda p: F.write_lstf(p, np.zeros((0,))),),
        F.read_lstf,
    ),
    "txt": (
        lambda p: F.write_text(p, " ".join(f"{v:g}" for v in _GOOD)),
        # a lone surrogate has no UTF-8 encoding
        (lambda p: F.write_text(p, "4 5\ud800"),),
        lambda p: np.array(p.read_text(encoding="utf-8").split(), dtype=np.float32),
    ),
}


@pytest.mark.parametrize("ext", sorted(_FAILED_WRITES))
def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, ext):
    write_good, bad_writes, read_back = _FAILED_WRITES[ext]
    path = tmp_path / f"c.{ext}"
    write_good(path)
    before = path.read_bytes()
    for write_bad in bad_writes:
        with pytest.raises(ValueError):
            write_bad(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]
    np.testing.assert_array_equal(read_back(path), _GOOD)


def _mutants(good: bytes):
    """Copies of ``good`` with 1-4 bytes XOR-flipped, or cut short."""

    def flip(edits):
        raw = bytearray(good)
        for at, mask in edits:
            raw[at] ^= mask
        return bytes(raw)

    edits = st.lists(st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255)), min_size=1, max_size=4)
    return st.one_of(edits.map(flip), st.integers(0, len(good) - 1).map(lambda n: good[:n]))


def _parse_or_reject(reader, raw: bytes) -> None:
    # tempfile instead of tmp_path: function-scoped fixtures do not mix with @given
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.bin")
        with open(path, "wb") as f:
            f.write(raw)
        try:
            reader(path)
        except F.MalformedFileError:
            pass


@settings(max_examples=300)
@given(_mutants(_LSCK_GOOD))
def test_lsck_mutants_parse_or_raise_malformed(raw):
    _parse_or_reject(F.read_lsck, raw)


@settings(max_examples=150)
@given(_mutants(_LSTF_GOOD))
def test_lstf_mutants_parse_or_raise_malformed(raw):
    _parse_or_reject(F.read_lstf, raw)


def test_lsck_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {
        "fusion.proj.weight": rng.standard_normal((4, 3)).astype(np.float32),
        "fusion.proj.bias": rng.standard_normal(3).astype(np.float32),
        "adam.fusion.proj.weight.m": np.zeros((4, 3), dtype=np.float32),
    }
    path = tmp_path / "c.lsck"
    F.write_lsck(path, "train.epochs = 20\n", tensors)
    text, back = F.read_lsck(path)
    assert text == "train.epochs = 20\n"
    assert list(back) == list(tensors)
    for name in tensors:
        np.testing.assert_array_equal(back[name], tensors[name])


def test_lsck_preserves_unicode_config(tmp_path):
    text = "comment = café\n"
    path = tmp_path / "u.lsck"
    F.write_lsck(path, text, {"w": np.ones(1, dtype=np.float32)})
    got, _ = F.read_lsck(path)
    assert got == text


def test_lsck_rejects_truncation_and_magic(tmp_path):
    path = tmp_path / "c.lsck"
    F.write_lsck(path, "a = 1\n", {"w": np.ones((2, 2), dtype=np.float32)})
    raw = path.read_bytes()
    short = tmp_path / "short.lsck"
    short.write_bytes(raw[:-5])
    with pytest.raises(F.MalformedFileError):
        F.read_lsck(short)
    bad = tmp_path / "bad.lsck"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(F.MalformedFileError):
        F.read_lsck(bad)


def test_lsck_rejects_duplicate_names(tmp_path):
    path = tmp_path / "c.lsck"
    F.write_lsck(path, "", {"w": np.ones(1, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    # splice the single-tensor record in twice and bump the count to 2
    count_at = len(b"LSCK") + 1 + 4 + 0  # magic, version, config length (empty config)
    record = bytes(raw[count_at + 4 :])
    raw[count_at : count_at + 4] = (2).to_bytes(4, "little")
    dup = tmp_path / "dup.lsck"
    dup.write_bytes(bytes(raw[: count_at + 4]) + record + record)
    with pytest.raises(F.MalformedFileError):
        F.read_lsck(dup)


# -- LSPC ---------------------------------------------------------------------


@given(st.integers(0, 40), st.integers(0, 2**31 - 1))
def test_lspc_round_trip(n, seed):
    # tempfile instead of tmp_path: function-scoped fixtures do not mix with @given
    pts = np.random.default_rng(seed).standard_normal((n, 3)).astype(np.float32)
    import tempfile
    import os

    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "p.lspc")
        F.write_lspc(p, pts)
        back = F.read_lspc(p)
    assert back.shape == (n, 3)
    np.testing.assert_array_equal(back, pts)


_LSPC_GOOD = b"LSPC" + struct.pack("<I", 3) + np.arange(9, dtype="<f4").tobytes()


@settings(max_examples=150)
@given(_mutants(_LSPC_GOOD))
def test_lspc_mutants_parse_or_raise_malformed(raw):
    _parse_or_reject(F.read_lspc, raw)


def test_lspc_rejects_huge_count_before_reading(tmp_path):
    path = tmp_path / "huge.lspc"
    path.write_bytes(b"LSPC" + struct.pack("<I", 0xFFFFFFFF) + bytes(24))
    with pytest.raises(F.MalformedFileError):
        F.read_lspc(path)


def test_lspc_rejects_bad_shape_and_truncation(tmp_path):
    with pytest.raises(ValueError):
        F.write_lspc(tmp_path / "p.lspc", np.zeros((3, 2), dtype=np.float32))
    path = tmp_path / "p.lspc"
    F.write_lspc(path, np.ones((2, 3), dtype=np.float32))
    trunc = tmp_path / "t.lspc"
    trunc.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(F.MalformedFileError):
        F.read_lspc(trunc)


# -- PGM ----------------------------------------------------------------------


def _read_pgm(path):
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    maxval, pixels = rest.split(b"\n", 1)
    w, h = (int(v) for v in dims.split())
    assert header == b"P5" and maxval == b"255"
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def test_pgm_min_max_scales(tmp_path):
    img = np.array([[0.0, 50.0], [100.0, 25.0]])
    path = tmp_path / "i.pgm"
    F.write_pgm(path, img)
    px = _read_pgm(path)
    assert px.shape == (2, 2)
    np.testing.assert_array_equal(px, [[0, 128], [255, 64]])


def test_pgm_zero_raster_is_black(tmp_path):
    path = tmp_path / "z.pgm"
    F.write_pgm(path, np.zeros((3, 4)))
    assert (_read_pgm(path) == 0).all()


def test_pgm_constant_raster_is_mid_gray(tmp_path):
    path = tmp_path / "c.pgm"
    F.write_pgm(path, np.full((2, 5), 7.25))
    assert (_read_pgm(path) == 128).all()


def test_pgm_dims_match_raster(tmp_path):
    path = tmp_path / "d.pgm"
    F.write_pgm(path, np.zeros((7, 11)))
    assert _read_pgm(path).shape == (7, 11)


def test_pgm_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        F.write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_non_finite(tmp_path, bad):
    # min-max scaling would turn the whole image gray or black
    path = tmp_path / "n.pgm"
    with pytest.raises(ValueError, match="finite"):
        F.write_pgm(path, np.array([[1.0, bad], [2.0, 3.0]]))
    assert not path.exists()
