"""On-disk formats: LSTF tensor container, LSCK checkpoint, LSPC point cloud, PGM.

All integers are little-endian.  LSTF is the one array container used
everywhere (samples, rasters, radar cubes, checkpoint payloads):

    "LSTF" | version u8 = 1 | rank u8 | rank x u32 dims | float32 payload

LSCK wraps a config blob plus named LSTF records:

    "LSCK" | version u8 = 1 | u32 config length | config UTF-8
          | u32 tensor count | per tensor: u16 name length, name, LSTF record

Adam state rides in the same tensor table under the reserved "adam." prefix.
LSPC is "LSPC" | u32 count | count x 3 float32 (x, y, z).
"""

from __future__ import annotations

import contextlib
import io
import os
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "MalformedFileError",
    "write_lstf",
    "read_lstf",
    "write_lsck",
    "read_lsck",
    "write_lspc",
    "read_lspc",
    "write_pgm",
    "write_text",
]

LSTF_MAGIC = b"LSTF"
LSCK_MAGIC = b"LSCK"
LSPC_MAGIC = b"LSPC"
ADAM_PREFIX = "adam."


class MalformedFileError(ValueError):
    """Raised when an input file fails structural validation."""


@contextlib.contextmanager
def _replacing(path):
    """Yield a new temporary file beside ``path``; rename it over ``path`` once the block succeeds.

    A failed write removes the temporary file, so ``path`` always holds
    either its old content or the whole new file.  The rename makes the
    write atomic for readers and against a crash of this process; no fsync
    is made, so it is not durable across a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temporary file (see _replacing)."""
    with _replacing(path) as f:
        f.write(text.encode("utf-8"))


def _read_exact(f, n: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise MalformedFileError(f"truncated file while reading {what}")
    return buf


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise MalformedFileError(f"{what} is not valid UTF-8") from e


# -- LSTF ---------------------------------------------------------------------


def _lstf_header(arr: np.ndarray) -> bytes:
    if arr.ndim < 1 or arr.ndim > 255:
        raise ValueError(f"unsupported rank {arr.ndim}")
    if arr.size == 0:
        raise ValueError("zero-sized dimensions are not representable")
    return LSTF_MAGIC + struct.pack(f"<BB{arr.ndim}I", 1, arr.ndim, *arr.shape)


def _write_lstf_record(f, arr: np.ndarray) -> None:
    """Write one LSTF record: the header, then the little-endian float32 payload in place."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    f.write(_lstf_header(arr))
    f.write(memoryview(arr).cast("B"))


def _remaining(f) -> int:
    pos = f.tell()
    end = f.seek(0, io.SEEK_END)
    f.seek(pos)
    return end - pos


def _read_lstf_record(f) -> np.ndarray:
    """Read one LSTF record from an open binary file, leaving it just past the payload."""
    magic = _read_exact(f, 4, "magic")
    if magic != LSTF_MAGIC:
        raise MalformedFileError(f"bad magic {magic!r}, expected LSTF")
    version, rank = struct.unpack("<BB", _read_exact(f, 2, "header"))
    if version != 1:
        raise MalformedFileError(f"unrecognized LSTF version {version}")
    if rank < 1:
        raise MalformedFileError("rank must be at least 1")
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank, "dims"))
    count = 1
    for d in dims:
        if d < 1:
            raise MalformedFileError("zero-sized dimension")
        count *= d
    # checked before allocating, so a corrupted dims field cannot ask for terabytes
    if 4 * count > _remaining(f):
        raise MalformedFileError("truncated file while reading payload")
    arr = np.empty(dims, dtype="<f4")
    if f.readinto(memoryview(arr).cast("B")) != arr.nbytes:
        raise MalformedFileError("truncated file while reading payload")
    return arr.astype(np.float32, copy=False)


def write_lstf(path, arr: np.ndarray) -> None:
    with _replacing(path) as f:
        _write_lstf_record(f, arr)


def read_lstf(path) -> np.ndarray:
    with open(path, "rb") as f:
        arr = _read_lstf_record(f)
        if f.read(1):
            raise MalformedFileError("trailing bytes after LSTF payload")
    return arr


# -- LSCK ---------------------------------------------------------------------


def write_lsck(path, config_text: str, tensors: dict[str, np.ndarray]) -> None:
    """Stream a checkpoint to ``path`` through a temporary file (see _replacing).

    Names are validated before any file is opened.
    """
    encoded = [name.encode("utf-8") for name in tensors]
    for name, nb in zip(tensors, encoded):
        if len(nb) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
    blob = config_text.encode("utf-8")
    with _replacing(path) as f:
        f.write(LSCK_MAGIC + struct.pack("<BI", 1, len(blob)) + blob)
        f.write(struct.pack("<I", len(encoded)))
        for nb, arr in zip(encoded, tensors.values()):
            f.write(struct.pack("<H", len(nb)) + nb)
            _write_lstf_record(f, arr)


def read_lsck(path) -> tuple[str, dict[str, np.ndarray]]:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != LSCK_MAGIC:
            raise MalformedFileError(f"bad magic {magic!r}, expected LSCK")
        (version,) = struct.unpack("<B", _read_exact(f, 1, "version"))
        if version != 1:
            raise MalformedFileError(f"unrecognized LSCK version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(f, 4, "config length"))
        if cfg_len > _remaining(f):
            raise MalformedFileError("truncated file while reading config blob")
        config_text = _decode(_read_exact(f, cfg_len, "config blob"), "config blob")
        (count,) = struct.unpack("<I", _read_exact(f, 4, "tensor count"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, "name length"))
            name = _decode(_read_exact(f, name_len, "name"), "tensor name")
            if name in tensors:
                raise MalformedFileError(f"duplicate tensor name {name!r}")
            tensors[name] = _read_lstf_record(f)
        if f.read(1):
            raise MalformedFileError("trailing bytes after LSCK payload")
    return config_text, tensors


# -- LSPC ---------------------------------------------------------------------


def write_lspc(path, points: np.ndarray) -> None:
    pts = np.ascontiguousarray(points, dtype=np.float32)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be [N, 3], got {pts.shape}")
    with _replacing(path) as f:
        f.write(LSPC_MAGIC)
        f.write(struct.pack("<I", pts.shape[0]))
        f.write(pts.astype("<f4").tobytes())


def read_lspc(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != LSPC_MAGIC:
            raise MalformedFileError(f"bad magic {magic!r}, expected LSPC")
        (count,) = struct.unpack("<I", _read_exact(f, 4, "count"))
        # checked before reading, so a corrupted count cannot ask for 48 GiB
        if 12 * count > _remaining(f):
            raise MalformedFileError("truncated file while reading points")
        payload = _read_exact(f, 12 * count, "points")
        if f.read(1):
            raise MalformedFileError("trailing bytes after LSPC payload")
    return np.frombuffer(payload, dtype="<f4").reshape(count, 3).astype(np.float32)


# -- PGM ----------------------------------------------------------------------


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255), min-max scaled; constant nonzero maps to mid-gray."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM render expects a 2-D array")
    if not np.isfinite(img).all():
        raise ValueError("PGM render expects finite values")
    lo, hi = img.min(), img.max()
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 255.0)
    elif hi == 0.0:
        scaled = np.zeros_like(img)
    else:
        scaled = np.full_like(img, 128.0)
    data = scaled.astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with _replacing(path) as f:
        f.write(header + data.tobytes())
