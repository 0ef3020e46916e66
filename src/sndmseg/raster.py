"""Raster primitives and file formats.

Arrays are the carriers: a binary mask is a bool array of shape (H, W)
with True marking foreground, a float map is a float32 array of shape
(H, W), and an RGB image is a float32 array of shape (H, W, 3) with
values in [0, 1].

On disk, masks are binary PGM (P5, written as 0/255, read as foreground
above maxval/2) and images binary PPM (P6). One PNM reader and one writer
serve both; each public function adds only its pixel conversion. A header
value has at most 9 digits, and maxval is at most 255. Float maps use a
small container: the magic bytes b"SNDM", width and height as 32-bit
little-endian unsigned integers, then width*height 32-bit little-endian
IEEE-754 floats in row-major order. The reader, like the writer, takes
only finite values, and no bytes past the last float. Config files and
checkpoint headers share one flat ``key = value`` text format.
"""

from __future__ import annotations

import os
import secrets
import struct

import numpy as np

from .errors import (
    IoFailureError,
    MalformedHeaderError,
    MissingFileError,
    NonFiniteError,
    OutOfRangeError,
    ShapeMismatchError,
    TruncatedPayloadError,
)

FLOAT_MAP_MAGIC = b"SNDM"


def as_mask(mask) -> np.ndarray:
    """Coerce to a valid (H, W) bool mask array."""
    m = np.asarray(mask)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatchError(f"mask must be 2-d and nonempty, got shape {m.shape}")
    if m.dtype != np.bool_:
        m = m.astype(bool)
    return m


def as_float_map(values) -> np.ndarray:
    """Coerce to a valid (H, W) float32 map; values are checked finite and within float32 range before the cast, as in :func:`as_image`."""
    v = np.asarray(values)
    if v.dtype.kind != "f":
        v = v.astype(np.float32)
    if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ShapeMismatchError(f"float map must be 2-d and nonempty, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteError("float map contains non-finite values")
    if max(-v.min(), v.max()) > np.finfo(np.float32).max:
        raise OutOfRangeError(f"float map values must lie within the float32 range, got [{v.min()}, {v.max()}]")
    return v.astype(np.float32, copy=False)


def as_image(values) -> np.ndarray:
    """Coerce to a valid (H, W, 3) float32 image with values in [0, 1].

    The values are checked in their own float dtype before the cast, so a
    finite value too large for float32 is out of range, not an overflow.
    """
    v = np.asarray(values)
    if v.dtype.kind != "f":
        v = v.astype(np.float32)
    if v.ndim != 3 or v.shape[2] != 3 or v.shape[0] < 1 or v.shape[1] < 1:
        raise ShapeMismatchError(f"image must have shape (H, W, 3), got {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteError("image contains non-finite values")
    if v.min() < 0.0 or v.max() > 1.0:
        raise OutOfRangeError(f"image values must lie in [0, 1], got [{v.min()}, {v.max()}]")
    return v.astype(np.float32, copy=False)


# ---------------------------------------------------------------------------
# atomic file writing


def _atomic_write(path: str, payload: bytes) -> None:
    """Write payload to path via a temp file + rename; no partial outputs.

    The temp file is created with mode 0o666 under the umask, so the output
    gets the permissions a plain ``open(path, "wb")`` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        unique = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
        fd = os.open(unique, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp_path = unique
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_path, path)
        tmp_path = None
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise MissingFileError(f"no such file: {path}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IoFailureError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# PNM (PGM/PPM) parsing


def _read_pnm(path: str, magic: bytes, channels: int):
    """Return the (H, W, channels) uint8 pixels and the maxval of a binary PNM file."""
    data = _read_bytes(path)
    if not data.startswith(magic):
        raise MalformedHeaderError(f"{path}: expected {magic.decode()} header")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        # skip whitespace and '#' comment lines between header tokens
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        # no real size has 10 digits, and int() refuses more than 4300
        if not token.isdigit() or len(token) > 9:
            raise MalformedHeaderError(f"{path}: bad header token {token[:16]!r}")
        fields.append(int(token))
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedHeaderError(f"{path}: missing delimiter after maxval")
    pos += 1  # exactly one whitespace byte separates header and payload
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise MalformedHeaderError(f"{path}: only 8-bit payloads supported, maxval={maxval}")
    expected = width * height * channels
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise TruncatedPayloadError(f"{path}: expected {expected} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels), maxval


def _write_pnm(path: str, magic: bytes, pixels: np.ndarray) -> None:
    """Write (H, W) or (H, W, 3) uint8 pixels as a binary PNM file with maxval 255."""
    height, width = pixels.shape[:2]
    _atomic_write(path, magic + f"\n{width} {height}\n255\n".encode("ascii") + pixels.tobytes())


def read_mask(path: str) -> np.ndarray:
    """Read a binary PGM (P5) file as a bool mask; values above maxval/2 are foreground."""
    gray, maxval = _read_pnm(path, b"P5", 1)
    return gray[:, :, 0] > maxval // 2  # 2 * gray > maxval, without widening the integers


def write_mask(mask, path: str) -> None:
    """Write a bool mask as binary PGM (P5) with foreground=255, background=0."""
    _write_pnm(path, b"P5", np.where(as_mask(mask), np.uint8(255), np.uint8(0)))


def read_image(path: str) -> np.ndarray:
    """Read a binary PPM (P6) file as an (H, W, 3) float32 image in [0, 1]."""
    rgb, maxval = _read_pnm(path, b"P6", 3)
    return (rgb.astype(np.float32) / np.float32(maxval)).clip(0.0, 1.0)


def write_image(image, path: str) -> None:
    """Write an (H, W, 3) float image in [0, 1] as binary PPM (P6)."""
    _write_pnm(path, b"P6", np.rint(as_image(image) * 255.0).astype(np.uint8))


# ---------------------------------------------------------------------------
# key = value text (config files, checkpoint headers)


def parse_key_values(text: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment, and a key may appear once.

    Raises ValueError starting with the 1-based line number of the first
    bad line, a repeated key included; callers turn it into their own
    domain error.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"{lineno}: empty key")
        if key in values:
            raise ValueError(f"{lineno}: repeated key {key!r}")
        values[key] = value
    return values


# ---------------------------------------------------------------------------
# float map container


def write_float_map(values, path: str) -> None:
    """Write an (H, W) float map in the binary float-map container.

    Read-back with :func:`read_float_map` is bit-identical (values are
    stored as little-endian float32).
    """
    v = as_float_map(values).astype("<f4", copy=False)
    height, width = v.shape
    header = FLOAT_MAP_MAGIC + struct.pack("<II", width, height)
    _atomic_write(path, header + v.tobytes())


def read_float_map(path: str) -> np.ndarray:
    """Read a float map written by :func:`write_float_map`."""
    data = _read_bytes(path)
    if len(data) < 12 or not data.startswith(FLOAT_MAP_MAGIC):
        raise MalformedHeaderError(f"{path}: not a float-map file")
    width, height = struct.unpack("<II", data[4:12])
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"{path}: bad dimensions {width}x{height}")
    expected = 12 + 4 * width * height
    if len(data) != expected:
        raise TruncatedPayloadError(f"{path}: expected {expected} bytes, got {len(data)}")
    flat = np.frombuffer(data[12:], dtype="<f4")
    try:
        return as_float_map(flat.reshape(height, width).astype(np.float32))
    except NonFiniteError as exc:
        raise NonFiniteError(f"{path}: {exc}") from None
