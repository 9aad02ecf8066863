"""Netpbm image reading and writing: P2/P3 (ASCII) and P5/P6 (binary).

Only maxval 255 is accepted. Header comments (# to end of line) are allowed
wherever whitespace is. Decoded pixel values are integral floats in
[0, 255]; gray images are h x w arrays, color images h x w x 3 volumes,
both column-major like everything else. The writer emits binary P5/P6 and a
write-then-read round trip reproduces the pixels exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NumArray, wrap_ndarray
from .errors import ArgumentError, PnmFormatError, ShapeError


@dataclass(frozen=True)
class Image:
    """Decoded raster: pixels are h x w (gray) or h x w x 3 (color)."""

    pixels: NumArray

    def __post_init__(self):
        p = self.pixels
        if p.rank not in (2, 3) or (p.rank == 3 and p.dims[2] != 3):
            raise ShapeError(f"image pixels must be h x w or h x w x 3, got {p.dims}")

    @property
    def height(self) -> int:
        return self.pixels.dims[0]

    @property
    def width(self) -> int:
        return self.pixels.dims[1]

    @property
    def channels(self) -> int:
        return 3 if self.pixels.rank == 3 else 1


class _Scanner:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_space(self):
        while self.pos < len(self.data):
            b = self.data[self.pos]
            if b in b" \t\r\n\x0b\x0c":
                self.pos += 1
            elif b == ord("#"):
                while self.pos < len(self.data) and self.data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def next_int(self, what: str) -> int:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] in b"0123456789":
            self.pos += 1
        if self.pos == start:
            raise PnmFormatError(f"expected {what}", start)
        return int(self.data[start:self.pos])


def decode_pnm(data: bytes) -> Image:
    """Decode a PNM byte stream; raises PnmFormatError with a byte offset."""
    if len(data) < 2 or data[0:1] != b"P" or data[1:2] not in b"2356":
        raise PnmFormatError("not a P2/P3/P5/P6 stream", 0)
    kind = data[:2].decode("ascii")
    sc = _Scanner(data)
    sc.pos = 2
    width = sc.next_int("width")
    height = sc.next_int("height")
    if width < 1 or height < 1:
        raise PnmFormatError(f"bad raster size {width}x{height}", sc.pos)
    maxval_at = sc.pos
    maxval = sc.next_int("maxval")
    if maxval != 255:
        raise PnmFormatError(f"unsupported maxval {maxval} (only 255)", maxval_at)
    channels = 3 if kind in ("P3", "P6") else 1
    count = width * height * channels

    if kind in ("P5", "P6"):
        if sc.pos >= len(data) or data[sc.pos] not in b" \t\r\n\x0b\x0c":
            raise PnmFormatError("expected one whitespace byte after maxval", sc.pos)
        sc.pos += 1  # exactly one whitespace byte, then the raster
        if len(data) - sc.pos < count:
            raise PnmFormatError(
                f"truncated raster: need {count} bytes, have {len(data) - sc.pos}",
                len(data),
            )
        flat = np.frombuffer(data, dtype=np.uint8, count=count, offset=sc.pos)
        flat = flat.astype(np.float64)
    else:
        # each sample needs at least one separator byte and one digit
        if 2 * count > len(data) - sc.pos:
            raise PnmFormatError(
                f"truncated: {count} samples need at least {2 * count} bytes, "
                f"have {len(data) - sc.pos}",
                len(data),
            )
        vals = np.empty(count)
        for k in range(count):
            at = sc.pos
            v = sc.next_int("sample")
            if v > maxval:
                raise PnmFormatError(f"sample {v} exceeds maxval {maxval}", at)
            vals[k] = v
        flat = vals

    if channels == 1:
        arr = flat.reshape(height, width)
    else:
        arr = flat.reshape(height, width, 3)
    return Image(pixels=wrap_ndarray(arr))


def read_pnm(path) -> Image:
    with open(path, "rb") as fh:
        return decode_pnm(fh.read())


def encode_pnm(img: Image) -> bytes:
    """Encode as binary P5 (gray) or P6 (color) with maxval 255."""
    v = img.pixels.view()
    if not np.all((v >= 0) & (v <= 255) & (v == np.floor(v))):
        raise ArgumentError("image pixels must be integral values in [0, 255]")
    kind = b"P6" if img.channels == 3 else b"P5"
    header = kind + b"\n%d %d\n255\n" % (img.width, img.height)
    payload = np.ascontiguousarray(v).astype(np.uint8).tobytes()
    return header + payload


def write_pnm(img: Image, path):
    with open(path, "wb") as fh:
        fh.write(encode_pnm(img))
