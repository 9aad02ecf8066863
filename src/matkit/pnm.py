"""Netpbm image reading and writing: P2/P3 (ASCII) and P5/P6 (binary).

Only maxval 255 is accepted. Header comments (# to end of line) are allowed
wherever whitespace is. Leading zeros of a field do not count, and a field
of more than 20 significant digits is refused. Decoded pixel values are
integral floats in [0, 255]; gray images are h x w arrays, color images
h x w x 3 volumes, both column-major like everything else. The writer emits
binary P5/P6 and a write-then-read round trip reproduces the pixels exactly;
it refuses an image with no pixels, as the reader refuses a zero extent.

The header is read one field at a time by a scanner, in _header, which
makes every check that reads no sample. An ASCII (P2/P3) raster is decoded
in vector notation: byte classes from lookup tables, comments masked, digit
runs found as the edges of a digit mask, and their values formed by Horner's
rule across token columns. It reports the same pixels, or the same error at
the same byte offset, as reading sample after sample with the scanner would;
the tests keep that loop as its oracle, which shares _header and nothing else.
"""

from __future__ import annotations

import math
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


_WHITESPACE = b" \t\r\n\x0b\x0c"

_MAXVAL = 255  # the one maxval the reader accepts and the writer declares

# More significant digits than any width, height, maxval or sample a stream
# can usefully hold (2**64 has 20); it keeps int() and error messages short.
_MAX_DIGITS = 20


def _field(digits: bytes, what: str, at: int) -> int:
    """A run of ASCII digits as an int, refused at `at` when too long."""
    significant = digits.lstrip(b"0")
    if len(significant) > _MAX_DIGITS:
        raise PnmFormatError(f"{what} has more than {_MAX_DIGITS} significant digits", at)
    return int(significant or b"0")


class _Scanner:
    """The header reader: one whitespace-separated field at a time."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_space(self):
        while self.pos < len(self.data):
            b = self.data[self.pos]
            if b in _WHITESPACE:
                self.pos += 1
            elif b == ord("#"):
                while self.pos < len(self.data) and self.data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def next_int(self, what: str) -> int:
        at = self.pos
        self.skip_space()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] in b"0123456789":
            self.pos += 1
        if self.pos == start:
            raise PnmFormatError(f"expected {what}", start)
        return _field(self.data[start:self.pos], what, at)


# Byte classes of an ASCII raster: every byte that is neither whitespace nor
# a digit stops the scanner, unless a comment holds it.
_STRAY, _SPACE, _DIGIT = 0, 1, 2
_BYTE_CLASS = np.full(256, _STRAY, dtype=np.uint8)
_BYTE_CLASS[list(_WHITESPACE)] = _SPACE
_BYTE_CLASS[list(b"0123456789")] = _DIGIT


def _ascii_samples(data: bytes, start: int, count: int) -> np.ndarray:
    """The first `count` samples of the ASCII raster at data[start:], as
    float64, with the error the scanner would raise reading them in turn.

    Every array with one entry per byte is bool, int8 or uint8, and each is
    dropped once spent; int64 arrays hold one entry per digit run, run of
    '0', line break or '#'. The work is linear in the bytes whatever the
    token lengths: Horner's rule runs over maxval's digits only.
    """
    buf = np.frombuffer(data, dtype=np.uint8, offset=start)
    n = buf.size
    # a comment runs from the first '#' of a line up to its '\r' or '\n'
    comment = np.zeros(n, dtype=bool)
    hashes = np.flatnonzero(buf == ord("#"))
    if hashes.size:
        breaks = np.flatnonzero((buf == ord("\n")) | (buf == ord("\r")))
        stops = np.append(breaks, n)[np.searchsorted(breaks, hashes)]
        first = np.diff(stops, prepend=-1) != 0  # the first '#' of its line
        edge = np.zeros(n + 1, dtype=np.int8)
        edge[hashes[first]] = 1
        edge[stops[first]] = -1
        comment = np.cumsum(edge[:n], dtype=np.int8).view(bool)
    cls = _BYTE_CLASS[buf]
    outside = ~comment
    digit = cls == _DIGIT
    digit &= outside
    stray = cls == _STRAY
    stray &= outside
    first_stray = int(stray.argmax()) if stray.any() else n
    del comment, outside, cls, stray

    runs = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    del digit
    # the scanner reads no token past the first stray byte
    k = min(count, int(np.searchsorted(runs[0::2], first_stray)))
    starts, ends = runs[0:2 * k:2], runs[1:2 * k:2]
    # leading zeros do not count: a token that opens with '0' has its first
    # significant digit where that run of '0' ends
    zero_ends = np.flatnonzero(np.diff(buf == ord("0"), prepend=False, append=False))[1::2]
    opens = np.flatnonzero(buf[starts] == ord("0"))
    sig = starts.copy()
    sig[opens] = zero_ends[np.searchsorted(zero_ends, starts[opens], side="right")]

    # Horner's rule across the last `width` columns of each token; a digit
    # before `sig` (a leading zero, or a byte before the token) counts 0. A
    # value within maxval has no more significant digits than maxval.
    width = len(str(_MAXVAL))
    vals = np.zeros(k)
    col = ends - width
    for _ in range(width):
        d = np.take(buf, col, mode="clip") - ord("0")  # wraps on non-digits, masked
        d *= col >= sig
        vals *= 10
        vals += d
        col += 1
    bad = vals > _MAXVAL
    bad |= ends - sig > width
    if bad.any():
        j = int(bad.argmax())
        at = start + (int(ends[j - 1]) if j else 0)
        v = _field(data[start + starts[j]:start + ends[j]], "sample", at)
        raise PnmFormatError(f"sample {v} exceeds maxval {_MAXVAL}", at)
    if k < count:
        raise PnmFormatError("expected sample", start + first_stray)
    return vals


def _header(data: bytes):
    """(pixel dims, raster offset) of a PNM stream, after every check that reads
    no sample: magic, fields, size, maxval, truncation, P5/P6's separator byte."""
    if len(data) < 2 or data[0:1] != b"P" or data[1:2] not in b"2356":
        raise PnmFormatError("not a P2/P3/P5/P6 stream", 0)
    sc = _Scanner(data)
    sc.pos = 2
    width = sc.next_int("width")
    height = sc.next_int("height")
    if width < 1 or height < 1:
        raise PnmFormatError(f"bad raster size {width}x{height}", sc.pos)
    maxval_at = sc.pos
    maxval = sc.next_int("maxval")
    if maxval != _MAXVAL:
        raise PnmFormatError(f"unsupported maxval {maxval} (only {_MAXVAL})", maxval_at)
    dims = (height, width, 3) if data[1:2] in b"36" else (height, width)
    count = math.prod(dims)
    if data[1:2] in b"56":
        if sc.pos >= len(data) or data[sc.pos] not in _WHITESPACE:
            raise PnmFormatError("expected one whitespace byte after maxval", sc.pos)
        sc.pos += 1  # exactly one whitespace byte, then the raster
        if len(data) - sc.pos < count:
            raise PnmFormatError(
                f"truncated raster: need {count} bytes, have {len(data) - sc.pos}",
                len(data),
            )
    elif 2 * count > len(data) - sc.pos:  # a sample needs a separator byte and a digit
        raise PnmFormatError(
            f"truncated: {count} samples need at least {2 * count} bytes, "
            f"have {len(data) - sc.pos}",
            len(data),
        )
    return dims, sc.pos


def decode_pnm(data: bytes) -> Image:
    """Decode a PNM byte stream; raises PnmFormatError with a byte offset."""
    dims, start = _header(data)
    count = math.prod(dims)
    if data[1:2] in b"56":
        flat = np.frombuffer(data, dtype=np.uint8, count=count, offset=start).astype(np.float64)
    else:
        flat = _ascii_samples(data, start, count)
    return Image(pixels=wrap_ndarray(flat.reshape(dims)))


def read_pnm(path) -> Image:
    with open(path, "rb") as fh:
        return decode_pnm(fh.read())


def encode_pnm(img: Image) -> bytes:
    """Encode as binary P5 (gray) or P6 (color) with maxval 255; an image with
    no pixels is refused."""
    v = img.pixels.view()
    if v.size == 0:
        raise ArgumentError(f"cannot encode an image with no pixels, got {img.pixels.dims}")
    if not np.all((v >= 0) & (v <= _MAXVAL) & (v == np.floor(v))):
        raise ArgumentError(f"image pixels must be integral values in [0, {_MAXVAL}]")
    kind = b"P6" if img.channels == 3 else b"P5"
    header = kind + b"\n%d %d\n%d\n" % (img.width, img.height, _MAXVAL)
    payload = np.ascontiguousarray(v).astype(np.uint8).tobytes()
    return header + payload


def write_pnm(img: Image, path):
    data = encode_pnm(img)  # before open, so a refused image leaves no file
    with open(path, "wb") as fh:
        fh.write(data)
