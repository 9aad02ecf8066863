"""PNM decode/encode: formats, comments, errors with byte offsets."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matkit import ArgumentError, Image, Prng, PnmFormatError, decode_pnm, encode_pnm, read_pnm, write_pnm
from matkit.core import full, wrap_ndarray
from matkit.pnm import _MAXVAL, _Scanner, _header

from helpers import assert_bits, outcome


def _loop_decode_pnm(data: bytes) -> Image:
    """The P2/P3 decoder as a scalar loop: decode_pnm's own _header, then one
    sample after another through the header scanner. It is the oracle of
    decode_pnm's vectorized raster, which must give the same pixels or the
    same error."""
    assert data[:2] in (b"P2", b"P3")
    shape, start = _header(data)
    sc = _Scanner(data)
    sc.pos = start
    maxval = _MAXVAL
    count = math.prod(shape)
    vals = np.empty(count)
    for k in range(count):
        at = sc.pos
        v = sc.next_int("sample")
        if v > maxval:
            raise PnmFormatError(f"sample {v} exceeds maxval {maxval}", at)
        vals[k] = v
    return Image(pixels=wrap_ndarray(vals.reshape(shape)))


def _assert_matches_loop(data: bytes):
    got = outcome(lambda: decode_pnm(data).pixels)
    assert got == outcome(lambda: _loop_decode_pnm(data).pixels)
    assert isinstance(got[1], list) or got[0] is PnmFormatError, got
    return got


def test_single_red_pixel_p6():
    img = decode_pnm(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    assert img.channels == 3
    assert img.height == 1 and img.width == 1
    assert img.pixels.view()[0, 0].tolist() == [255, 0, 0]


def test_p3_ascii_with_comments():
    raw = b"P3\n# a comment\n2 1\n# another\n255\n255 0 0  0 255 0\n"
    img = decode_pnm(raw)
    assert img.pixels.view()[0, 0].tolist() == [255, 0, 0]
    assert img.pixels.view()[0, 1].tolist() == [0, 255, 0]


def test_p2_and_p5_gray():
    ascii_img = decode_pnm(b"P2\n3 2\n255\n1 2 3 4 5 6\n")
    assert ascii_img.channels == 1
    assert ascii_img.pixels.view().tolist() == [[1, 2, 3], [4, 5, 6]]
    binary = decode_pnm(b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
    assert_bits(binary.pixels, ascii_img.pixels)


def test_write_then_read_round_trip(tmp_path):
    rng = Prng(3)
    for dims in ((5, 7, 3), (6, 4)):
        img = Image(pixels=rng.randint(0, 255, dims))
        path = tmp_path / "img.pnm"
        write_pnm(img, path)
        back = read_pnm(path)
        assert_bits(back.pixels, img.pixels)


def test_writer_refuses_images_the_reader_refuses(tmp_path):
    # the reader refuses a zero extent ("bad raster size"), so the writer
    # must not emit one
    for dims in ((0, 0), (0, 3), (3, 0, 3)):
        img = Image(pixels=full(dims, 0.0))
        with pytest.raises(ArgumentError, match="no pixels"):
            encode_pnm(img)
        with pytest.raises(ArgumentError, match="no pixels"):
            write_pnm(img, tmp_path / "empty.pnm")
        assert not (tmp_path / "empty.pnm").exists()


def test_row_major_raster_order():
    # P5 raster walks rows first; our buffer is column-major
    img = decode_pnm(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert img.pixels.view().tolist() == [[1, 2], [3, 4]]
    assert img.pixels.buf.tolist() == [1, 3, 2, 4]


def test_bad_magic_offset():
    with pytest.raises(PnmFormatError) as err:
        decode_pnm(b"P7\n1 1\n255\n\x00")
    assert err.value.offset == 0


def test_maxval_must_be_255():
    with pytest.raises(PnmFormatError, match="maxval"):
        decode_pnm(b"P5\n1 1\n65535\n\x00\x00")


def test_truncated_binary_payload():
    with pytest.raises(PnmFormatError, match="truncated") as err:
        decode_pnm(b"P6\n2 2\n255\n" + bytes(5))
    assert err.value.offset == len(b"P6\n2 2\n255\n" + bytes(5))


def test_truncated_ascii_payload():
    with pytest.raises(PnmFormatError, match="sample"):
        decode_pnm(b"P2\n2 2\n255\n1 2 3\n")


def test_ascii_header_cannot_force_a_large_allocation():
    # 16M samples announced by an 18-byte stream: refused before allocating
    tracemalloc.start()
    try:
        with pytest.raises(PnmFormatError, match="sample") as err:
            decode_pnm(b"P2 4000 4000 255 1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert err.value.offset == 18
    # the bound is exact: one separator and one digit per sample is enough
    assert decode_pnm(b"P2 2 1 255 7 9").pixels.buf.tolist() == [7, 9]


def test_ascii_sample_above_maxval():
    with pytest.raises(PnmFormatError, match="exceeds"):
        decode_pnm(b"P2\n1 1\n255\n300\n")


def test_writer_rejects_non_integral():
    img = Image(pixels=full((1, 1), 76.245))
    with pytest.raises(ArgumentError):
        encode_pnm(img)


def test_writer_emits_binary_formats():
    gray = Image(pixels=full((2, 2), 9.0))
    assert encode_pnm(gray).startswith(b"P5\n2 2\n255\n")
    color = Image(pixels=full((2, 2, 3), 9.0))
    assert encode_pnm(color).startswith(b"P6\n2 2\n255\n")


_NAMED_CASES = {
    "comment": (b"1 2 # a comment 3\n4", [1, 2, 4]),
    "cr-comments": (b"1#3 # 5\r2\r\n# x\n3", [1, 2, 3]),  # a '#' inside a comment too
    "leading-zeros": (b"007 0 000255", [7, 0, 255]),
    "zeros-past-int-limit": (b"0" * 5000 + b"7 1 2", [7, 1, 2]),
    "trailing-garbage": (b"1 2 3 junk x 9 #", [1, 2, 3]),
    "trailing-newline": (b"1 2 3\n", [1, 2, 3]),
    "vt-ff-whitespace": (b"\x0b1\t2\x0c3", [1, 2, 3]),
    "comment-after-maxval": (b"#c\n1 2 3", [1, 2, 3]),
    # "exceeds" is reported where the scanner stood: the end of the
    # previous token, or of maxval
    "above-255": (b"1 256 3 ", ("sample 256 exceeds maxval 255", 12)),
    "above-255-first": (b"300 2 3 ", ("sample 300 exceeds maxval 255", 10)),
    "first-error-wins": (b"1 0000300 x", ("sample 300 exceeds maxval 255", 12)),
    "stray-in-token": (b"1 2x3 4", ("expected sample", 14)),
    "stray-sign": (b"1 -2 34", ("expected sample", 13)),
    "too-few": (b"1 #2 3\n 4 ", ("expected sample", 21)),
    "overlong-sample": (b"1 2 " + b"9" * 5000, ("sample has more than 20 significant digits", 14)),
}


@pytest.mark.parametrize("raster, want", list(_NAMED_CASES.values()), ids=list(_NAMED_CASES))
def test_ascii_raster_matches_the_loop_on_each_named_case(raster, want):
    data = b"P2\n3 1\n255 " + raster
    got = _assert_matches_loop(data)
    if isinstance(want, list):
        assert got == ((1, 3), np.array(want, dtype=np.float64).view(np.uint64).tolist())
    else:
        assert got == (PnmFormatError, f"{want[0]} (byte offset {want[1]})", want[1])


_ALPHABET = b"0123456789 \t\r\n\x0b\x0c##xZ-+.\x00\xff"


@st.composite
def _chunks(draw):
    """The bytes a mutation inserts or writes over one byte of the stream."""
    kind = draw(st.integers(0, 9))
    if kind == 0:  # a digit run longer than maxval's three digits
        return draw(st.text("0123456789", min_size=4, max_size=30)).encode()
    if kind == 1:  # longer than the 4300 digits int() converts
        zeros = draw(st.sampled_from([0, 1, 4400]))
        return b"0" * zeros + draw(st.sampled_from([b"7", b"255", b"256", b"9" * 4301]))
    raw = draw(st.binary(min_size=1, max_size=4))
    return bytes(_ALPHABET[c % len(_ALPHABET)] for c in raw)


@st.composite
def _samples(draw):
    v = draw(st.integers(0, 255))
    if draw(st.integers(0, 30)) == 0:
        v += draw(st.integers(1, 744))  # above maxval
    return b"0" * draw(st.sampled_from([0, 0, 0, 1, 2])) + b"%d" % v


@st.composite
def _mutated_ascii_streams(draw):
    """A P2/P3 stream with comments and leading zeros, with fewer or more
    samples than the header's count, then bytes inserted, deleted and
    overwritten after the magic number."""
    kind = draw(st.sampled_from([b"P2", b"P3"]))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    count = w * h * (3 if kind == b"P3" else 1)
    seps = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"  ", b"\x0b", b" #c 9\n", b"#\r", b"\n# 1 # 2\n"])
    parts = [kind, draw(seps), b"%d" % w, draw(seps), b"%d" % h, draw(seps), b"255"]
    for _ in range(max(0, count + draw(st.integers(-2, 2)))):
        parts += [draw(seps), draw(_samples())]
    data = b"".join(parts) + draw(st.sampled_from([b"", b"\n", b" x", b"#"]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(2, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "flip"]))
        if op == "insert":
            data = data[:at] + draw(_chunks()) + data[at:]
        elif op == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 3)):]
        else:
            data = data[:at] + draw(_chunks()) + data[at + 1:]
    return data


@settings(max_examples=600)
@given(_mutated_ascii_streams())
def test_vectorized_ascii_raster_matches_the_per_sample_loop(data):
    _assert_matches_loop(data)


def test_overlong_fields_raise_pnm_errors_with_short_messages():
    # int() refuses more than 4300 digits: these leaked a raw ValueError
    for data, what, offset in ((b"P2 " + b"1" * 5000 + b" 1 255 1", "width", 2),
                               (b"P2 1 " + b"1" * 5000 + b" 255 1", "height", 4),
                               (b"P5 1 1 " + b"2" * 5000 + b" \x00", "maxval", 6),
                               (b"P2 1 1 255 " + b"9" * 5000, "sample", 10),
                               (b"P2 1 1 255 " + b"9" * 21, "sample", 10)):
        with pytest.raises(PnmFormatError) as err:
            decode_pnm(data)
        assert str(err.value) == f"{what} has more than 20 significant digits (byte offset {offset})"
    # leading zeros do not count, in the header as in the raster
    data = b"P2 " + b"0" * 5000 + b"2 " + b"0" * 5000 + b"1 " + b"0" * 5000 + b"255 " + b"0" * 5000 + b"7 9"
    assert decode_pnm(data).pixels.buf.tolist() == [7, 9]
    with pytest.raises(PnmFormatError, match="sample 12345678901234567890 exceeds maxval 255"):
        decode_pnm(b"P2 1 1 255 " + b"0" * 30 + b"12345678901234567890")
