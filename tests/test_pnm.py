"""PNM decode/encode: formats, comments, errors with byte offsets."""

import tracemalloc

import numpy as np
import pytest

from matkit import ArgumentError, Image, Prng, PnmFormatError, decode_pnm, encode_pnm, read_pnm, write_pnm
from matkit.core import full, wrap_ndarray


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
    assert np.array_equal(binary.pixels.buf, ascii_img.pixels.buf)


def test_write_then_read_round_trip(tmp_path):
    rng = Prng(3)
    for dims in ((5, 7, 3), (6, 4)):
        img = Image(pixels=rng.randint(0, 255, dims))
        path = tmp_path / "img.pnm"
        write_pnm(img, path)
        back = read_pnm(path)
        assert back.pixels.dims == img.pixels.dims
        assert np.array_equal(back.pixels.buf, img.pixels.buf)


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
