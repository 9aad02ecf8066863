"""CLI behavior: golden demo transcripts, bench CSV, image pipeline, exit codes."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matkit import Prng, decode_pnm, encode_pnm, Image, parse_csv
from matkit.cli import main

GOLDEN_INDEX = """\
M = magic(4)
   16    2    3   13
    5   11   10    8
    9    7    6   12
    4   14   15    1

M(3:7)
    9    4    2   11    7

M(12:end)
   15   13    8   12    1

M([1,3,5])
   16    9    2

M(1:2,2:3)
    2    3
   11   10

M(end,end-1:end)
   15    1

M(3,:)
    9    7    6   12

M < 8
  0  1  1  0
  1  0  0  0
  0  1  1  0
  1  0  0  1

M(M < 8)'
   5   4   2   7   3   6   1

M(1,1) = 0/0; isnan(M)
  1  0  0  0
  0  0  0  0
  0  0  0  0
  0  0  0  0

M(isnan(M)) = 0
    0    2    3   13
    5   11   10    8
    9    7    6   12
    4   14   15    1

X + Y (row broadcast across rows)
   11   22   33
   14   25   36
   17   28   39
"""

GOLDEN_REPLACE = """\
replace_negative([-1 1 -2 2 -3 3])
   0   1   0   2   0   3

replace_neg_nan([0 1 2 -1 NaN 3 -2 4])
   0   1   2   0   0   3   0   4
"""

BOUSTRO_LINE = "   16    5    9    4   14    7   11    2    3   10    6   15    1   12    8   13\n"
LINEAR_LINE = "   16    5    9    4    2   11    7   14    3   10    6   15   13    8   12    1\n"
ZIGZAG_LINE = "    4   14    9    5    7   15    1    6   11   16    2   10   12    8    3   13\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_index_golden(capsys):
    code, out, _ = run_cli(capsys, "demo", "index")
    assert code == 0
    assert out == GOLDEN_INDEX


def test_demo_replace_golden(capsys):
    code, out, _ = run_cli(capsys, "demo", "replace")
    assert code == 0
    assert out == GOLDEN_REPLACE


def test_demo_scan_golden_lines(capsys):
    code, out, _ = run_cli(capsys, "demo", "scan", "--kind", "boustrophedon", "--size", "4")
    assert code == 0 and out == BOUSTRO_LINE
    code, out, _ = run_cli(capsys, "demo", "scan", "--kind", "linear", "--size", "4")
    assert code == 0 and out == LINEAR_LINE
    code, out, _ = run_cli(capsys, "demo", "scan", "--kind", "zigzag", "--size", "4")
    assert code == 0 and out == ZIGZAG_LINE


def test_demo_scan_variants_agree(capsys):
    _, loop_out, _ = run_cli(capsys, "demo", "scan", "--kind", "zigzag", "--size", "6",
                             "--variant", "loop")
    _, vec_out, _ = run_cli(capsys, "demo", "scan", "--kind", "zigzag", "--size", "6",
                            "--variant", "vec")
    assert loop_out == vec_out


def test_demo_pca_deterministic(capsys):
    _, first, _ = run_cli(capsys, "demo", "pca", "--n", "100", "--seed", "42")
    _, again, _ = run_cli(capsys, "demo", "pca", "--n", "100", "--seed", "42")
    _, other, _ = run_cli(capsys, "demo", "pca", "--n", "100", "--seed", "43")
    assert first == again
    assert first != other
    assert "variance ratio" in first


@pytest.mark.parametrize("seed", ["3", "4", "7"])
def test_demo_pca_two_samples_divides_like_ieee(capsys, seed):
    # two samples give a rank-1 covariance; at these seeds its minor
    # variance is exactly 0, and the ratio is inf rather than a traceback
    code, out, err = run_cli(capsys, "--seed", seed, "demo", "pca", "--n", "2")
    assert code == 0
    assert "Traceback" not in err
    assert out.splitlines()[-1] == "variance ratio major/minor: inf"


def test_bench_zigzag_seed_stable_checksums(capsys):
    code, out1, _ = run_cli(capsys, "bench", "run", "--scenario", "zigzag", "--seed", "7")
    assert code == 0
    code, out2, _ = run_cli(capsys, "bench", "run", "--scenario", "zigzag", "--seed", "7")
    assert code == 0
    cs1 = [r.checksum for r in parse_csv(out1)]
    cs2 = [r.checksum for r in parse_csv(out2)]
    assert cs1 == cs2
    assert len(cs1) == 2 and cs1[0] == cs1[1]


def test_bench_writes_csv_file(tmp_path, capsys):
    out_file = tmp_path / "timings.csv"
    code, out, _ = run_cli(capsys, "bench", "run", "--scenario", "grayscale",
                           "--seed", "5", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == out
    records = parse_csv(out)
    assert {r.variant for r in records} == {"loop", "vectorized"}
    assert all(r.total_seconds > 0 for r in records)


def test_bench_unknown_scenario_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bench", "run", "--scenario", "warpdrive")
    assert code == 2
    assert "unknown scenario" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "demo", "scan", "--kind", "sideways")[0] == 2


def test_img_gray_uniform_pixel_values(tmp_path, capsys):
    src = tmp_path / "u.ppm"
    img = Image(pixels=Prng(1).randint(100, 100, (3, 5, 3)))
    src.write_bytes(encode_pnm(img))
    dst = tmp_path / "u.pgm"
    code, _, _ = run_cli(capsys, "img", "gray", "--in", str(src), "--out", str(dst))
    assert code == 0
    gray = decode_pnm(dst.read_bytes())
    assert gray.channels == 1
    assert np.all(gray.pixels.buf == 100.0)


def test_img_gray_rejects_gray_input(tmp_path, capsys):
    src = tmp_path / "g.pgm"
    src.write_bytes(b"P5\n1 1\n255\n\x42")
    code, _, err = run_cli(capsys, "img", "gray", "--in", str(src), "--out", str(tmp_path / "o.pgm"))
    assert code == 1
    assert "3-channel" in err


def test_img_gray_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "img", "gray", "--in", str(tmp_path / "nope.ppm"),
                           "--out", str(tmp_path / "o.pgm"))
    assert code == 1
    assert "error" in err


def test_img_dct_uniform_blocks(tmp_path, capsys):
    src = tmp_path / "c.pgm"
    src.write_bytes(b"P5\n16 16\n255\n" + bytes([128] * 256))
    out = tmp_path / "coeffs.csv"
    code, _, _ = run_cli(capsys, "img", "dct", "--in", str(src), "--block", "8", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    vals = np.array([[float(c) for c in row] for row in rows])
    assert vals.shape == (16, 16)
    dc = vals[0::8, 0::8]
    assert np.allclose(dc, 1024.0, atol=1e-6)  # 128 * 8 per block
    ac = vals.copy()
    ac[0::8, 0::8] = 0.0
    assert ac.max() <= 1e-9


def test_img_dct_pads_partial_blocks(tmp_path, capsys):
    src = tmp_path / "p.pgm"
    src.write_bytes(b"P5\n5 3\n255\n" + bytes([10] * 15))
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(capsys, "img", "dct", "--in", str(src), "--block", "4", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 4  # 3 rows padded to 4
    assert len(rows[0].split(",")) == 8  # 5 cols padded to 8


def test_corrupt_image_reports_offset(tmp_path, capsys):
    src = tmp_path / "bad.ppm"
    src.write_bytes(b"P6\n2 2\n255\n\x00")
    code, _, err = run_cli(capsys, "img", "gray", "--in", str(src), "--out", str(tmp_path / "o.pgm"))
    assert code == 1
    assert "byte offset" in err


@st.composite
def _image_files(draw):
    """Bytes of a small P2/P3/P5/P6 file, maybe mutated, or random bytes. No
    header asks for more than 5x5 pixels unless a mutation grows it, and then
    the raster is missing, so the decoder refuses before it allocates. Now
    and then a mutation inserts a digit run longer than int() converts."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(max_size=64))
    kind = draw(st.sampled_from([b"P2", b"P3", b"P5", b"P6"]))
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    count = w * h * (3 if kind in (b"P3", b"P6") else 1)
    samples = draw(st.lists(st.integers(0, 255), min_size=count, max_size=count))
    if kind in (b"P5", b"P6"):
        raster = bytes(samples)
    else:
        raster = b" ".join(b"%d" % v for v in samples)
    data = kind + b"\n%d %d\n255\n" % (w, h) + raster
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        cut = draw(st.integers(0, 2))
        chunk = b"9" * 4400 if draw(st.integers(0, 9)) == 0 else draw(st.binary(max_size=3))
        data = data[:at] + chunk + data[at + cut:]
    return data


@pytest.mark.parametrize("what", ["gray", "dct"])
@settings(max_examples=150)
@given(data=_image_files())
def test_img_on_random_and_mutated_files_exits_cleanly(tmp_path_factory, what, data):
    folder = tmp_path_factory.mktemp("img")
    src, dst = folder / "in.pnm", folder / "out"
    src.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["img", what, "--in", str(src), "--out", str(dst)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == dst.exists()


# Placeholders for files the argv fuzz puts in a fresh folder per example.
_PPM, _PGM, _MISSING, _OUT = "<ppm>", "<pgm>", "<missing>", "<out>"
_NUMBER = st.integers(-2, 16).map(str)
_JUNK = ["--", "-x", "nan", "inf", "1.5", "-1", "0", ""]


@st.composite
def _argvs(draw):
    """A command from the CLI's grammar, then up to two junk tokens inserted
    anywhere. Every size is at most 16, and every bench run names grayscale
    or an unknown scenario, so no stock-size scenario starts."""
    def opt(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["index", "replace", "scan", "pca", "bench", "gray", "dct"]))
    if command in ("index", "replace"):
        argv = ["demo", command]
    elif command == "scan":
        kind = draw(st.sampled_from(["linear", "boustrophedon", "zigzag"]))
        argv = ["demo", "scan", "--kind", kind, *opt("--size", _NUMBER),
                *opt("--variant", st.sampled_from(["loop", "vec"]))]
    elif command == "pca":
        argv = ["demo", "pca", "--n", draw(_NUMBER), *opt("--seed", _NUMBER)]
    elif command == "bench":
        scenario = draw(st.sampled_from(["grayscale", "warpdrive"]))
        argv = ["bench", "run", "--scenario", scenario, *opt("--seed", _NUMBER),
                *opt("--out", st.just(_OUT))]
    else:
        infile = draw(st.sampled_from([_PPM, _PGM, _MISSING]))
        block = opt("--block", _NUMBER) if command == "dct" else []
        argv = ["img", command, "--in", infile, *block, "--out", _OUT]
    argv = opt("--seed", _NUMBER) + argv
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_JUNK)))
    return argv


@settings(max_examples=200)
@given(argv=_argvs())
def test_random_argv_exits_cleanly(tmp_path_factory, argv):
    folder = tmp_path_factory.mktemp("argv")
    files = {_PPM: folder / "in.ppm", _PGM: folder / "in.pgm",
             _MISSING: folder / "missing.ppm", _OUT: folder / "out"}
    files[_PPM].write_bytes(encode_pnm(Image(pixels=Prng(1).randint(0, 255, (3, 5, 3)))))
    files[_PGM].write_bytes(encode_pnm(Image(pixels=Prng(2).randint(0, 255, (5, 3)))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(files.get(token, token)) for token in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
