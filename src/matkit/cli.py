"""Command-line entry point: semantics demos, benchmarks, image pipeline.

Exit codes: 0 on success, 1 on verification/domain failures, 2 on usage
errors. All output is deterministic given --seed; there is no hidden
entropy anywhere.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bench
from .core import NumArray, colon_range, from_rows, magic, reshape, wrap_ndarray, zeros
from .display import format_int_matrix, format_mask
from .errors import MatkitError
from .idioms import (
    blockproc,
    boustrophedon_scan,
    dct2d,
    linear_scan,
    pca,
    replace_neg_nan,
    replace_negative,
    rgb2gray,
    zigzag_scan,
)
from .indexing import ALL, END, IndexExpr, assign_indexed, extract, isnan_mask, logical_assign, logical_extract, span
from .linalg import dctmtx, matmul
from .ops import ew_binary
from .pnm import Image, read_pnm, write_pnm

_SCANS = {
    "linear": linear_scan,
    "boustrophedon": boustrophedon_scan,
    "zigzag": zigzag_scan,
}


def _demo_index_text() -> str:
    """The index-expression and logical-indexing walkthrough, golden-stable."""
    m = magic(4)
    sections = [
        ("M = magic(4)", format_int_matrix(m)),
        ("M(3:7)", format_int_matrix(extract(m, IndexExpr.linear(span(3, 7))))),
        ("M(12:end)", format_int_matrix(extract(m, IndexExpr.linear(span(12, END))))),
        ("M([1,3,5])", format_int_matrix(extract(m, IndexExpr.linear([1, 3, 5])))),
        ("M(1:2,2:3)", format_int_matrix(extract(m, IndexExpr.of(span(1, 2), span(2, 3))))),
        ("M(end,end-1:end)", format_int_matrix(extract(m, IndexExpr.of(END, span(END - 1, END))))),
        ("M(3,:)", format_int_matrix(extract(m, IndexExpr.of(3, ALL)))),
        ("M < 8", format_mask(m < 8)),
        ("M(M < 8)'", format_int_matrix(logical_extract(m, m < 8).T)),
    ]
    nan = (zeros((1, 1)) / 0.0).item()  # 0/0 in IEEE arithmetic, no NaN literal
    m = assign_indexed(m, IndexExpr.of(1, 1), nan)
    sections.append(("M(1,1) = 0/0; isnan(M)", format_mask(isnan_mask(m))))
    m = logical_assign(m, isnan_mask(m), 0.0)
    sections.append(("M(isnan(M)) = 0", format_int_matrix(m)))
    x = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    y = from_rows([[10, 20, 30]])
    sections.append(("X + Y (row broadcast across rows)", format_int_matrix(x + y)))
    return "\n\n".join(f"{label}\n{body}" for label, body in sections) + "\n"


def _demo_replace_text() -> str:
    a = from_rows([[-1, 1, -2, 2, -3, 3]])
    b = from_rows([[0, 1, 2, -1, float("nan"), 3, -2, 4]])
    sections = [
        ("replace_negative([-1 1 -2 2 -3 3])", format_int_matrix(replace_negative(a))),
        ("replace_neg_nan([0 1 2 -1 NaN 3 -2 4])", format_int_matrix(replace_neg_nan(b))),
    ]
    return "\n\n".join(f"{label}\n{body}" for label, body in sections) + "\n"


def _scan_demo_matrix(size: int) -> NumArray:
    if size % 4 == 0:
        return magic(size)
    return reshape(colon_range(1, 1, size * size), (size, size))


def _demo_pca_text(n: int, seed: int) -> str:
    rng = bench.Prng(seed)
    theta = math.pi / 4
    rot = from_rows([
        [math.cos(theta), -math.sin(theta)],
        [math.sin(theta), math.cos(theta)],
    ])
    cloud = matmul(rot, rng.normal((2, n)) * from_rows([[1.0], [0.1]]))
    y, p, s = pca(cloud)
    cov_y = matmul(y, y.T) * (1.0 / (n - 1))
    gram = matmul(p.T, p)
    ortho = float(np.abs(gram.view() - np.eye(2)).max())
    off_diag = float(np.abs(cov_y.view() - np.diag(np.diag(cov_y.view()))).max())
    variances = sorted(np.diag(cov_y.view()).tolist())
    fmt = bench.format_float
    lines = [
        f"pca demo: n={n} seed={seed} rotation=pi/4 scale=[1; 0.1]",
        f"cov trace before projection: {fmt(float(np.trace(s.view())))}",
        f"cov trace after projection:  {fmt(float(np.trace(cov_y.view())))}",
        f"basis orthonormality max|P'P - I|: {fmt(ortho)}",
        f"projected covariance max off-diagonal: {fmt(off_diag)}",
        f"component variances (ascending): {fmt(variances[0])} {fmt(variances[1])}",
        # IEEE division: two samples leave a rank-1 covariance whose minor
        # variance can be exactly 0, and then the ratio is inf
        f"variance ratio major/minor: {fmt(ew_binary('/', variances[1], variances[0]).item())}",
    ]
    return "\n".join(lines) + "\n"


def _quantize_pixels(a: NumArray) -> NumArray:
    # round half away from zero, clamp into [0, 255]
    v = np.clip(np.floor(a.view() + 0.5), 0.0, 255.0)
    return wrap_ndarray(v)


def _cmd_demo(args) -> int:
    if args.what == "index":
        sys.stdout.write(_demo_index_text())
    elif args.what == "replace":
        sys.stdout.write(_demo_replace_text())
    elif args.what == "scan":
        if args.size < 1:
            sys.stderr.write("--size must be a positive integer\n")
            return 2
        variant = "loop" if args.variant == "loop" else "vectorized"
        m = _scan_demo_matrix(args.size)
        seq = _SCANS[args.kind](m, variant)
        sys.stdout.write(format_int_matrix(seq) + "\n")
    elif args.what == "pca":
        seed = args.seed if args.seed is not None else args.global_seed
        sys.stdout.write(_demo_pca_text(args.n, seed))
    return 0


def _cmd_bench(args) -> int:
    scenarios = bench.built_in_scenarios()
    if args.scenario != "all":
        if args.scenario not in scenarios:
            known = ", ".join(sorted(scenarios))
            sys.stderr.write(f"unknown scenario {args.scenario!r}; known: {known}\n")
            return 2
        scenarios = {args.scenario: scenarios[args.scenario]}
    seed = args.seed if args.seed is not None else args.global_seed
    records = []
    for name in scenarios:
        records.extend(bench.run_scenario(scenarios[name], seed))
    csv = bench.emit_csv(records)
    sys.stdout.write(csv)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    return 0


def _cmd_img(args) -> int:
    if args.what == "gray":
        img = read_pnm(args.infile)
        if img.channels != 3:
            sys.stderr.write("img gray needs a 3-channel PPM input\n")
            return 1
        gray = _quantize_pixels(rgb2gray(img.pixels))
        write_pnm(Image(pixels=gray), args.out)
        sys.stdout.write(f"wrote {gray.dims[0]}x{gray.dims[1]} grayscale to {args.out}\n")
    else:  # dct
        img = read_pnm(args.infile)
        if img.channels != 1:
            sys.stderr.write("img dct needs a single-channel PGM input\n")
            return 1
        t = dctmtx(args.block)
        coeffs = blockproc(img.pixels, (args.block, args.block), lambda blk: dct2d(blk, t))
        v = np.abs(coeffs.view())
        with open(args.out, "w") as fh:
            for row in v:
                fh.write(",".join(bench.format_float(x) for x in row) + "\n")
        sys.stdout.write(
            f"wrote {v.shape[0]}x{v.shape[1]} coefficient magnitudes to {args.out}\n"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matkit",
        description="Column-major array kernel demos, benchmarks, and image pipeline",
    )
    parser.add_argument("--seed", type=int, default=42, dest="global_seed",
                        help="global PRNG seed (default 42)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="print the semantics walkthroughs")
    demo_sub = demo.add_subparsers(dest="what", required=True)
    demo_sub.add_parser("index", help="index expressions and logical indexing")
    scan = demo_sub.add_parser("scan", help="matrix scan orders")
    scan.add_argument("--kind", choices=sorted(_SCANS), required=True)
    scan.add_argument("--size", type=int, default=4)
    scan.add_argument("--variant", choices=["loop", "vec"], default="vec")
    pca_p = demo_sub.add_parser("pca", help="principal component analysis diagnostics")
    pca_p.add_argument("--n", type=int, default=100)
    pca_p.add_argument("--seed", type=int, default=None)
    demo_sub.add_parser("replace", help="conditional replacement idioms")

    bench_p = sub.add_parser("bench", help="loop-vs-vectorized benchmarks")
    bench_sub = bench_p.add_subparsers(dest="what", required=True)
    run = bench_sub.add_parser("run", help="verify equivalence and emit timings as CSV")
    run.add_argument("--scenario", default="all")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)

    img = sub.add_parser("img", help="PNM image pipeline")
    img_sub = img.add_subparsers(dest="what", required=True)
    gray = img_sub.add_parser("gray", help="RGB PPM to grayscale PGM")
    gray.add_argument("--in", dest="infile", required=True)
    gray.add_argument("--out", required=True)
    dct = img_sub.add_parser("dct", help="blockwise DCT coefficient magnitudes")
    dct.add_argument("--in", dest="infile", required=True)
    dct.add_argument("--block", type=int, default=8)
    dct.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_img(args)
    except (MatkitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
