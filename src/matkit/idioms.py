"""The case-study algorithms, each in loop form and vectorized form.

Both forms of every algorithm share one result contract and are checked
against each other; the loop forms are deliberately scalar (plain Python
floats, explicit index arithmetic) while the vectorized forms use the
kernel's broadcasting and indexing idioms.

Scan results are 1 x numel row vectors listing the matrix elements in scan
order; every scan is a permutation of its input. The scan loops flatten with
the row count (j-1)*rows + i; writing the column count there would only be
correct for square matrices.

The metric handles are evaluated in blocks of the reference set's rows. The
one-line broadcast body builds an n x d x m difference and its square, which
for 2000 x 5 against 500 x 5 points is two 40 MB temporaries; applied to b
rows of y at a time, each block's intermediates hold at most _METRIC_BLOCK
doubles and stay in a core's cache. Every entry still comes from the same
elementwise ops and the same ascending fold over the coordinates, so the
blocks joined along columns are bit-identical to one whole-set evaluation.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

from .core import (
    NumArray, _allocated, _check_rank2, _check_square, _choice, _positive, cat, colon_range, flipud,
    from_rows, permute, reshape, wrap_ndarray, zeros,
)
from .errors import ArgumentError, ContractError, ShapeError
from .indexing import ALL, END, IndexExpr, assign_indexed, delete_elements, extract, isnan_mask, span
from .linalg import EigResult, _product, dctmtx, eig_sym, matmul, spdiags_extract
from .ops import compare, ew_unary, extremum, mask_or, merge, reduce_along_dim

import numpy as np

MetricFn = Callable[[NumArray, NumArray], NumArray]

_VARIANTS = ("loop", "vectorized")


# -- matrix scans -----------------------------------------------------------

def linear_scan(m: NumArray, variant: str = "vectorized") -> NumArray:
    """Read the elements column by column, top to bottom."""
    _choice(variant, _VARIANTS, "variant")
    _check_rank2(m, "linear_scan")
    if variant == "loop":
        rows, cols = m.dims
        buf = m.to_list()
        out = [0.0] * (rows * cols)
        for j in range(1, cols + 1):
            for i in range(1, rows + 1):
                out[(j - 1) * rows + i - 1] = buf[(j - 1) * rows + i - 1]
        return NumArray((1, rows * cols), out)
    return extract(m, IndexExpr.linear(ALL)).T


def boustrophedon_scan(m: NumArray, variant: str = "vectorized") -> NumArray:
    """Read columns alternately top-down and bottom-up, like the ox plows."""
    _choice(variant, _VARIANTS, "variant")
    _check_rank2(m, "boustrophedon_scan")
    rows, cols = m.dims
    if variant == "loop":
        buf = m.to_list()
        out = [0.0] * (rows * cols)
        for j in range(1, cols + 1):
            for i in range(1, rows + 1):
                if j % 2 == 1:
                    v = buf[(j - 1) * rows + i - 1]
                else:
                    v = buf[(j - 1) * rows + (rows - i + 1) - 1]
                out[(j - 1) * rows + i - 1] = v
        return NumArray((1, rows * cols), out)
    even = IndexExpr.of(ALL, span(2, END, 2))
    flipped = assign_indexed(m, even, flipud(extract(m, even)))
    return extract(flipped, IndexExpr.linear(ALL)).T


def zigzag_scan(m: NumArray, variant: str = "vectorized") -> NumArray:
    """Walk the constant j-i diagonals with alternating direction.

    Starts at the bottom-left element moving up-right; this is the
    coefficient ordering used on transform blocks in JPEG-style pipelines
    (up to the chosen starting corner).
    """
    _choice(variant, _VARIANTS, "variant")
    _check_rank2(m, "zigzag_scan")
    rows, cols = m.dims
    if variant == "loop":
        buf = m.to_list()
        out = []
        i, j, c = rows, 1, 1
        while 1 <= i <= rows and 1 <= j <= cols:
            out.append(buf[(j - 1) * rows + i - 1])
            i += c
            j += c
            if i < 1 and j < 1:
                i += 1
                j += 2
                c = -c
            elif i > rows and j > cols:
                i -= 2
                j -= 1
                c = -c
            elif i < 1:
                i += 1
                j += 2
                c = -c
            elif i > rows:
                i -= 1
                c = -c
            elif j < 1:
                j += 1
                c = -c
            elif j > cols:
                j -= 1
                i -= 2
                c = -c
        return NumArray((1, len(out)), out)
    ind = reshape(colon_range(1, 1, rows * cols), (rows, cols))
    bands = spdiags_extract(ind).bands
    even = IndexExpr.of(ALL, span(2, END, 2))
    bands = assign_indexed(bands, even, flipud(extract(bands, even)))
    kept = delete_elements(bands, compare("==", bands, 0))
    return extract(m, IndexExpr.linear(kept))


# -- principal component analysis -------------------------------------------

def pca(x: NumArray) -> Tuple[NumArray, NumArray, NumArray]:
    """Project data onto the eigenbasis of its covariance.

    Samples are the COLUMNS of x (one d-dimensional sample per column).
    Returns (y, p, s): the projected data, the orthonormal basis (eigenvector
    columns, ascending variance), and the covariance matrix of the centered
    data. The leading component is therefore the last row of y.
    """
    _check_rank2(x, "pca")
    n = x.cols
    if n < 2:
        raise ArgumentError(f"pca needs at least 2 samples, got {n}")
    centered = x - reduce_along_dim("mean", x, 2)
    s = matmul(centered, centered.T) * (1.0 / (n - 1))
    basis: EigResult = eig_sym(s)
    y = matmul(basis.vectors.T, centered)
    return y, basis.vectors, s


# -- pairwise distances ------------------------------------------------------

def distance_matrix(p: NumArray, strategy: str = "fullBroadcast") -> NumArray:
    """All pairwise Euclidean distances between the rows of p.

    Three strategies: 'loop3' (three nested scalar loops filling both
    triangles by symmetry), 'rowBroadcast' (one loop over reference points,
    each broadcast against every row into one column, the columns joined
    once), and 'fullBroadcast' (no loop at all). On NaN-free input their
    results are bit-identical. With NaN they agree on where the NaNs are,
    not always on their bits: loop3 copies entry (i, j) into (j, i), which
    then holds the NaN of p_i - p_j, where both broadcast strategies compute
    p_j - p_i.
    """
    _check_rank2(p, "distance_matrix")
    _choice(strategy, ("loop3", "rowBroadcast", "fullBroadcast"), "distance strategy")
    n, d = p.dims
    if strategy == "loop3":
        buf = p.to_list()
        out = np.zeros((n, n))
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                dist = 0.0
                for k in range(1, d + 1):
                    dk = buf[(k - 1) * n + i - 1] - buf[(k - 1) * n + j - 1]
                    dist += dk * dk
                out[i - 1, j - 1] = out[j - 1, i - 1] = math.sqrt(dist)
        return wrap_ndarray(out)
    if strategy == "rowBroadcast":
        if n == 0:
            return zeros((0, 0))
        cols = []
        for i in range(1, n + 1):
            ref = extract(p, IndexExpr.of(i, ALL))
            cols.append(ew_unary("sqrt", reduce_along_dim("sum", (p - ref) ** 2, 2)))
        return cat(2, cols)
    return metric_euclidean(p, p)


def _check_point_sets(x: NumArray, y: NumArray):
    _check_rank2(x, "metric")
    _check_rank2(y, "metric")
    if x.cols != y.cols:
        raise ShapeError(f"point sets disagree on dimension: {x.dims} vs {y.dims}")


# Cells of one block's n x d x b intermediates: 2**18 doubles are 2 MiB, the
# L2 of one core of the 2-vCPU Xeon it was swept on (CHANGES.md: _METRIC_BLOCK).
_METRIC_BLOCK = 1 << 18


def _in_row_blocks(body: MetricFn, x: NumArray, y: NumArray) -> NumArray:
    """body(x, y), applied to blocks of b rows of y and joined along columns,
    where b = max(1, _METRIC_BLOCK // x.numel); a y of at most b rows is
    passed whole."""
    _check_point_sets(x, y)
    b = max(1, _METRIC_BLOCK // max(1, x.numel))
    m = y.rows
    if m <= b:
        return body(x, y)
    return cat(2, [body(x, extract(y, IndexExpr.of(span(j0, min(j0 + b - 1, m)), ALL)))
                   for j0 in range(1, m + 1, b)])


def metric_euclidean(x: NumArray, y: NumArray) -> NumArray:
    """Root of summed squared differences; entry (i,j) pairs row i of x with row j of y.

    Evaluated in blocks of y's rows, so the n x d x b difference stays in cache.
    """
    def body(x, y):
        diff = x - permute(y, (3, 2, 1))
        return permute(ew_unary("sqrt", reduce_along_dim("sum", diff ** 2, 2)), (1, 3, 2))

    return _in_row_blocks(body, x, y)


def metric_manhattan(x: NumArray, y: NumArray) -> NumArray:
    """Summed absolute differences; entry (i,j) pairs row i of x with row j of y.

    Evaluated in blocks of y's rows, so the n x d x b difference stays in cache.
    """
    def body(x, y):
        diff = x - permute(y, (3, 2, 1))
        return permute(reduce_along_dim("sum", ew_unary("abs", diff), 2), (1, 3, 2))

    return _in_row_blocks(body, x, y)


def _returned(res, dims, who: str) -> NumArray:
    """res, if a function handle returned a NumArray of dims; else ContractError."""
    if not isinstance(res, NumArray) or res.dims != dims:
        got = res.dims if isinstance(res, NumArray) else type(res).__name__
        raise ContractError(f"{who} returned {got}, expected {dims}")
    return res


def nearest_neighbor(x: NumArray, y: NumArray, metric: MetricFn) -> Tuple[NumArray, NumArray]:
    """For each row of x, the index of the nearest row of y and that distance.

    Ties go to the lowest index. Returns (idx, d) as nx1 columns. metric
    must map x and y to an x.rows x y.rows NumArray.
    """
    _check_rank2(y, "nearest_neighbor")
    if y.rows < 1:
        raise ArgumentError("nearest_neighbor needs a non-empty reference set")
    dist = _returned(metric(x, y), (x.rows, y.rows), "metric")
    values, indices = extremum("min", dist, 2)
    return indices, values


# -- conditional replacement --------------------------------------------------

def replace_negative(x: NumArray) -> NumArray:
    """Zero out negatives via the arithmetic encoding (x<0).*0 + (x>=0).*x."""
    below = merge(compare("<", x, 0), 1.0, 0.0)
    at_least = merge(compare(">=", x, 0), 1.0, 0.0)
    return below * 0.0 + at_least * x


def replace_neg_nan(x: NumArray) -> NumArray:
    """Replace negative values and NaN with zero via a conditional merge."""
    return merge(mask_or(isnan_mask(x), compare("<", x, 0)), 0.0, x)


# -- grayscale conversion ------------------------------------------------------

_LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def _check_rgb(img: NumArray):
    if img.rank != 3 or img.dims[2] != 3:
        raise ShapeError(f"rgb2gray needs an h x w x 3 array, got {img.dims}")


def rgb2gray(img: NumArray) -> NumArray:
    """Collapse an h x w x 3 volume to luminance by weighted channel sum.

    The channel weights ride along the third dimension (a 1x1x3 permuted row)
    so one broadcast multiply and one reduction do the whole image; gamma is
    not handled.
    """
    _check_rgb(img)
    weights = permute(from_rows([list(_LUMA_WEIGHTS)]), (1, 3, 2))
    return reduce_along_dim("sum", img * weights, 3)


def rgb2gray_loop(img: NumArray) -> NumArray:
    """Per-pixel scalar form of rgb2gray; the oracle for the broadcast idiom."""
    _check_rgb(img)
    h, w, _ = img.dims
    wr, wg, wb = _LUMA_WEIGHTS
    buf = img.to_list()
    plane = h * w
    out = [0.0] * plane
    for j in range(w):
        for i in range(h):
            base = j * h + i
            s = buf[base] * wr
            s += buf[plane + base] * wg
            s += buf[2 * plane + base] * wb
            out[base] = s
    return NumArray((h, w), out)


# -- block transforms ------------------------------------------------------------

def blockproc(a: NumArray, block_shape, f: Callable[[NumArray], NumArray]) -> NumArray:
    """Apply f to each non-overlapping r x c tile and reassemble.

    block_shape is a tuple or list of two extents. The input is zero-padded
    on the bottom/right to whole tiles, so the output size is the padded
    size. f must map r x c to r x c.
    """
    _check_rank2(a, "blockproc")
    if not (isinstance(block_shape, (tuple, list)) and len(block_shape) == 2):
        raise ArgumentError(f"blockproc block shape {block_shape!r} is not a pair of extents")
    r, c = (_positive(x, "block extent") for x in block_shape)
    m, n = a.dims
    mm = ((m + r - 1) // r) * r
    nn = ((n + c - 1) // c) * c
    padded, out = _allocated(f"blockproc padding of {a.dims} to {mm}x{nn}", np.zeros, (2, mm, nn))
    padded[:m, :n] = a.view()
    cols = [slice(j, j + c) for j in range(0, nn, c)]
    for i in range(0, mm, r):
        rows = slice(i, i + r)
        for cs in cols:
            tile = wrap_ndarray(padded[rows, cs])
            res = _returned(f(tile), tile.dims, "block function")
            out[rows, cs] = res.view()
    return wrap_ndarray(out)


@np.errstate(all="ignore")  # one for both products: see linalg._product
def _dct_sandwich(x: NumArray, t, who: str, inverse: bool) -> NumArray:
    """T X T' (forward) or T' X T (inverse) for a square block x.

    Both products run on linalg._product, the fold under matmul, on plain
    views: T' is t's transposed view rather than a permuted copy, and the
    block is checked once and its result wrapped once. Each product is
    matmul's sequence of IEEE operations on the same values, so the result is
    bit for bit matmul(matmul(left, x), right).
    """
    _check_square(x, who)
    if t is None:
        t = dctmtx(x.rows)
    elif not isinstance(t, NumArray):
        raise ArgumentError(f"{who} transform basis must be a NumArray, got {type(t).__name__}")
    elif t.dims != x.dims:
        raise ShapeError(f"block {x.dims} does not match transform order {t.dims}")
    tv = t.view()
    left, right = (tv.T, tv) if inverse else (tv, tv.T)
    return wrap_ndarray(_product(_product(left, x.view()), right))


def dct2d(x: NumArray, t: NumArray = None) -> NumArray:
    """2-D DCT of a square block: T X T'. Pass t to pin the basis order."""
    return _dct_sandwich(x, t, "dct2d", inverse=False)


def idct2d(y: NumArray, t: NumArray = None) -> NumArray:
    """Inverse 2-D DCT: T' Y T; exact round trip with dct2d up to rounding."""
    return _dct_sandwich(y, t, "idct2d", inverse=True)
