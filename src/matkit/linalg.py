"""Matrix product, linear solve, symmetric eigendecomposition, DCT matrix,
and diagonal extraction.

The product accumulates in ascending inner-index order so that each entry is
bit-for-bit identical to the sequential scalar loop over the same data.
matmul only checks its operands and wraps the result: _product, on plain
ndarrays, is the one fold, and idioms' block DCT calls it directly, so a
sandwich T X T' checks and wraps once. _product forms the outer products of a
slab of inner indices in broadcast multiplies: one for the first slab when
the result's rows are a multiple of 8 long, else a 2-D multiply for the first
index and one for the rest, so where two NaNs meet each product keeps the one
that numpy's 2-D loop keeps. It folds the first slab in one np.add.reduce
from -0.0, which numpy sums one slab row at a time; a later slab of many
indices is reduced the same way with the running sum as its row 0, and one
of few is added one in-place step per index (ops._fold_into). When every
product fits one slab of at most 32 KiB, that slab is a plain np.empty and
no slab is counted; others are cache-line aligned. dot, and a 1 x k by k x 1
product, stay on ops._ascending, whose scan takes one Python step per slab
rather than per index.

Broadcasts over long rows run with numpy's ufunc buffer cut to
ops._ROW_BUFFER elements, and the caller's buffer set back on the way out,
also on a raise (ops._row_buffered, the one buffer rule, which ops'
broadcasting path applies too): a product whose rows reach that length, and
mldivide's elimination when its order does. Short rows, such as the block
DCT's 8 x 8 tiles, keep numpy's default buffer and pay nothing for the rule.
mldivide's back substitution sums each row in ascending order, with no BLAS
dot.

The eigensolver is a parallel Jacobi iteration. Its sweeps follow the circle
method, one index fixed and the others rotating, and each round rotates a
set of disjoint index pairs in one vectorized update: the round's index
arrays are built once per order and cached read-only, and its column and row
rotations each gather every pair and partner line at once. It only handles
symmetric input, which is all the covariance-style workloads here need, and
it hands back orthonormal vectors by construction.

spdiags_extract writes the matrix into a zeroed band matrix through sheared
strided views (core._sheared): one write for a square or wide matrix, three
for a tall one, with no loop over the diagonals.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ops
from .core import (
    NumArray, _allocated, _check_rank2, _check_square, _check_vector, _integral, _positive,
    _shaped, _sheared, wrap_ndarray,
)
from .errors import ArgumentError, ConvergenceError, ShapeError, SingularMatrixError


# A later slab of at least this many k-slices is folded by one np.add.reduce
# from -0.0 with the running sum as its row 0; a slab of fewer is added one
# in-place step per k. On slabs of ops._SLAB doubles (2-vCPU Xeon, numpy
# 2.4.6, best of 7, three runs) the reduce, with the copy of the running sum,
# took 1.6-2.1x the in-place steps' time at 2 slices, 0.95-1.05x at 5,
# 0.77-0.86x at 6, 0.46-0.48x at 16 and 0.03-0.04x at 8192.
_REDUCE_SLICES = 6


def _line_aligned(shape) -> np.ndarray:
    """An empty float64 array whose data starts on a 64-byte cache line.

    A heap block is only 16-byte aligned, and wide SIMD stores into one then
    straddle cache lines: a 200 x 200 broadcast multiply ran 1.3-1.6x slower
    into such a buffer on an AVX-512 host.
    """
    size = math.prod(shape)
    raw = np.empty(size + 7)
    # raw.ctypes.data builds a helper object per call: about 3x as slow
    skip = -ctypes.addressof(ctypes.c_char.from_buffer(raw)) % 64 // 8
    return raw[skip:skip + size].reshape(shape)


@np.errstate(all="ignore")  # _product's IEEE results: see its docstring
def matmul(a: NumArray, b: NumArray) -> NumArray:
    """Standard matrix product; inner accumulation in ascending-k order.

    matmul checks its operands and wraps the result; _product is the fold.
    """
    _check_rank2(a, "matmul")
    _check_rank2(b, "matmul")
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dims differ: {a.dims} by {b.dims}")
    return wrap_ndarray(_product(a.view(), b.view()))


def _product(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """The one product fold: av @ bv for conforming 2-D float64 ndarrays, each
    entry summed in ascending k, as a new row-major m x n ndarray.

    A k = 1 product is its outer product, by numpy's 2-D multiply. Otherwise
    the k-slices come in slabs of r = max(1, ops._SLAB // (m*n)); once m*n
    exceeds ops._SLAB // 2, a slab is one k-slice. Each entry's sum starts
    from its k = 1 product, as dot's does: from +0.0 it would turn a -0.0 sum
    into +0.0. The first slab is folded by one np.add.reduce along its
    leading axis from -0.0, the exact identity of +, and numpy sums such a
    strided axis one row at a time, so each lane is the ascending fold. A
    later slab of at least _REDUCE_SLICES k-slices is folded the same way,
    with the running sum copied into its row 0 ahead of its products; a
    later slab of fewer is added one in-place step per k (ops._fold_into).

    A 1 x 1 result is summed as dot sums it (ops._ascending), since numpy's
    reduce would sum its one lane pairwise. Each product is row-major m x n, as np.outer
    lays it out, so each entry meets the same lane of numpy's vector loops:
    an n x m slab was faster on square shapes but moved entries into a loop
    tail, which returns the other operand when two NaNs meet. The first slab
    is formed by one 3-D multiply when n is a multiple of 8. Otherwise its
    k = 1 product has its own 2-D multiply, since where two NaNs meet numpy's
    2-D broadcast loop, run through its default 8192-element buffer, returns
    the other operand's in its scalar tail, the product's last m*n mod 8
    entries (and elsewhere when n = 1), and the 3-D loop need not. With n a
    multiple of 8 the two loops agree.

    Rows of n >= ops._ROW_BUFFER are folded under a buffer of that many
    elements (ops._row_buffered). There each row of a product is one call of
    numpy's loop for a repeated a[i, k] times a row of b, which keeps a's NaN
    wherever two meet, tail included, in the 2-D and the 3-D multiply alike.
    So a NaN in such a product can carry other bits than under the default
    buffer; every other bit is the same.

    When all k products fit in a quarter of ops._SLAB (2**12 doubles, 32 KiB,
    inside a 48 KiB L1d), they are one slab, since then k <= r, and no slab
    is counted. That slab is a plain np.empty, as in every 8 x 8 block DCT
    product, where _line_aligned's extra calls cost more than the straddled
    stores. Any other slab is 64-byte aligned (_line_aligned): unaligned,
    24^3, 16 x 64 x 16 and 8 x 256 x 8 ran 8-11% slower.

    The caller holds np.errstate(all="ignore"), so that inf - inf is NaN and
    an overflow is inf, as IEEE-754 says: the block DCT enters it once for
    both of its products.
    """
    n = bv.shape[1]
    if n < ops._ROW_BUFFER:  # the block DCT's tiles: one call, no buffer set
        return _fold(av, bv)
    return ops._row_buffered(_fold, av, bv)


def _fold(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """_product's fold, under the buffer _product chose."""
    (m, k), n = av.shape, bv.shape[1]
    if k == 0 or m * n == 0:  # an empty sum is +0.0, and an empty result walks no k
        return np.zeros((m, n))
    if m * n == 1:  # one lane, which numpy's reduce would sum pairwise: dot's scan
        return ops._ascending(np.add, av[0] * bv[:, 0], 0).reshape(1, 1)
    at, vb = av.T[:, :, None], np.ascontiguousarray(bv)[:, None, :]  # a[:, k] as m x 1, b[k, :] as 1 x n
    if k == 1:  # the one product is the result
        return np.multiply(at[0], vb[0])
    if 4 * k * m * n <= ops._SLAB:  # one plain slab holds every product: see the docstring
        r, row0, slab = k, 0, np.empty((k, m, n))
        first, af, bf = slab, at, vb
    else:
        r = max(1, ops._SLAB // (m * n))
        row0 = int(r >= _REDUCE_SLICES)  # later slabs hold the running sum in row 0
        f = min(r, k)
        slab = _line_aligned((f + row0, m, n))
        first, af, bf = slab[:f], at[:f], vb[:f]
    if r == 1:  # a first slab of one product is the accumulator
        acc = np.multiply(at[0], vb[0])
    else:
        if n % 8:  # the k = 1 product by numpy's 2-D multiply: see the docstring
            np.multiply(af[0], bf[0], first[0])  # out by position: no keyword parsing
            np.multiply(af[1:], bf[1:], first[1:])
        else:
            np.multiply(af, bf, first)
        acc = np.add.reduce(first, axis=0, initial=-0.0)
    for k0 in range(r, k, r):  # slab[row0 + t] = a[:, k0+t] b[k0+t, :]
        s = slab[row0:row0 + k - k0]
        np.multiply(at[k0:k0 + r], vb[k0:k0 + r], s)
        if row0:
            slab[0] = acc
            np.add.reduce(slab[:1 + k - k0], axis=0, initial=-0.0, out=acc)
        else:
            ops._fold_into(np.add, acc, s)
    return acc


@np.errstate(all="ignore")  # an overflowing product is inf
def dot(a: NumArray, b: NumArray) -> float:
    """Inner product of two equal-length vectors, summed in ascending order."""
    _check_vector(a, "dot")
    _check_vector(b, "dot")
    if a.numel != b.numel:
        raise ShapeError(f"dot length mismatch: {a.numel} vs {b.numel}")
    if a.numel == 0:
        return 0.0
    return float(ops._ascending(np.add, a.buf * b.buf, 0)[0])


@np.errstate(all="ignore")  # IEEE results: inf - inf is NaN, an overflow is inf
def mldivide(a: NumArray, b: NumArray) -> NumArray:
    """Solve the square system Ax = b by LU with partial pivoting.

    The pivot is the first largest magnitude in its column, and a zero pivot
    raises SingularMatrixError naming its column. The elimination's rank-1
    updates run over rows of up to n - 1 entries, under ops._row_buffered
    from n = ops._ROW_BUFFER up. The back substitution sums each row's
    products in ascending column order, from the first product, as the scalar
    loop does: a BLAS dot's order depends on the kernel OpenBLAS picks for
    the host, so its last bits could differ from host to host.
    """
    _check_square(a, "mldivide")
    n = a.rows
    if not (b.rank == 2 and b.rows == n and b.cols == 1):
        raise ShapeError(f"mldivide rhs must be {n}x1, got {b.dims}")
    lu = a.view().copy()
    x = b.buf.copy()
    if n < ops._ROW_BUFFER:
        _eliminate(lu, x)
    else:
        ops._row_buffered(_eliminate, lu, x)
    # one multiply and one sequential accumulate per row, into a scratch row:
    # the bits of ops._ascending, whose per-call checks doubled this step's
    # time at n = 300 (1.5 against 0.8 ms)
    row = np.empty(n)
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            s = row[k + 1:]
            np.multiply(lu[k, k + 1:], x[k + 1:], s)
            x[k] -= np.add.accumulate(s, out=s)[-1]
        x[k] /= lu[k, k]
    return NumArray((n, 1), x)


def _eliminate(lu: np.ndarray, x: np.ndarray) -> None:
    """mldivide's elimination in place: lu becomes the unit-lower L below its
    diagonal and U on and above it, with x carried through the row swaps."""
    for k in range(len(x)):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0.0:
            raise SingularMatrixError(f"zero pivot in column {k + 1}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            x[[k, p]] = x[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
        x[k + 1:] -= lu[k + 1:, k] * x[k]


@dataclass(frozen=True)
class EigResult:
    """Eigenvectors as columns, eigenvalues ascending as a column vector.

    sweeps counts the Jacobi sweeps applied; off_norm is the largest
    off-diagonal magnitude left when the iteration stopped.
    """

    vectors: NumArray
    values: NumArray
    sweeps: int = 0
    off_norm: float = 0.0


def _inf_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=1).max())


def _off_diag_max(m: np.ndarray) -> float:
    if m.shape[0] < 2:
        return 0.0
    return float(np.abs(m - np.diag(np.diag(m))).max())


def _round_robin(d: int) -> list:
    """One Jacobi sweep over order d as rounds of disjoint (P, Q) index pairs.

    Circle method: index n-1 stays fixed while the others rotate, so n-1
    rounds of n/2 pairs meet every pair exactly once. An odd d is padded with
    a bye index d, and pairs holding the bye are dropped. Within a pair P < Q.
    """
    n = d + d % 2
    k = np.arange(1, n // 2)
    rounds = []
    for r in range(n - 1):
        a = np.concatenate(([n - 1], (r + k) % (n - 1)))
        b = np.concatenate(([r], (r - k) % (n - 1)))
        keep = (a < d) & (b < d)
        rounds.append((np.minimum(a, b)[keep], np.maximum(a, b)[keep]))
    return rounds


class _Plan(NamedTuple):
    """The indices of one Jacobi round over order d: its h pairs (p, q), pq =
    [p|q] and both = [p|q|q|p], which gathers every operand of the round's
    rotations at once; and, as flat positions in eig_sym's d x 2d working
    array, the entries (p, q), the diagonal at pq and the entries (p, q) and
    (q, p) that the round zeroes."""

    p: np.ndarray
    q: np.ndarray
    pq: np.ndarray
    both: np.ndarray
    h: int
    at: np.ndarray
    diag: np.ndarray
    zero: np.ndarray


def _plan(p: np.ndarray, q: np.ndarray, d: int) -> _Plan:
    n = 2 * d  # the working array's row length: entry (i, j) of m is at j*n + i
    pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
    plan = _Plan(p, q, pq, np.concatenate((pq, qp)), p.size, q * n + p, pq * (n + 1), qp * n + pq)
    for a in plan:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return plan


@functools.lru_cache(maxsize=8)
def _round_plans(d: int) -> tuple:
    """The plans of _round_robin(d)'s rounds, built once per order and
    read-only, since every call of that order shares them. They hold about
    3x the working array's bytes, so only the last few orders are kept."""
    return tuple(_plan(p, q, d) for p, q in _round_robin(d))


def eig_sym(s: NumArray, max_sweeps: int = 100) -> EigResult:
    """Eigendecomposition of a symmetric matrix by parallel Jacobi rotations.

    Each sweep runs the rounds of _round_robin's circle method, in which one
    index stays fixed while the others rotate; a round rotates up to d/2
    disjoint (p, q) pairs at once, skipping pairs whose off-diagonal magnitude
    is already below the threshold. Sweeps run until every off-diagonal
    magnitude falls below 1e-12 times the input's infinity norm (capped at
    max_sweeps). Values come back ascending; each vector is sign-normalized so
    its largest-magnitude component is positive.

    A round computes every kept pair's rotation (c, s) from the matrix as the
    round found it, then turns the pair columns of m and of the vectors v,
    then the pair rows of m, then zeroes the pairs. Each turn is one gather of
    the pair and partner lines (_Plan.both), one multiply by [c, c, s, -s] in
    place and one difference of the halves, scattered back. The rounds' plans
    are built once per order (_round_plans).

    The sweeps run on the input scaled by the power of two 2**-e that brings
    its norm into [0.5, 1), so no difference or square in a rotation can
    overflow; scaling by a power of two is exact, so every rotation is bit for
    bit the unscaled one, and values and off_norm are scaled back by 2**e.
    """
    _check_square(s, "eig_sym")
    max_sweeps = _integral(max_sweeps, "eig_sym max_sweeps")
    d = s.rows
    a = s.view()
    if not np.isfinite(a).all():
        raise ArgumentError("eig_sym input holds NaN or inf")
    with np.errstate(over="ignore"):
        norm = _inf_norm(a)
        if not math.isfinite(norm):
            raise ArgumentError("eig_sym input's infinity norm overflows")
        if _inf_norm(a - a.T) > 1e-9 * norm:
            raise ArgumentError("eig_sym input is not symmetric")
    e = math.frexp(norm)[1]
    # Row j of w holds column j of m, then column j of v: one row rotation of
    # w turns the columns of both, and m's rows are w's first d columns (mt).
    # flat is w's buffer, in which the plans name single entries of m.
    w = np.hstack((np.ldexp(a, -e).T, np.eye(d)))
    mt, flat = w[:, :d], w.reshape(-1)
    thresh = math.ldexp(1e-12 * norm, -e)
    plans = _round_plans(d)
    sweeps = 0
    off = _off_diag_max(mt)
    while off > thresh:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"Jacobi sweeps exceeded {max_sweeps} (off-diagonal {math.ldexp(off, e):.3e})"
            )
        for p, q, pq, both, h, at, diag, zero in plans:
            apq = flat[at]
            big = np.abs(apq) > thresh
            kept = np.count_nonzero(big)
            if kept < h:
                if not kept:
                    continue
                p, q, pq, both, h, at, diag, zero = _plan(p[big], q[big], d)
                apq = apq[big]
            dg = flat[diag]
            tau = (dg[h:] - dg[:h]) / (2.0 * apq)
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            sn = t * c
            # Line p gets c*x_p - sn*x_q and line q gets c*x_q - (-sn)*x_p.
            cs = np.concatenate((c, c, sn, -sn))
            g = w[both]
            g *= cs[:, None]
            w[pq] = g[:2 * h] - g[2 * h:]
            g = mt[:, both]
            g *= cs
            mt[:, pq] = g[:, :2 * h] - g[:, 2 * h:]
            flat[zero] = 0.0
        sweeps += 1
        off = _off_diag_max(mt)
    vals = np.ldexp(np.diag(mt), e)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    v = w[order, d:].T
    if d:
        top = v[np.argmax(np.abs(v), axis=0), np.arange(d)]
        np.negative(v, out=v, where=top < 0)
    return EigResult(
        vectors=wrap_ndarray(v),
        values=NumArray((d, 1), vals),
        sweeps=sweeps,
        off_norm=math.ldexp(off, e),
    )


def dctmtx(n: int) -> NumArray:
    """Orthonormal DCT-II basis matrix of order n.

    Row 1 is the constant 1/sqrt(n); row i >= 2, column j holds
    sqrt(2/n) * cos(pi * (2j - 1) * (i - 1) / (2n)) with 1-based indices.
    """
    n = _positive(n, "dctmtx order")
    i, j = _allocated(f"dctmtx order {n}", np.indices, (n, n))
    t = math.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * i / (2.0 * n))
    t[0, :] = 1.0 / math.sqrt(n)
    return wrap_ndarray(t)


@dataclass(frozen=True)
class DiagBand:
    """All diagonals of a matrix, one zero-padded column per diagonal.

    Column k holds the diagonal with offset offsets[k] (entries A(i, i+d)
    in ascending i); offsets run -(m-1) .. n-1, bottom-left to top-right.
    Diagonals with offset >= 0 sit at the top of their column, the rest at
    the bottom, and +0.0 fills the other cells. The bands have min(m, n) rows,
    so an empty matrix gives no rows and one column per offset: a 0 x 3
    matrix has offsets (1, 2), a 3 x 0 one (-2, -1) and 0 x 0 none.
    """

    bands: NumArray
    offsets: tuple


# _sheared's steps for a view whose row i starts i columns left of its row 0
_SHIFT_LEFT = ((1, -1), (0, 1))


def spdiags_extract(a: NumArray) -> DiagBand:
    """Arrange every diagonal of a rank-2 array as a band-matrix column.

    The bands are one zero fill and one strided write of a per placement
    region. For m <= n, entry (i, j) sits in row i of the bands, column
    m-1+j-i, so row i of a, shifted i columns left, is row i of the bands:
    one sheared write of all of a. A tall a has three regions. Its top n x n
    block is written the same way, which places the diagonals d >= 0 and
    puts stray entries where d < 0. The full columns, -(m-n) <= d < 0, then
    take a[j+s, j] into row j, column m-1-s. The diagonals below them end at
    the bottom: row i of the bottom block shifted i columns left, written
    only where j < i.
    """
    _check_rank2(a, "spdiags_extract")
    m, n = a.dims
    offsets = tuple(range(1 - m, n))
    rows, k = min(m, n), len(offsets)
    flat = np.zeros(rows * k)
    if rows:
        v = a.view()
        _sheared(flat, rows, (0, m - 1), (rows, n), _SHIFT_LEFT)[...] = v[:rows]
        if m > n:
            _shaped(flat, (n, k))[:, n - 1:m - 1] = _sheared(
                a.buf, m, (m - n, 0), (n, m - n), ((1, 1), (-1, 0)))
            np.copyto(_sheared(flat, n, (0, n - 1), (n, n), _SHIFT_LEFT), v[m - n:],
                      where=np.tri(n, k=-1, dtype=bool))
    return DiagBand(bands=NumArray((rows, k), flat), offsets=offsets)
