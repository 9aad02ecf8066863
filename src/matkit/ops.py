"""Broadcasting, elementwise arithmetic/comparison, reductions, and merge.

Every broadcasting operation (arithmetic, comparison, merge, mask algebra,
apply_broadcast, and the unary maps as a one-operand case) goes through one
path, _broadcast_apply: the result shape is folded over the operands by the
singleton-expansion rule, and operands of lower rank are aligned by core's
_view_at_rank, the view padded with singleton dimensions on the right (so a
1x3 row against an hxwx3 volume needs an explicit permute first, exactly
like the source notation). A singleton dimension is repeated without
materializing copies. The fold takes only dims that differ from the running
result, a scalar operand reaches numpy as a Python float (built into no
array unless the result is 1x1), and the result is wrapped once, by the
trusted wrap_ndarray.

Reductions accumulate in ascending index order, deliberately: no pairwise or
compensated summation, so a vectorized sum is bit-for-bit equal to the naive
sequential loop over the same data. One helper, _ascending, folds every
reduction (reduce_along_dim here, linalg.dot too): it indexes the reduced
axis in place, walks it in slabs of at most _SLAB elements and scans each
slab from the running partial result, so no scan as large as the input is
ever built. When one slice fills a slab, the fold starts from a copy of the
first slice and takes one in-place step per later slice (_fold_into), the
step linalg._product folds its later slabs of outer products with. _product folds
its first slab with one np.add.reduce from -0.0, which numpy sums one row at
a time along that slab's strided leading axis. _ascending keeps accumulate:
along a contiguous axis, such as dim 1 of reduce_along_dim, numpy's reduce
sums pairwise. Elementwise maps may be parallelized freely by the backend;
reductions stay sequential per slice.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (
    BoolMask, NumArray, _broadcast_dims, _check_dim, _check_rank2, _choice, _number,
    _view_at_rank, wrap_ndarray,
)
from .errors import ArgumentError


def _coerce(x):
    """An operand as a NumArray, or as a Python float when it is a scalar:
    a scalar operand must be a _number."""
    if isinstance(x, NumArray):
        return x
    return float(_number(x, "scalar operand"))


def _broadcast_apply(fn, *operands):
    """The one broadcasting path: fn over right-padded views of the operands.

    The result shape folds the array operands' dims by the singleton-expansion
    rule, folding only dims that differ from the running result: they are
    normalized already, so core._broadcast_dims trusts them. Each array's
    view is padded with trailing singleton axes up to the common rank
    (core._view_at_rank), so numpy repeats extent-1 dimensions. A scalar
    operand (a float, from _coerce) reaches fn as it is, and numpy repeats it
    too; only a 1x1 result, with no extent to repeat along, takes its scalars
    as 1x1 arrays: numpy's power loop answers an exponent it repeats, 0.5 by
    sqrt, so -0 ^ 0.5 would be -0 where a 1x1 gives +0. wrap_ndarray turns a
    bool result into a BoolMask, anything else into a NumArray.
    """
    # plain loops, not comprehensions: this runs on every kernel call, and a
    # comprehension costs a frame of its own
    dims = None
    for x in operands:
        if isinstance(x, float):
            continue
        if dims is None:
            dims = x.dims
        elif x.dims != dims:
            dims = _broadcast_dims(dims, x.dims)
    if dims is None:
        dims = (1, 1)
    # operand dims are normalized, so no operand outranks the result
    rank, single = len(dims), dims == (1, 1)
    views = []
    for x in operands:
        if not isinstance(x, float):
            views.append(_view_at_rank(x, rank))
        else:
            views.append(np.array([[x]]) if single else x)
    return wrap_ndarray(fn(*views))


_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}

_COMPARE = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}

_UNARY = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "neg": np.negative,
    "cos": np.cos,
    "sin": np.sin,
}


def ew_binary(op: str, a, b) -> NumArray:
    """Elementwise +, -, *, /, ^ with broadcasting and IEEE-754 semantics."""
    fn = _BINARY[_choice(op, _BINARY, "elementwise operator")]
    with np.errstate(all="ignore"):
        return _broadcast_apply(fn, _coerce(a), _coerce(b))


def compare(op: str, a, b) -> BoolMask:
    """Elementwise comparison; any comparison with NaN is false except !=."""
    fn = _COMPARE[_choice(op, _COMPARE, "comparison")]
    with np.errstate(invalid="ignore"):
        return _broadcast_apply(fn, _coerce(a), _coerce(b))


def ew_unary(op: str, a) -> NumArray:
    """Elementwise abs/sqrt/neg/cos/sin of a NumArray, or of a number as a
    1x1; sqrt of a negative is NaN."""
    fn = _UNARY[_choice(op, _UNARY, "unary operator")]
    with np.errstate(all="ignore"):
        return _broadcast_apply(fn, _coerce(a))


# Elements per scan slab in _ascending (128 KiB of doubles). numpy's
# accumulate runs one inner loop per lane, so a scan pays off only while a
# slab holds few lanes; wider slices are cheaper as in-place steps.
_SLAB = 1 << 14


def _fold_into(ufunc, acc: np.ndarray, slices) -> np.ndarray:
    """acc folded with each of slices in turn, in place: acc = ufunc(acc, s)."""
    for s in slices:
        ufunc(acc, s, acc)  # out given by position: no keyword parsing per step
    return acc


def _ascending(ufunc, v: np.ndarray, ax: int) -> np.ndarray:
    """ufunc folded along axis ax in ascending index order; ax is kept, extent 1.

    Bit for bit the last slice of ufunc.accumulate(v, axis=ax), without a scan
    as large as v. The axis is walked in slabs of `rows` slices, at most
    _SLAB elements each, indexed in place through a (slice(None),) * ax
    prefix. The first slab is scanned directly; each later one is scanned
    from the running partial result, carried as the left operand (acc + v[k],
    the sequential order). When one slice alone fills a slab (rows == 1), the
    fold starts from a copy of the first slice and each step is a single
    in-place ufunc(acc, v[k]) (_fold_into). v must have a nonzero extent along
    ax.
    """
    pre = (slice(None),) * ax
    last = pre + (slice(-1, None),)
    n = v.shape[ax]
    rows = max(1, _SLAB // max(1, v.size // n))

    def part(k, m=1):  # slices k .. k+m-1 along ax, a view
        return v[pre + (slice(k, k + m),)]

    with np.errstate(all="ignore"):  # inf - inf is NaN and overflow is inf, as IEEE-754 says
        if rows == 1:
            return _fold_into(ufunc, part(0).copy(order="K"), map(part, range(1, n)))
        acc = ufunc.accumulate(part(0, rows), axis=ax)[last]  # the first slab needs no carry
        for k in range(rows, n, rows):
            scan = np.concatenate((acc, part(k, rows)), axis=ax)
            ufunc.accumulate(scan, axis=ax, out=scan)
            acc = scan[last]
    return acc


def reduce_along_dim(kind: str, a: NumArray, dim: int) -> NumArray:
    """Sum/prod/mean along dim, collapsing its extent to 1.

    Accumulation is strictly ascending-index, never pairwise: a slab-bounded
    ascending scan (_ascending), bit for bit the sequential loop. Reducing
    past the rank folds the implicit trailing singleton of core's padded view,
    so it returns the input's values unchanged.
    """
    _choice(kind, ("sum", "prod", "mean"), "reduction")
    _check_dim(dim, "reduction", allowed=(1, 2, 3))
    ax = dim - 1
    v = _view_at_rank(a, max(a.rank, dim))
    n = v.shape[ax]
    if n == 0:  # an empty slice reduces to the identity: sum 0, prod 1, mean NaN
        fill = 0.0 if kind == "sum" else (1.0 if kind == "prod" else np.nan)
        return wrap_ndarray(np.full_like(v.sum(axis=ax, keepdims=True), fill))
    out = _ascending(np.multiply if kind == "prod" else np.add, v, ax)
    if kind == "mean":
        out /= n
    return wrap_ndarray(out)


def cumsum_along_dim(a: NumArray, dim: int) -> NumArray:
    """Running prefix sums along dim; same shape as the input."""
    _check_dim(dim, "cumsum")
    _check_rank2(a, "cumsum")
    with np.errstate(all="ignore"):
        return wrap_ndarray(np.cumsum(a.view(), axis=dim - 1))


def extremum(kind: str, a: NumArray, dim: int):
    """Per-slice min or max with the 1-based index of its first occurrence.

    NaN entries are skipped; a slice of only NaN reports value NaN and
    index 1. Ties resolve to the lowest index.
    """
    _choice(kind, ("min", "max"), "extremum kind")
    _check_dim(dim, "extremum")
    _check_rank2(a, "extremum")
    ax = dim - 1
    v = a.view()
    if v.shape[ax] < 1:
        raise ArgumentError("extremum needs extent >= 1 along dim")
    nan = np.isnan(v)
    if kind == "min":
        w = np.where(nan, np.inf, v)
        best = w.min(axis=ax, keepdims=True)
    else:
        w = np.where(nan, -np.inf, v)
        best = w.max(axis=ax, keepdims=True)
    hit = (w == best) & ~nan
    idx0 = np.argmax(hit, axis=ax, keepdims=True)  # first True; 0 when the slice is all NaN
    return wrap_ndarray(np.take_along_axis(v, idx0, ax)), wrap_ndarray(idx0 + 1.0)


def merge(mask: BoolMask, a, b) -> NumArray:
    """Elementwise mask ? a : b with broadcasting (the conditional merge)."""
    return _broadcast_apply(np.where, mask, _coerce(a), _coerce(b))


def mask_or(a: BoolMask, b: BoolMask) -> BoolMask:
    return _broadcast_apply(np.logical_or, a, b)


def mask_and(a: BoolMask, b: BoolMask) -> BoolMask:
    return _broadcast_apply(np.logical_and, a, b)


def mask_not(a: BoolMask) -> BoolMask:
    return BoolMask(a.dims, ~a.bits)


def apply_broadcast(f: Callable[[float, float], float], a, b) -> NumArray:
    """Lift a pure scalar binary function to arrays under broadcasting."""
    lifted = np.frompyfunc(lambda x, y: float(f(float(x), float(y))), 2, 1)
    with np.errstate(all="ignore"):  # f's own IEEE results (inf - inf is NaN) are not errors
        return _broadcast_apply(
            lambda va, vb: lifted(va, vb).astype(np.float64), _coerce(a), _coerce(b)
        )
