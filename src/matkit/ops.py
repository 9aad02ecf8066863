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
trusted wrap_ndarray. The path owns the one ufunc buffer rule
(_row_buffered, which linalg calls too): a subtract, divide or comparison
that repeats an array operand along dim 1, the innermost axis, of a result
with at least _ROW_BUFFER rows and more than one default buffer of entries
runs under a _ROW_BUFFER-element buffer, where numpy's default chunking
would set its cost. merge is a bit select on the operands' int64 bits
(_select), not a branch per entry, so its cost does not depend on the mask's
pattern, and each entry is a copy of one operand's bits.

Reductions accumulate in ascending index order, deliberately: no pairwise or
compensated summation, so a vectorized sum is bit-for-bit equal to the naive
sequential loop over the same data. One helper, _ascending, folds every
reduction (reduce_along_dim here, linalg.dot too). When at least two lanes
share the reduced axis and that axis is not the smallest-stride axis of
extent > 1, it is one ufunc.reduce on the view in place, from -0.0 (or 1.0),
the exact identity: numpy's inner loop then runs across the lanes and adds
one row per step, in ascending order, as linalg._product's first slab relies
on. Three cases keep the slab scan (_scan): fewer than two lanes (dot, a
vector along its length) and the innermost axis (dim 1 of the column-major
layout), which numpy would sum pairwise, and a result holding any NaN, since
numpy's vector loop returns the other NaN where two meet in its tail lanes.
The scan indexes the reduced axis in place, walks it in slabs of at most
_SLAB elements and scans each slab from the running partial result, so no
scan as large as the input is ever built; when one slice fills a slab, it
starts from a copy of the first slice and takes one in-place step per later
slice (_fold_into), the step linalg._product adds a later slab of few
k-slices with.
extremum is one NaN-skipping fmin/fmax reduce and one first-hit scan.
Elementwise maps may be parallelized freely by the backend; reductions stay
sequential per slice.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import (
    BoolMask, NumArray, _broadcast_dims, _check_dim, _check_rank2, _choice, _number,
    _shaped, _view_at_rank, wrap_ndarray,
)
from .errors import ArgumentError


def _coerce(x):
    """An operand as a NumArray, or as a Python float when it is a scalar:
    a scalar operand must be a _number."""
    if isinstance(x, NumArray):
        return x
    return float(_number(x, "scalar operand"))


# Broadcasts that repeat an operand along long rows run with numpy's ufunc
# buffer cut to this many elements (_row_buffered): by default numpy 2.4 runs a
# broadcast in chunks of its 8192-element buffer, _DEFAULT_BUFFER, and on long
# rows that chunking, not the arithmetic, sets the cost. _broadcast_apply takes
# it for the ufuncs of _ROW_SAFE when an array operand has extent 1 along dim 1
# of a result with at least this many rows and more than _DEFAULT_BUFFER
# entries; linalg takes it for products with rows this long and for
# mldivide's elimination from this order up. Times in us, default buffer
# against 64 elements, the set and restore included (2-vCPU Xeon, numpy 2.4.6,
# medians of 21 interleaved rounds): a subtract of 2000 x 5 x 1 - 1 x 5 x 26
# 199 vs 114, 300 x 300 - 1 x 300 77 vs 38, 1 x 300 against 129 x 1 37 vs 13;
# at the floors 70 x 300 - 1 x 300 18.5 vs 18.6, 63 x 300 - 1 x 300 17 vs 18
# and 300 x 5 - 1 x 5 2.0 vs 3.8. Rows of 64 to 96 with 10**4 to 10**5
# entries came out even, either way by up to 20% between runs; from 128 rows
# and 4 * 10**4 entries up the small buffer was faster. A broadcast multiply of 4 x m x 1 by
# 4 x 1 x n (4*m*n ~ 2**14, medians of 31) took 27.9 vs 45.3 at n = 32,
# 27.7 vs 25.3 at 64 and 19.5 vs 6.0 at 400.
_ROW_BUFFER = 64
_DEFAULT_BUFFER = 8192


def _row_buffered(fn, *args):
    """fn(*args) under numpy's ufunc buffer cut to _ROW_BUFFER elements, for
    broadcasts over rows at least that long. The caller's buffer size is set
    back in a finally, also on a raise: numpy 1.x's np.errstate restores only
    the error flags, so a scope alone would leave the small buffer behind.
    The two np.setbufsize calls cost about 2-4 us, which the callers spare
    short rows and small results.
    """
    old = np.setbufsize(_ROW_BUFFER)
    try:
        return fn(*args)
    finally:
        np.setbufsize(old)


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

    A ufunc of _ROW_SAFE runs under _row_buffered when an array operand has
    extent 1 along dim 1, the innermost axis, of a result with at least
    _ROW_BUFFER rows and more than _DEFAULT_BUFFER entries: below that the
    set and restore cost more than they save. Everything else, and an operand
    repeated along another dim only, keeps numpy's default buffer.
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
    views, repeated = [], False
    for x in operands:
        if not isinstance(x, float):
            views.append(_view_at_rank(x, rank))
            if x.dims[0] == 1:  # numpy repeats it along the innermost axis
                repeated = True
        else:
            views.append(np.array([[x]]) if single else x)
    if repeated and dims[0] >= _ROW_BUFFER and fn in _ROW_SAFE and math.prod(dims) > _DEFAULT_BUFFER:
        return wrap_ndarray(_row_buffered(fn, *views))
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

# The ufuncs whose bits no numpy loop choice can move, so they may run under
# _row_buffered: where two NaNs meet, a subtract or a divide keeps the first
# operand's under either buffer, and a comparison returns no NaN. Under the
# small buffer np.add and np.multiply can keep the other NaN, and np.power
# takes its stride-0 fast paths for the exponents 2, 0.5 and -1.
_ROW_SAFE = frozenset((np.subtract, np.divide, *_COMPARE.values()))

_UNARY = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "neg": np.negative,
    "cos": np.cos,
    "sin": np.sin,
}


# The kernels enter np.errstate through its decorator form, which sets numpy's
# error state without building a context manager on every call and so costs
# about half as much as a `with` block. One shared instance could not stand in
# for it: numpy refuses to enter an errstate instance twice.

@np.errstate(all="ignore")
def ew_binary(op: str, a, b) -> NumArray:
    """Elementwise +, -, *, /, ^ with broadcasting and IEEE-754 semantics."""
    fn = _BINARY[_choice(op, _BINARY, "elementwise operator")]
    return _broadcast_apply(fn, _coerce(a), _coerce(b))


@np.errstate(invalid="ignore")
def compare(op: str, a, b) -> BoolMask:
    """Elementwise comparison; any comparison with NaN is false except !=."""
    fn = _COMPARE[_choice(op, _COMPARE, "comparison")]
    return _broadcast_apply(fn, _coerce(a), _coerce(b))


@np.errstate(all="ignore")
def ew_unary(op: str, a) -> NumArray:
    """Elementwise abs/sqrt/neg/cos/sin of a NumArray, or of a number as a
    1x1; sqrt of a negative is NaN."""
    fn = _UNARY[_choice(op, _UNARY, "unary operator")]
    return _broadcast_apply(fn, _coerce(a))


# Elements per scan slab in _scan (128 KiB of doubles). numpy's
# accumulate runs one inner loop per lane, so a scan pays off only while a
# slab holds few lanes; wider slices are cheaper as in-place steps.
_SLAB = 1 << 14


def _fold_into(ufunc, acc: np.ndarray, slices) -> np.ndarray:
    """acc folded with each of slices in turn, in place: acc = ufunc(acc, s)."""
    for s in slices:
        ufunc(acc, s, acc)  # out given by position: no keyword parsing per step
    return acc


@np.errstate(all="ignore")  # inf - inf is NaN and overflow is inf, as IEEE-754 says
def _ascending(ufunc, v: np.ndarray, ax: int) -> np.ndarray:
    """ufunc (np.add or np.multiply) folded along axis ax in ascending index
    order; ax is kept, extent 1. v must have a nonzero extent along ax.

    When at least two lanes share ax and ax is not the smallest-stride axis
    of extent > 1, this is one ufunc.reduce on v in place from the exact
    identity (-0.0 for +, which keeps an all -0.0 lane -0.0; 1.0 for *):
    numpy's inner loop runs across the lanes, adding one row per step in
    ascending order, and builds nothing larger than the result. Three cases
    keep the slab scan (_scan): fewer than two lanes and the innermost axis,
    which numpy's reduce would sum pairwise, and a result holding a NaN,
    which the reduce's vector loop can take from the other operand where two
    NaNs meet. Either way the bits are _scan's, NaN sign and payload included.
    """
    if _across_lanes(v, ax):
        out = ufunc.reduce(v, axis=ax, initial=-0.0 if ufunc is np.add else 1.0, keepdims=True)
        if not np.count_nonzero(np.isnan(out)):
            return out
    return _scan(ufunc, v, ax)


def _across_lanes(v: np.ndarray, ax: int) -> bool:
    """Whether at least two lanes share axis ax and some other axis of
    extent > 1 has a smaller stride, so numpy's reduce loops across lanes."""
    if v.size > v.shape[ax]:
        step = abs(v.strides[ax])
        for e, s in zip(v.shape, v.strides):  # a plain loop: this runs on every reduction
            if abs(s) < step and e > 1:
                return True
    return False


def _scan(ufunc, v: np.ndarray, ax: int) -> np.ndarray:
    """_ascending as a slab-bounded scan; the caller ignores IEEE errors.

    Bit for bit the last slice of ufunc.accumulate(v, axis=ax), without a scan
    as large as v. The axis is walked in slabs of `rows` slices, at most
    _SLAB elements each, indexed in place through a (slice(None),) * ax
    prefix. The first slab is scanned directly; each later one is scanned
    from the running partial result, carried as the left operand (acc + v[k],
    the sequential order). When one slice alone fills a slab (rows == 1), the
    fold starts from a copy of the first slice and each step is a single
    in-place ufunc(acc, v[k]) (_fold_into).
    """
    pre = (slice(None),) * ax
    last = pre + (slice(-1, None),)
    n = v.shape[ax]
    rows = max(1, _SLAB // max(1, v.size // n))

    def part(k, m=1):  # slices k .. k+m-1 along ax, a view
        return v[pre + (slice(k, k + m),)]

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

    Accumulation is strictly ascending-index, never pairwise (_ascending: one
    in-place reduce across the lanes, or the slab scan), bit for bit the
    sequential loop. Reducing past the rank folds the implicit trailing
    singleton of core's padded view, so it returns the input's values
    unchanged.
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


@np.errstate(all="ignore")
def cumsum_along_dim(a: NumArray, dim: int) -> NumArray:
    """Running prefix sums along dim; same shape as the input."""
    _check_dim(dim, "cumsum")
    _check_rank2(a, "cumsum")
    return wrap_ndarray(np.cumsum(a.view(), axis=dim - 1))


def extremum(kind: str, a: NumArray, dim: int):
    """Per-slice min or max with the 1-based index of its first occurrence.

    NaN entries are skipped; a slice of only NaN reports value NaN and
    index 1. Ties resolve to the lowest index. One fmin/fmax reduce finds
    each slice's best value, skipping NaN, and one argmax over v == best its
    first hit: an all-NaN slice has best NaN, so it has no hit and index 1.
    The value is read back from v, so a tie of -0 and +0 keeps the sign that
    comes first, and no input-sized float array is built.
    """
    _choice(kind, ("min", "max"), "extremum kind")
    _check_dim(dim, "extremum")
    _check_rank2(a, "extremum")
    ax = dim - 1
    v = a.view()
    if v.shape[ax] < 1:
        raise ArgumentError("extremum needs extent >= 1 along dim")
    best = (np.fmin if kind == "min" else np.fmax).reduce(v, axis=ax, keepdims=True)
    idx0 = np.argmax(v == best, axis=ax, keepdims=True)
    return wrap_ndarray(np.take_along_axis(v, idx0, ax)), wrap_ndarray(idx0 + 1.0)


def merge(mask: BoolMask, a, b) -> NumArray:
    """Elementwise mask ? a : b with broadcasting (the conditional merge).

    A bit select (_select): every entry is a copy of a's or b's bits, NaN
    sign and payload and -0.0 included, and its cost does not depend on the
    mask's pattern. mask must be a BoolMask: a NumArray or a number would
    have its bytes read as mask bits.
    """
    if not isinstance(mask, BoolMask):
        raise ArgumentError(f"merge mask must be a BoolMask, got {type(mask).__name__}")
    return _broadcast_apply(_select, mask, _coerce(a), _coerce(b))


def _int64_bits(x):
    """A float64 ndarray, or a float, as its bits: an int64 view or scalar."""
    return x.view(np.int64) if isinstance(x, np.ndarray) else np.float64(x).view(np.int64)


def _select(m: np.ndarray, a, b) -> np.ndarray:
    """m ? a : b for a bool ndarray m and float64 ndarrays or floats a and b,
    broadcast together: b ^ ((a ^ b) & k) on their int64 bits, where k is all
    ones where m holds (m's int8 view negated) and zero elsewhere.

    np.where branches on each mask bit, so a mask of random bits pays a
    mispredicted branch on about every other entry: on 1000 x 1000 (a 2-vCPU
    AVX-512 Xeon, numpy 2.4.6) about 5.1 ms against 0.8 ms for a predictable
    one. The select runs the same three passes whatever the mask, about 2.1 ms
    there, and about 5 us more than np.where on an 8 x 8. The passes write one
    result-sized buffer laid out down the columns (core._shaped), as the
    operands' views are, so wrap_ndarray adopts it without a copy.
    """
    a, b = _int64_bits(a), _int64_bits(b)
    grid = np.broadcast(m, a, b)
    out = _shaped(np.empty(grid.size, np.int64), grid.shape)
    np.bitwise_xor(a, b, out)  # out given by position: no keyword parsing
    np.bitwise_and(out, np.negative(m.view(np.int8)), out)
    np.bitwise_xor(out, b, out)
    return out.view(np.float64)


def mask_or(a: BoolMask, b: BoolMask) -> BoolMask:
    return _broadcast_apply(np.logical_or, a, b)


def mask_and(a: BoolMask, b: BoolMask) -> BoolMask:
    return _broadcast_apply(np.logical_and, a, b)


def mask_not(a: BoolMask) -> BoolMask:
    return BoolMask(a.dims, ~a.bits)


@np.errstate(all="ignore")  # f's own IEEE results (inf - inf is NaN) are not errors
def apply_broadcast(f: Callable[[float, float], float], a, b) -> NumArray:
    """Lift a pure scalar binary function to arrays under broadcasting."""
    lifted = np.frompyfunc(lambda x, y: float(f(float(x), float(y))), 2, 1)
    return _broadcast_apply(
        lambda va, vb: lifted(va, vb).astype(np.float64), _coerce(a), _coerce(b)
    )
