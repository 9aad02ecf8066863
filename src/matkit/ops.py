"""Broadcasting, elementwise arithmetic/comparison, reductions, and merge.

Every broadcasting operation (arithmetic, comparison, merge, mask algebra
and apply_broadcast) goes through one path, _broadcast_apply: the result
shape is folded over the operands by the singleton-expansion rule, and
operands of lower rank are aligned by padding their views with singleton
dimensions on the right (so a 1x3 row against an hxwx3 volume needs an
explicit permute first, exactly like the source notation). A singleton
dimension is repeated without materializing copies.

Reductions accumulate in ascending index order, deliberately: no pairwise or
compensated summation, so a vectorized sum is bit-for-bit equal to the naive
sequential loop over the same data. Elementwise maps may be parallelized
freely by the backend; reductions stay sequential per slice.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import BoolMask, NumArray, _check_dim, _check_rank2, broadcast_shapes, wrap_ndarray
from .errors import ArgumentError


def _coerce(x) -> NumArray:
    if isinstance(x, NumArray):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return NumArray((1, 1), [float(x)])
    raise ArgumentError(f"expected a NumArray or scalar, got {type(x).__name__}")


def _broadcast_apply(fn, *operands):
    """The one broadcasting path: fn over right-padded views of the operands.

    The result shape folds broadcast_shapes over the operands' dims; each
    operand's view gets trailing singleton axes up to the common rank, so
    numpy repeats extent-1 dimensions. wrap_ndarray turns a bool result into
    a BoolMask, anything else into a NumArray.
    """
    dims = operands[0].dims
    for x in operands[1:]:
        dims = broadcast_shapes(dims, x.dims).result_dims
    # operand dims are normalized, so no operand outranks the result
    views = (x.view().reshape(x.dims + (1,) * (len(dims) - len(x.dims))) for x in operands)
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
    if op not in _BINARY:
        raise ArgumentError(f"unknown elementwise operator {op!r}")
    with np.errstate(all="ignore"):
        return _broadcast_apply(_BINARY[op], _coerce(a), _coerce(b))


def compare(op: str, a, b) -> BoolMask:
    """Elementwise comparison; any comparison with NaN is false except !=."""
    if op not in _COMPARE:
        raise ArgumentError(f"unknown comparison {op!r}")
    with np.errstate(invalid="ignore"):
        return _broadcast_apply(_COMPARE[op], _coerce(a), _coerce(b))


def ew_unary(op: str, a: NumArray) -> NumArray:
    """Elementwise abs/sqrt/neg/cos/sin; sqrt of a negative is NaN."""
    if op not in _UNARY:
        raise ArgumentError(f"unknown unary operator {op!r}")
    with np.errstate(all="ignore"):
        out = _UNARY[op](a.buf)
    return NumArray(a.dims, out)


def reduce_along_dim(kind: str, a: NumArray, dim: int) -> NumArray:
    """Sum/prod/mean along dim, collapsing its extent to 1.

    Accumulation is strictly ascending-index (a cumulative scan's last
    element), never pairwise. Reducing past the rank is the identity, since
    the implicit trailing dimension is a singleton.
    """
    if kind not in ("sum", "prod", "mean"):
        raise ArgumentError(f"unknown reduction {kind!r}")
    _check_dim(dim, "reduction", allowed=(1, 2, 3))
    if dim > a.rank:
        return NumArray(a.dims, a.buf.copy())
    ax = dim - 1
    v = a.view()
    n = v.shape[ax]
    if n == 0:  # an empty slice reduces to the identity: sum 0, prod 1, mean NaN
        fill = 0.0 if kind == "sum" else (1.0 if kind == "prod" else np.nan)
        return wrap_ndarray(np.full_like(v.sum(axis=ax, keepdims=True), fill))
    scan = np.cumsum(v, axis=ax) if kind in ("sum", "mean") else np.cumprod(v, axis=ax)
    out = np.take(scan, [-1], axis=ax)
    return wrap_ndarray(out / n if kind == "mean" else out)


def cumsum_along_dim(a: NumArray, dim: int) -> NumArray:
    """Running prefix sums along dim; same shape as the input."""
    _check_dim(dim, "cumsum")
    _check_rank2(a, "cumsum")
    return wrap_ndarray(np.cumsum(a.view(), axis=dim - 1))


def extremum(kind: str, a: NumArray, dim: int):
    """Per-slice min or max with the 1-based index of its first occurrence.

    NaN entries are skipped; a slice of only NaN reports value NaN and
    index 1. Ties resolve to the lowest index.
    """
    if kind not in ("min", "max"):
        raise ArgumentError(f"extremum kind must be 'min' or 'max', got {kind!r}")
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
    return _broadcast_apply(
        lambda va, vb: lifted(va, vb).astype(np.float64), _coerce(a), _coerce(b)
    )
