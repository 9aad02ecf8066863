"""Index expressions and logical-mask indexing, all 1-based.

An IndexExpr is either one selector per dimension (Cartesian selection) or a
single selector applied to the column-major flattening (linear form). A
selector is ALL, a scalar, a stepped range, or an explicit list; scalar
positions may be written relative to the end of the dimension via END, e.g.
``span(END - 1, END)`` for Octave's ``end-1:end``. Linear extraction keeps
the index expression's own shape (a range reads as a row) except the
whole-array selector, which always yields a column.
"""

from __future__ import annotations

import numpy as np

from .core import BoolMask, NumArray, _integral, _number, normalize_dims, wrap_ndarray
from .errors import ArgumentError, IndexBoundsError, ShapeError


class _All:
    def __repr__(self):
        return "ALL"


ALL = _All()


class End:
    """A position written as end-k; resolves against the dimension's extent."""

    __slots__ = ("offset",)

    def __init__(self, offset=0):
        self.offset = _integral(offset, "END offset")

    def __sub__(self, k):
        return End(self.offset + _integral(k, "END offset"))

    def resolve(self, extent: int) -> int:
        return extent - self.offset

    def __repr__(self):
        return "END" if self.offset == 0 else f"END-{self.offset}"


END = End(0)


class Span:
    """Stepped range selector start:step:stop with End-relative endpoints."""

    __slots__ = ("start", "stop", "step")

    def __init__(self, start, stop, step=1):
        step = _integral(step, "span step")
        if step == 0:
            raise ArgumentError("span step must be nonzero")
        for end in (start, stop):
            if not isinstance(end, End) and not float(_number(end, "span endpoint")).is_integer():
                raise ArgumentError(f"span endpoint must be an integer, got {end!r}")
        self.start = start
        self.stop = stop
        self.step = step

    def resolve(self, extent: int) -> list:
        start = self.start.resolve(extent) if isinstance(self.start, End) else int(self.start)
        stop = self.stop.resolve(extent) if isinstance(self.stop, End) else int(self.stop)
        if self.step > 0:
            return list(range(start, stop + 1, self.step))
        return list(range(start, stop - 1, self.step))

    def __repr__(self):
        return f"span({self.start!r}, {self.stop!r}, {self.step})"


def span(start, stop, step=1) -> Span:
    return Span(start, stop, step)


def _resolve_selector(sel, extent: int, what: str) -> np.ndarray:
    """Selector -> 0-based positions; raises naming the first offending index."""
    if sel is ALL:
        return np.arange(extent, dtype=np.intp)
    if isinstance(sel, Span):
        idx = sel.resolve(extent)
    elif isinstance(sel, End):
        idx = [sel.resolve(extent)]
    elif isinstance(sel, (int, np.integer)) and not isinstance(sel, bool):
        idx = [sel]
    elif isinstance(sel, (list, tuple)):
        idx = [s.resolve(extent) if isinstance(s, End) else s for s in sel]
    elif isinstance(sel, NumArray):
        idx = sel.buf
    else:
        raise ArgumentError(f"{what}: unsupported selector {sel!r}")
    try:
        vals = np.asarray(idx, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ArgumentError(f"{what}: unsupported selector {sel!r}") from None
    fractional = vals != np.floor(vals)  # NaN is fractional too
    bad = fractional | (vals < 1) | (vals > extent)
    if bad.any():
        k = int(np.argmax(bad))
        v = float(vals[k])
        if fractional[k]:
            raise ArgumentError(f"{what}: index {v} is not an integer")
        shown = int(v) if v.is_integer() else v
        raise IndexBoundsError(f"{what}: index {shown} out of range 1..{extent}")
    return vals.astype(np.intp) - 1


class IndexExpr:
    """Per-dimension selectors, or one linear selector over the flattening."""

    __slots__ = ("selectors", "linear_sel")

    def __init__(self, selectors=None, linear_sel=None):
        self.selectors = selectors
        self.linear_sel = linear_sel

    @classmethod
    def of(cls, *selectors) -> "IndexExpr":
        if not selectors:
            raise ArgumentError("index expression needs at least one selector")
        return cls(selectors=tuple(selectors))

    @classmethod
    def linear(cls, selector) -> "IndexExpr":
        return cls(linear_sel=selector)

    @property
    def is_linear(self) -> bool:
        return self.selectors is None

    def _linear_positions(self, a: NumArray):
        """Resolve the linear form: (0-based positions, result dims)."""
        sel = self.linear_sel
        pos = _resolve_selector(sel, a.numel, "linear index")
        if sel is ALL:
            dims = (a.numel, 1)  # A(:) is always a column
        elif isinstance(sel, NumArray):
            dims = sel.dims
        elif isinstance(sel, (int, np.integer, End)):
            dims = (1, 1)
        else:
            dims = (1, pos.size)
        return pos, dims

    def _cartesian_positions(self, a: NumArray):
        """Resolve the multi-dim form: per-dim 0-based index vectors."""
        if len(self.selectors) != a.rank:
            raise ShapeError(
                f"index expression has {len(self.selectors)} selectors "
                f"but array rank is {a.rank}"
            )
        return [
            _resolve_selector(sel, extent, f"dimension {t + 1}")
            for t, (sel, extent) in enumerate(zip(self.selectors, a.dims))
        ]


def extract(a: NumArray, ix: IndexExpr) -> NumArray:
    """Select elements: Cartesian product per dimension, or linear positions."""
    if ix.is_linear:
        pos, dims = ix._linear_positions(a)
        return NumArray(dims, a.buf[pos])
    per_dim = ix._cartesian_positions(a)
    out = a.view()[np.ix_(*per_dim)]
    return wrap_ndarray(out)


def _is_vector(a: NumArray) -> bool:
    return a.rank == 2 and (a.rows <= 1 or a.cols <= 1)


def _is_scalar_rhs(rhs) -> bool:
    """True for a scalar rhs, False for a NumArray; anything else is refused."""
    if isinstance(rhs, (int, float, np.floating, np.integer)):
        return True
    if not isinstance(rhs, NumArray):
        raise ArgumentError(
            f"assignment rhs must be a NumArray or a scalar, got {type(rhs).__name__}"
        )
    return False


def assign_indexed(a: NumArray, ix: IndexExpr, rhs) -> NumArray:
    """Replace the selected cells, returning a new array.

    rhs is an array of exactly the selection's shape, or a scalar broadcast
    into every selected cell. A vector indexed linearly past its end grows
    with zero fill (rows stay rows, columns stay columns); matrices never
    auto-grow.
    """
    scalar_rhs = _is_scalar_rhs(rhs)
    if ix.is_linear:
        sel = ix.linear_sel
        if (
            scalar_rhs
            and isinstance(sel, (int, np.integer))
            and not isinstance(sel, bool)
            and _is_vector(a)
            and int(sel) > a.numel
        ):
            k = int(sel)
            grown = np.zeros(k)
            grown[: a.numel] = a.buf
            grown[k - 1] = float(rhs)
            dims = (k, 1) if (a.cols == 1 and a.rows > 1) else (1, k)
            return NumArray(dims, grown)
        pos, dims = ix._linear_positions(a)
        buf = a.buf.copy()
        if scalar_rhs:
            buf[pos] = float(rhs)
        else:
            if rhs.dims != dims:
                raise ShapeError(f"assignment rhs shape {rhs.dims} != selection shape {dims}")
            buf[pos] = rhs.buf
        return NumArray(a.dims, buf)

    per_dim = ix._cartesian_positions(a)
    sel_dims = normalize_dims(tuple(len(p) for p in per_dim))
    out = a.view().copy(order="K")  # keeps the column-major layout: wrap_ndarray copies nothing
    if scalar_rhs:
        out[np.ix_(*per_dim)] = float(rhs)
    else:
        if rhs.dims != sel_dims:
            raise ShapeError(f"assignment rhs shape {rhs.dims} != selection shape {sel_dims}")
        out[np.ix_(*per_dim)] = rhs.view().reshape([len(p) for p in per_dim])
    return wrap_ndarray(out)


def delete_elements(a: NumArray, where) -> NumArray:
    """Drop the addressed elements, keeping the rest in column-major order.

    The result is a row vector, except that deleting from a column vector
    yields a column vector.
    """
    drop = np.zeros(a.numel, dtype=bool)
    if isinstance(where, BoolMask):
        if where.numel != a.numel:
            raise ShapeError(f"mask numel {where.numel} != array numel {a.numel}")
        drop = where.bits
    elif isinstance(where, IndexExpr):
        if where.is_linear:
            pos, _ = where._linear_positions(a)
            drop[pos] = True
        else:
            per_dim = where._cartesian_positions(a)
            sub = np.zeros(a.dims, dtype=bool)
            sub[np.ix_(*per_dim)] = True
            drop = wrap_ndarray(sub).bits
    else:
        raise ArgumentError(f"delete target must be an IndexExpr or BoolMask, got {where!r}")
    kept = a.buf[~drop]
    if a.rank == 2 and a.cols == 1 and a.rows > 1:
        return NumArray((kept.size, 1), kept)
    return NumArray((1, kept.size), kept)


def logical_extract(a: NumArray, mask: BoolMask) -> NumArray:
    """Elements where the mask is true, column-major, as an nx1 column."""
    if mask.numel != a.numel:
        raise ShapeError(f"mask numel {mask.numel} != array numel {a.numel}")
    taken = a.buf[mask.bits]
    return NumArray((taken.size, 1), taken)


def logical_assign(a: NumArray, mask: BoolMask, rhs) -> NumArray:
    """Replace masked cells in column-major order with a scalar or a vector."""
    if mask.numel != a.numel:
        raise ShapeError(f"mask numel {mask.numel} != array numel {a.numel}")
    buf = a.buf.copy()
    if _is_scalar_rhs(rhs):
        buf[mask.bits] = float(rhs)
    else:
        k = mask.count()
        if rhs.numel != k:
            raise ShapeError(f"rhs has {rhs.numel} elements for {k} masked cells")
        buf[mask.bits] = rhs.buf
    return NumArray(a.dims, buf)


def any_true(mask: BoolMask) -> bool:
    """Logical OR over every element; False on empty."""
    return bool(mask.bits.any())


def all_true(mask: BoolMask) -> bool:
    """Logical AND over every element; True on empty (vacuous truth)."""
    return bool(mask.bits.all())


def isnan_mask(a: NumArray) -> BoolMask:
    """True exactly where the element is NaN."""
    return BoolMask(a.dims, np.isnan(a.buf))
