"""Index expressions, all 1-based; a logical mask is one more selector.

Every index expression denotes a list of linear positions in column-major
order, as in Octave, where ``A(i, j)`` is ``A(sub2ind(size(A), i, j))``. It
is written either as one selector per dimension (Cartesian selection, which
lists the positions of the product of the per-dimension selections down the
columns first) or as a single selector applied to the column-major
flattening (linear form). A selector is ALL, a scalar, a stepped range, an
explicit list, or a BoolMask with one bit per position (``A(A < 8)`` is
``A(find(A < 8))``); scalar positions may be written relative to the end of
the dimension via END, e.g. ``span(END - 1, END)`` for Octave's
``end-1:end``. Extraction, assignment and deletion all act on those
positions in the flat buffer. A Cartesian expression with one selector per
dimension, each ALL, an in-range int or END-k, or a nonempty span inside its
extent (``A(i, :)``, ``A(:, 2:2:end)``, ``A(j0:j1, :)``), selects a box
that numpy basic slices of the array's view address: extraction, assignment
and deletion act through those slices and build no position array. Every
other expression, and every error, goes through the positions. Either way an
extraction is a copy that shares no memory with the array, and an
assignment returns a new array. Linear extraction keeps the index
expression's own shape (a range reads as a row) except ALL and a mask, which
always yield a column. Assignment takes a scalar rhs, or in the linear form
one element per selected cell (Octave's ``A(I) = B``), in the Cartesian form
an array of exactly the selection's shape.
"""

from __future__ import annotations

import numpy as np

from .core import (
    BoolMask, NumArray, _allocated, _integral, _is_int, _linear_positions, _number, _shaped,
    _trim, wrap_ndarray,
)
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

    def _ends(self, extent: int) -> tuple:
        """start and stop as ints, END-relative ones resolved against extent."""
        start, stop = self.start, self.stop
        return (start.resolve(extent) if isinstance(start, End) else int(start),
                stop.resolve(extent) if isinstance(stop, End) else int(stop))

    def resolve(self, extent: int) -> list:
        """The positions in order, up to and including the first outside
        1..extent: the bounds check names that one, and no list longer than
        the extent plus one is built."""
        start, stop = self._ends(extent)
        if self.step > 0:
            whole = range(start, stop + 1, self.step)
            inside = range(start, min(stop, extent) + 1, self.step)
        else:
            whole = range(start, stop - 1, self.step)
            inside = range(start, max(stop, 1) - 1, self.step)
        return list(whole[: (len(inside) if 1 <= start <= extent else 0) + 1])

    def __repr__(self):
        return f"span({self.start!r}, {self.stop!r}, {self.step})"


def span(start, stop, step=1) -> Span:
    return Span(start, stop, step)


def _mask_bits(mask: BoolMask, extent: int, what: str) -> np.ndarray:
    """The one size check of a mask selector: its numel must be the extent."""
    if mask.numel != extent:
        raise ShapeError(f"{what}: mask has {mask.numel} elements for extent {extent}")
    return mask.bits


def _resolve_selector(sel, extent: int, what: str) -> np.ndarray:
    """Selector -> 0-based positions; raises naming the first offending index."""
    if _is_int(sel) and 1 <= sel <= extent:  # the common case, with no vector checks
        return np.array((sel - 1,), dtype=np.intp)
    if sel is ALL:
        return np.arange(extent, dtype=np.intp)
    if isinstance(sel, BoolMask):
        return np.flatnonzero(_mask_bits(sel, extent, what))
    if isinstance(sel, Span):
        idx = sel.resolve(extent)
    elif isinstance(sel, End):
        idx = [sel.resolve(extent)]
    elif _is_int(sel):
        idx = [_number(sel, f"{what}: unsupported selector")]
    elif isinstance(sel, (list, tuple)):
        entry = f"{what}: unsupported selector entry"
        idx = [s.resolve(extent) if isinstance(s, End) else _number(s, entry) for s in sel]
    elif isinstance(sel, NumArray):
        idx = sel.buf
        with np.errstate(invalid="ignore"):  # NaN and inf cast to some int, refused below
            pos = idx.astype(np.intp)
        # one cast and three reductions when every entry is an in-range integer;
        # otherwise the entry-by-entry checks below name the first bad index
        if pos.size and (pos == idx).all() and pos.min() >= 1 and pos.max() <= extent:
            pos -= 1
            return pos
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
        if _is_int(idx[k]):  # named as given: float64 rounds an int beyond 2**53
            shown = int(idx[k])
        else:
            shown = int(v) if v.is_integer() else v
        raise IndexBoundsError(f"{what}: index {shown} out of range 1..{extent}")
    return vals.astype(np.intp) - 1


def _basic_slice(sel, extent: int):
    """A selector as a numpy basic slice over 0..extent-1, when it is ALL, an
    in-range int or END-k, or a nonempty span inside 1..extent; else None."""
    if sel is ALL:
        return slice(None)
    if isinstance(sel, End):
        sel = sel.resolve(extent)
    if _is_int(sel):
        return slice(sel - 1, sel) if 1 <= sel <= extent else None
    if not isinstance(sel, Span):
        return None
    start, stop = sel._ends(extent)
    step = sel.step
    whole = range(start, stop + (1 if step > 0 else -1), step)
    last = whole[-1] if whole else 0
    if not 1 <= min(start, last) <= max(start, last) <= extent:
        return None
    end = last - 1 + step  # one step past the last position, 0-based
    return slice(start - 1, end if end >= 0 else None, step)  # a negative end would wrap


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

    def _positions(self, a: NumArray):
        """Resolve against a: (0-based linear positions, result dims).

        The positions are listed in the selection's column-major order, so
        in the Cartesian form A(i, j) is A(sub2ind(size(A), i, j)).
        """
        if self.is_linear:
            sel = self.linear_sel
            pos = _resolve_selector(sel, a.numel, "linear index")
            if sel is ALL or isinstance(sel, BoolMask):
                dims = (pos.size, 1)  # A(:) and A(mask) are always columns
            elif isinstance(sel, NumArray):
                dims = sel.dims
            elif _is_int(sel) or isinstance(sel, End):
                dims = (1, 1)
            else:
                dims = (1, pos.size)
            return pos, dims
        if len(self.selectors) != a.rank:
            raise ShapeError(
                f"index expression has {len(self.selectors)} selectors "
                f"but array rank is {a.rank}"
            )
        per_dim = [
            _resolve_selector(sel, extent, f"dimension {t + 1}")
            for t, (sel, extent) in enumerate(zip(self.selectors, a.dims))
        ]
        return _linear_positions(a.dims, per_dim), _trim(tuple(p.size for p in per_dim))

    def _slices(self, a: NumArray):
        """The Cartesian selection as basic slices of a.view(), one per
        dimension, or None: for the linear form, a wrong rank or any selector
        _basic_slice does not take, which _positions resolves (or refuses)."""
        if self.is_linear or len(self.selectors) != a.rank:
            return None
        slices = tuple(map(_basic_slice, self.selectors, a.dims))
        return None if None in slices else slices


def extract(a: NumArray, ix: IndexExpr) -> NumArray:
    """The elements at the selected positions, shaped as the selection."""
    slices = ix._slices(a)
    if slices is not None:  # a copy in the view's own layout, which wrap_ndarray keeps
        return wrap_ndarray(a.view()[slices].copy(order="K"))
    pos, dims = ix._positions(a)
    return wrap_ndarray(_shaped(a.buf[pos], dims))  # dims are normalized already


def _vector_dims(a: NumArray, n: int) -> tuple:
    """An n-element vector made from a: a column stays a column, anything else a row."""
    return (n, 1) if (a.rank == 2 and a.cols == 1 and a.rows > 1) else (1, n)


def _is_scalar_rhs(rhs) -> bool:
    """True for a scalar rhs, False for a NumArray; anything else is refused."""
    if isinstance(rhs, NumArray):
        return False
    _number(rhs, "assignment rhs must be a NumArray or a scalar, and a scalar")
    return True


def assign_indexed(a: NumArray, ix: IndexExpr, rhs) -> NumArray:
    """Replace the selected cells, returning a new array.

    rhs is a scalar broadcast into every selected cell, or an array: in the
    linear form it holds one element per selected cell, taken in column-major
    order; in the Cartesian form it has exactly the selection's shape. A
    vector indexed linearly past its end grows with zero fill (rows stay
    rows, columns stay columns); matrices never auto-grow.
    """
    scalar_rhs = _is_scalar_rhs(rhs)
    sel = ix.linear_sel
    if scalar_rhs and _is_int(sel) and a.rank == 2 and min(a.dims) <= 1 and sel > a.numel:
        k = int(sel)
        grown = _allocated(f"a vector grown to {k} elements", np.zeros, k)
        grown[: a.numel] = a.buf
        grown[k - 1] = float(rhs)
        return NumArray(_vector_dims(a, k), grown)
    slices = ix._slices(a)
    if slices is not None:
        shape = a.view()[slices].shape
        if scalar_rhs or rhs.dims == _trim(shape):  # else the body below names the mismatch
            buf = a.buf.copy()
            _shaped(buf, a.dims)[slices] = float(rhs) if scalar_rhs else _shaped(rhs.buf, shape)
            return NumArray(a.dims, buf)
    pos, sel_dims = ix._positions(a)
    if not scalar_rhs:
        if ix.is_linear and rhs.numel != pos.size:
            raise ShapeError(f"assignment rhs has {rhs.numel} elements for {pos.size} cells")
        if not ix.is_linear and rhs.dims != sel_dims:
            raise ShapeError(f"assignment rhs shape {rhs.dims} != selection shape {sel_dims}")
    buf = a.buf.copy()
    buf[pos] = float(rhs) if scalar_rhs else rhs.buf
    return NumArray(a.dims, buf)


def delete_elements(a: NumArray, where) -> NumArray:
    """Drop the addressed elements, keeping the rest in column-major order.

    where is an IndexExpr or a BoolMask (the linear selector A(mask)). The
    result is a row vector, except that deleting from a column vector yields
    a column vector.
    """
    if isinstance(where, BoolMask):
        where = IndexExpr.linear(where)
    elif not isinstance(where, IndexExpr):
        raise ArgumentError(f"delete target must be an IndexExpr or BoolMask, got {where!r}")
    sel = where.linear_sel
    if isinstance(sel, BoolMask):  # the mask's bits are the drop set; no positions built
        drop = _mask_bits(sel, a.numel, "linear index")
    else:
        drop = np.zeros(a.numel, dtype=bool)
        slices = where._slices(a)
        if slices is None:
            drop[where._positions(a)[0]] = True
        else:
            _shaped(drop, a.dims)[slices] = True
    kept = a.buf[~drop]
    return NumArray(_vector_dims(a, kept.size), kept)


def logical_extract(a: NumArray, mask: BoolMask) -> NumArray:
    """A(mask): the elements where the mask is true, column-major, as a column."""
    return extract(a, IndexExpr.linear(mask))


def logical_assign(a: NumArray, mask: BoolMask, rhs) -> NumArray:
    """A(mask) = rhs: a scalar, or one element per true bit in column-major order."""
    return assign_indexed(a, IndexExpr.linear(mask), rhs)


def any_true(mask: BoolMask) -> bool:
    """Logical OR over every element; False on empty."""
    return bool(mask.bits.any())


def all_true(mask: BoolMask) -> bool:
    """Logical AND over every element; True on empty (vacuous truth)."""
    return bool(mask.bits.all())


def isnan_mask(a: NumArray) -> BoolMask:
    """True exactly where the element is NaN."""
    return BoolMask(a.dims, np.isnan(a.buf))
