"""Column-major dense arrays and their shape/rearrangement primitives.

Every numeric value in this package is a NumArray: an explicit shape of rank
at least 2 plus a flat float64 buffer laid out down the columns first
(Fortran order). A scalar is 1x1, a row vector 1xn, a column vector nx1.
Indices in the public API are 1-based throughout; the linear position of
element (i1, ..., ik) is

    i1 + sum_{t >= 2} (i_t - 1) * prod_{s < t} dims[s]

Arrays are immutable values: every operation returns a new array, so sharing
across threads is safe and nothing here locks.

Values are built through two entry points, and only this module knows the
column-major layout:

- NumArray(dims, buf) and BoolMask(dims, bits) take a caller-supplied
  (dims, flat buffer) pair. Nothing ties the two together, so both validate
  the extents and check the buffer size, in one shared body.
- wrap_ndarray(arr) adopts an nd numpy result. numpy's own shape cannot
  disagree with its buffer, so it is trusted: the dims are trimmed and the
  buffer is flattened down the columns, with no further checks. A bool
  result comes back as a BoolMask, anything else as a NumArray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import ArgumentError, BroadcastError, IndexBoundsError, ShapeError

# Machine epsilon for IEEE-754 double: the gap between 1 and the next double.
EPS = 2.0 ** -52


def eps_short() -> str:
    """Five-significant-digit rendering of machine epsilon, '2.2204e-16'."""
    return "%.4e" % EPS


def normalize_dims(dims) -> tuple:
    """Validate and canonicalize a dims tuple.

    Rank must be >= 2; trailing singleton dimensions beyond rank 2 are
    trimmed, so (3, 4, 1) and (3, 4) are the same shape while (1, 1, 3)
    keeps its rank.
    """
    out = []
    for d in dims:
        if not isinstance(d, (int, np.integer)) or isinstance(d, bool) or d < 0:
            raise ShapeError(f"dimension extents must be non-negative integers, got {d!r}")
        out.append(int(d))
    if len(out) < 2:
        raise ShapeError(f"rank must be at least 2, got dims {tuple(dims)!r}")
    return _trim(tuple(out))


def _trim(shape: tuple) -> tuple:
    """Drop trailing singleton extents beyond rank 2: (3, 4, 1) -> (3, 4)."""
    while len(shape) > 2 and shape[-1] == 1:
        shape = shape[:-1]
    return shape


@dataclass(frozen=True)
class BroadcastPlan:
    """Result shape of a broadcast; extent-1 dimensions repeat their slice."""

    result_dims: tuple


def broadcast_shapes(a_dims, b_dims) -> BroadcastPlan:
    """Combine two shapes under the singleton-expansion rule."""
    out = []
    for t, (da, db) in enumerate(zip_longest(a_dims, b_dims, fillvalue=1)):
        if da == db:
            out.append(da)
        elif da == 1:
            out.append(db)
        elif db == 1:
            out.append(da)
        else:
            raise BroadcastError(
                f"dimension {t + 1}: extents {da} and {db} are incompatible"
            )
    return BroadcastPlan(result_dims=normalize_dims(out))


def _check_rank2(a, who: str):
    """The one rank guard: a (NumArray or BoolMask) must be a matrix."""
    if len(a.dims) != 2:
        raise ShapeError(f"{who} needs a rank-2 array, got {a.dims}")


def _check_dim(dim, who: str, allowed=(1, 2)):
    """The one dim guard: dim must be an integer among the allowed dimensions."""
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim not in allowed:
        raise ArgumentError(f"{who} dim must be one of {allowed}, got {dim!r}")


def _number(x, what: str):
    """The one scalar type rule: x itself if it is an int or float (Python or
    numpy); a bool, string, None, list or array is refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ArgumentError(f"{what} must be a number, got {type(x).__name__}")
    return x


def _integral(k, what: str) -> int:
    """A subscript, count or shift as an int: a _number that is not a
    fractional, NaN or inf float."""
    if isinstance(_number(k, what), (float, np.floating)) and not float(k).is_integer():
        raise ArgumentError(f"{what} {k!r} is not an integer")
    return int(k)


def numel_of(dims) -> int:
    n = 1
    for d in dims:
        n *= d
    return n


def _set_slots(obj, dims: tuple, flat: np.ndarray):
    """Fill an immutable value's two slots: its dims and its flat buffer."""
    object.__setattr__(obj, "dims", dims)
    object.__setattr__(obj, type(obj)._FLAT, flat)


def _init_checked(obj, dims, flat):
    """The validating body of NumArray(dims, buf) and BoolMask(dims, bits)."""
    dims = normalize_dims(dims)
    flat = np.asarray(flat, dtype=type(obj)._DTYPE).ravel()
    if flat.size != numel_of(dims):
        raise ShapeError(
            f"buffer has {flat.size} elements but shape {dims} needs {numel_of(dims)}"
        )
    _set_slots(obj, dims, flat)


class NumArray:
    """Immutable column-major array of float64."""

    __slots__ = ("dims", "buf")
    _FLAT, _DTYPE = "buf", np.float64

    def __init__(self, dims, buf):
        _init_checked(self, dims, buf)

    def __setattr__(self, name, value):
        raise AttributeError("NumArray is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.dims

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def numel(self) -> int:
        return self.buf.size

    @property
    def rows(self) -> int:
        return self.dims[0]

    @property
    def cols(self) -> int:
        return self.dims[1]

    def view(self) -> np.ndarray:
        """The buffer reinterpreted as an nd view in column-major order."""
        return self.buf.reshape(self.dims, order="F")

    def to_list(self) -> list:
        """Buffer as a plain Python list, column-major element order."""
        return self.buf.tolist()

    def at(self, *subs) -> float:
        """Scalar element access, 1-based: at(k) linear or at(i, j, ...)."""
        if len(subs) == 1:
            k = _integral(subs[0], "linear index")
            if not 1 <= k <= self.numel:
                raise IndexBoundsError(f"linear index {k} out of range 1..{self.numel}")
            return float(self.buf[k - 1])
        return float(self.buf[sub2ind(self.dims, subs) - 1])

    def item(self) -> float:
        if self.numel != 1:
            raise ShapeError(f"item() needs a 1x1 array, got {self.dims}")
        return float(self.buf[0])

    @property
    def T(self) -> "NumArray":
        return permute(self, (2, 1))

    def __repr__(self):
        dims = "x".join(str(d) for d in self.dims)
        preview = np.array2string(self.view(), threshold=20, precision=5)
        return f"NumArray({dims})\n{preview}"

    def __bool__(self):
        raise TypeError("NumArray has no truth value; compare explicitly to get a mask")

    def __iter__(self):
        # without this, the 1-based __getitem__ would make iteration silently empty
        raise TypeError("NumArray is not iterable; use to_list() or view()")

    # -- operator sugar (elementwise, Octave-style broadcasting) ----------

    def __add__(self, other):
        from . import ops
        return ops.ew_binary("+", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops
        return ops.ew_binary("-", self, other)

    def __rsub__(self, other):
        from . import ops
        return ops.ew_binary("-", other, self)

    def __mul__(self, other):
        from . import ops
        return ops.ew_binary("*", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import ops
        return ops.ew_binary("/", self, other)

    def __rtruediv__(self, other):
        from . import ops
        return ops.ew_binary("/", other, self)

    def __pow__(self, other):
        from . import ops
        return ops.ew_binary("^", self, other)

    def __neg__(self):
        from . import ops
        return ops.ew_unary("neg", self)

    def __matmul__(self, other):
        from . import linalg
        return linalg.matmul(self, other)

    def __lt__(self, other):
        from . import ops
        return ops.compare("<", self, other)

    def __le__(self, other):
        from . import ops
        return ops.compare("<=", self, other)

    def __gt__(self, other):
        from . import ops
        return ops.compare(">", self, other)

    def __ge__(self, other):
        from . import ops
        return ops.compare(">=", self, other)

    def __eq__(self, other):
        from . import ops
        if not isinstance(other, (NumArray, int, float, np.floating, np.integer)):
            return NotImplemented
        return ops.compare("==", self, other)

    def __ne__(self, other):
        from . import ops
        if not isinstance(other, (NumArray, int, float, np.floating, np.integer)):
            return NotImplemented
        return ops.compare("!=", self, other)

    __hash__ = None

    def __getitem__(self, key):
        """1-based extraction sugar: A[sel] is linear, A[s1, s2, ...] per-dim."""
        from . import indexing
        if isinstance(key, tuple):
            return indexing.extract(self, indexing.IndexExpr.of(*key))
        return indexing.extract(self, indexing.IndexExpr.linear(key))


class BoolMask:
    """Shape-matched boolean array produced by comparisons; column-major bits."""

    __slots__ = ("dims", "bits")
    _FLAT, _DTYPE = "bits", np.bool_

    def __init__(self, dims, bits):
        _init_checked(self, dims, bits)

    def __setattr__(self, name, value):
        raise AttributeError("BoolMask is immutable")

    @property
    def shape(self) -> tuple:
        return self.dims

    @property
    def numel(self) -> int:
        return self.bits.size

    def view(self) -> np.ndarray:
        return self.bits.reshape(self.dims, order="F")

    def count(self) -> int:
        return int(self.bits.sum())

    def __or__(self, other):
        from . import ops
        return ops.mask_or(self, other)

    def __and__(self, other):
        from . import ops
        return ops.mask_and(self, other)

    def __invert__(self):
        from . import ops
        return ops.mask_not(self)

    def __bool__(self):
        raise TypeError("BoolMask has no single truth value; use any_true/all_true")

    def __repr__(self):
        dims = "x".join(str(d) for d in self.dims)
        return f"BoolMask({dims})\n{np.array2string(self.view(), threshold=20)}"


def wrap_ndarray(arr: np.ndarray):
    """The trusted constructor, without __init__'s checks: an nd numpy result of
    rank >= 2 as a float64 NumArray, or as a BoolMask when it is bool."""
    if arr.ndim < 2:
        raise ShapeError("internal: wrap_ndarray needs rank >= 2")
    out = object.__new__(BoolMask if arr.dtype == np.bool_ else NumArray)
    _set_slots(out, _trim(arr.shape), np.asarray(arr.ravel(order="F"), dtype=out._DTYPE))
    return out


# -- construction ---------------------------------------------------------

def zeros(dims) -> NumArray:
    return full(dims, 0.0)


def ones(dims) -> NumArray:
    return full(dims, 1.0)


def full(dims, value) -> NumArray:
    dims = normalize_dims(dims)
    return NumArray(dims, np.full(numel_of(dims), float(value)))


def from_rows(rows) -> NumArray:
    """Build a matrix from a row-major literal, like [1 2 3; 4 5 6].

    Accepts a list of equal-length rows, or a flat list of numbers as a
    single row. Element (i, j) of the literal lands at (i, j) of the array.
    """
    if not isinstance(rows, (list, tuple)) or len(rows) == 0:
        raise ShapeError("literal must be a non-empty list")
    if not isinstance(rows[0], (list, tuple)):
        rows = [rows]
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ShapeError(f"ragged literal: row lengths {[len(r) for r in rows]}")
    arr = np.array(rows, dtype=np.float64).reshape(len(rows), ncols)
    return wrap_ndarray(arr)


def colon_range(start, step, stop) -> NumArray:
    """Range row vector start:step:stop; empty 1x0 when direction is inconsistent."""
    start, step, stop = (
        float(_number(x, f"range {what}"))
        for x, what in ((start, "start"), (step, "step"), (stop, "stop"))
    )
    if step == 0:
        raise ArgumentError("range step must be nonzero")
    if not all(math.isfinite(x) for x in (start, step, stop)):
        raise ArgumentError(f"range {start}:{step}:{stop} needs finite start, step and stop")
    q = (stop - start) / step
    if q < 0:
        n = 0
    else:
        n = int(math.floor(q + 4 * EPS * max(1.0, abs(q)))) + 1
    return NumArray((1, n), start + step * np.arange(n, dtype=np.float64))


def magic(n: int) -> NumArray:
    """Magic square of doubly-even order n (n divisible by 4).

    Fill 1..n^2 row-major, then replace v by n^2+1-v on the main- and
    anti-diagonal cells of each aligned 4x4 sub-block. Every row, column,
    and main diagonal then sums to n(n^2+1)/2.
    """
    if not isinstance(n, (int, np.integer)) or n <= 0:
        raise ArgumentError(f"magic order must be a positive integer, got {n!r}")
    if n % 4 != 0:
        raise ArgumentError(f"unsupported magic order {n}: only doubly-even (n % 4 == 0)")
    i, j = np.mgrid[0:n, 0:n]
    m = (i * n + j + 1).astype(np.float64)
    flip = (i % 4 == j % 4) | ((i % 4) + (j % 4) == 3)
    m[flip] = n * n + 1 - m[flip]
    return wrap_ndarray(m)


# -- shape rearrangement ---------------------------------------------------

def reshape(a: NumArray, dims) -> NumArray:
    """Same buffer, new shape: a column-major reinterpretation, never a copy."""
    dims = normalize_dims(dims)
    if numel_of(dims) != a.numel:
        raise ShapeError(f"cannot reshape {a.dims} ({a.numel} elements) to {dims}")
    return NumArray(dims, a.buf)


def permute(a: NumArray, order) -> NumArray:
    """Reorder dimensions: result dim t is a's dim order[t] (1-based).

    The rank is extended with trailing singletons when order references
    dimensions beyond a's rank, so permute of a 1x3 row by (1, 3, 2) is the
    1x1x3 depth vector.
    """
    order = tuple(_integral(o, "permute order entry") for o in order)
    k = len(order)
    if k < a.rank or sorted(order) != list(range(1, k + 1)):
        raise ArgumentError(f"order {order} is not a permutation of 1..rank for {a.dims}")
    v = a.buf.reshape(a.dims + (1,) * (k - a.rank), order="F")
    return wrap_ndarray(np.transpose(v, axes=[o - 1 for o in order]))


def ipermute(a: NumArray, order) -> NumArray:
    """Inverse of permute with the same order: ipermute(permute(A, p), p) == A."""
    order = tuple(_integral(o, "permute order entry") for o in order)
    inverse = [0] * len(order)
    for pos, o in enumerate(order):
        if not 1 <= o <= len(order):
            raise ArgumentError(f"order {order} is not a permutation")
        inverse[o - 1] = pos + 1
    return permute(a, inverse)


def flipud(a: NumArray) -> NumArray:
    """Reverse the row order; same as indexing rows with m:-1:1."""
    _check_rank2(a, "flipud")
    return wrap_ndarray(a.view()[::-1, :])


def sub2ind(dims, subs) -> int:
    """Column-major 1-based subscripts -> linear index."""
    dims = tuple(dims)
    if len(subs) != len(dims):
        raise ArgumentError(f"expected {len(dims)} subscripts for shape {dims}, got {len(subs)}")
    k = 0
    stride = 1
    for sub, extent in zip(subs, dims):
        sub = _integral(sub, "subscript")
        if not 1 <= sub <= extent:
            raise IndexBoundsError(f"subscript {sub} out of range 1..{extent}")
        k += (sub - 1) * stride
        stride *= extent
    return k + 1


def ind2sub(dims, k: int) -> tuple:
    """Column-major 1-based linear index -> subscripts."""
    dims = tuple(dims)
    k = _integral(k, "linear index")
    if not 1 <= k <= numel_of(dims):
        raise IndexBoundsError(f"linear index {k} out of range 1..{numel_of(dims)}")
    rem = k - 1
    subs = []
    for extent in dims:
        subs.append(rem % extent + 1)
        rem //= extent
    return tuple(subs)


def cat(dim: int, arrays) -> NumArray:
    """Concatenate along dim (1 = stack rows, 2 = glue columns)."""
    _check_dim(dim, "cat")
    arrays = list(arrays)
    if not arrays:
        raise ArgumentError("cat needs at least one array")
    axis = dim - 1
    views = [a.view() for a in arrays]
    base = views[0].shape
    for v in views[1:]:
        if len(v.shape) != len(base):
            raise ShapeError(f"cat rank mismatch: {base} vs {v.shape}")
        for ax, (d0, d1) in enumerate(zip(base, v.shape)):
            if ax != axis and d0 != d1:
                raise ShapeError(f"cat along dim {dim}: extents differ on dim {ax + 1}")
    return wrap_ndarray(np.concatenate(views, axis=axis))


def repmat(a: NumArray, reps_rows: int, reps_cols: int) -> NumArray:
    """Tile the whole array reps_rows x reps_cols times."""
    reps_rows, reps_cols = (_integral(r, "repmat count") for r in (reps_rows, reps_cols))
    if reps_rows <= 0 or reps_cols <= 0:
        raise ArgumentError("repmat counts must be positive")
    _check_rank2(a, "repmat")
    return wrap_ndarray(np.tile(a.view(), (reps_rows, reps_cols)))


def repelems(a: NumArray, counts) -> NumArray:
    """Repeat each element of a vector in sequence: ([5 7], [2 3]) -> [5 5 7 7 7]."""
    if not (a.rank == 2 and (a.rows == 1 or a.cols == 1)):
        raise ShapeError(f"repelems needs a vector, got {a.dims}")
    counts = [_integral(c, "repelems count") for c in counts]
    if len(counts) != a.numel:
        raise ArgumentError(f"need one count per element: {a.numel} elements, {len(counts)} counts")
    if any(c <= 0 for c in counts):
        raise ArgumentError("repelems counts must be positive")
    out = np.repeat(a.buf, counts)
    return NumArray((1, out.size), out)


def circshift(a: NumArray, k: int, dim: int) -> NumArray:
    """Circularly shift elements by k along dim; shifting by the extent is identity."""
    _check_dim(dim, "circshift")
    _check_rank2(a, "circshift")
    return wrap_ndarray(np.roll(a.view(), _integral(k, "circshift shift"), axis=dim - 1))


def sort_along_dim(a: NumArray, dim: int, direction: str = "asc"):
    """Sort each slice along dim; NaN goes last either direction.

    Returns (sorted, perm) where perm holds the 1-based source positions, so
    taking a's elements at perm reconstructs sorted. Stable, hence ties and
    already-sorted input give the identity permutation.
    """
    _check_dim(dim, "sort")
    if direction not in ("asc", "desc"):
        raise ArgumentError(f"direction must be 'asc' or 'desc', got {direction!r}")
    _check_rank2(a, "sort")
    v = a.view()
    key = -v if direction == "desc" else v
    # Stable order with NaN always last; lexsort's last key is primary.
    p = np.lexsort((key, np.isnan(v)), axis=dim - 1)
    return wrap_ndarray(np.take_along_axis(v, p, dim - 1)), wrap_ndarray(p + 1.0)


def unique_sorted(a: NumArray) -> NumArray:
    """Distinct values as an ascending row vector."""
    u = np.unique(a.buf)
    return NumArray((1, u.size), u)


def diff_adjacent(a: NumArray, dim: int) -> NumArray:
    """Moving difference along dim: each element becomes successor - element."""
    _check_dim(dim, "diff")
    _check_rank2(a, "diff")
    if a.dims[dim - 1] < 1:
        raise ArgumentError("diff needs extent >= 1 along dim")
    return wrap_ndarray(np.diff(a.view(), axis=dim - 1))
