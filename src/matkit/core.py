"""Column-major dense arrays and their shape/rearrangement primitives.

Every numeric value in this package is a NumArray: an explicit shape of rank
at least 2 plus a flat float64 buffer laid out down the columns first
(Fortran order). A scalar is 1x1, a row vector 1xn, a column vector nx1.
Indices in the public API are 1-based throughout; the linear position of
element (i1, ..., ik) is

    i1 + sum_{t >= 2} (i_t - 1) * prod_{s < t} dims[s]

Arrays are immutable values: every operation returns a new array, so sharing
across threads is safe and nothing here locks.

NumArray and BoolMask share one immutable base, _Value, which holds the
validating constructor, the immutability guard, shape and repr. Their
operators reach ops, linalg and indexing through one module binding at the
end of this file.

Values are built through two entry points, and only this module knows the
column-major layout:

- NumArray(dims, buf) and BoolMask(dims, bits) take a caller-supplied
  (dims, flat buffer) pair. Nothing ties the two together, so both validate
  the extents and check the buffer size, in _Value's one body.
- wrap_ndarray(arr) adopts an nd numpy result. numpy's own shape cannot
  disagree with its buffer, so it is trusted: the dims are trimmed and the
  buffer is flattened down the columns, with no further checks. A bool
  result comes back as a BoolMask, anything else as a NumArray.
"""

from __future__ import annotations

import math
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
    out = _extents(dims)
    if len(out) < 2:
        raise ShapeError(f"rank must be at least 2, got dims {out!r}")
    out = _trim(_indexable(out))
    if len(out) > _MAX_RANK:
        raise ShapeError(f"rank {len(out)} exceeds numpy's rank limit {_MAX_RANK}")
    return out


def _indexable(dims: tuple) -> tuple:
    """dims itself, if numpy can index the shape: the product of its nonzero
    extents fits an intp (numpy refuses such a shape even when empty)."""
    if math.prod(filter(None, dims)) > _INTP_MAX:
        raise ArgumentError(f"an array of dims {dims} is too large to allocate")
    return dims


def _extents(dims) -> tuple:
    """The one extent rule: each extent a non-negative int (_is_int), as ints."""
    out = []
    for d in dims:
        if not _is_int(d) or d < 0:
            raise ShapeError(f"dimension extents must be non-negative integers, got {d!r}")
        out.append(int(d))
    return tuple(out)


def _trim(shape: tuple) -> tuple:
    """Drop trailing singleton extents beyond rank 2: (3, 4, 1) -> (3, 4)."""
    while len(shape) > 2 and shape[-1] == 1:
        shape = shape[:-1]
    return shape


def broadcast_shapes(a_dims, b_dims) -> tuple:
    """Result dims of combining two shapes under the singleton-expansion rule:
    an extent-1 dimension repeats its slice."""
    return normalize_dims(_paired(a_dims, b_dims))


def _broadcast_dims(a_dims: tuple, b_dims: tuple) -> tuple:
    """broadcast_shapes of two normalized dims, which it trusts: their
    pairing has int extents, a rank in 2..numpy's limit and no trailing
    singleton to trim, so only the pairing and the size can fail."""
    return _indexable(_paired(a_dims, b_dims))


def _paired(a_dims, b_dims) -> tuple:
    """The extents of two shapes paired by the singleton-expansion rule."""
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
    return tuple(out)


def _check_rank2(a, who: str):
    """The one rank guard: a (NumArray or BoolMask) must be a matrix."""
    if len(a.dims) != 2:
        raise ShapeError(f"{who} needs a rank-2 array, got {a.dims}")


def _check_vector(a, who: str):
    """The one vector guard: a must be 1 x n or n x 1."""
    if len(a.dims) != 2 or 1 not in a.dims:
        raise ShapeError(f"{who} needs a vector, got {a.dims}")


def _check_square(a, who: str):
    """The one square guard: a must be an n x n matrix."""
    if len(a.dims) != 2 or a.dims[0] != a.dims[1]:
        raise ShapeError(f"{who} needs a square matrix, got {a.dims}")


def _check_dim(dim, who: str, allowed=(1, 2)):
    """The one dim guard: dim must be an integer among the allowed dimensions."""
    if not _is_int(dim) or dim not in allowed:
        raise ArgumentError(f"{who} dim must be one of {allowed}, got {dim!r}")


def _is_int(x) -> bool:
    """The one integer test: a Python or numpy int, never a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


# The largest extent, and product of nonzero extents, numpy can index.
_INTP_MAX = int(np.iinfo(np.intp).max)

# The most dimensions a numpy array can have: 64 since numpy 2.0, 32 before.
_MAX_RANK = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32

# The smallest int that float() rounds past the largest double.
_INT_PAST_DOUBLE = 2**1024 - 2**970


def _is_number(x) -> bool:
    """The one number test: an _is_int or a Python or numpy float, never a
    bool, that a double can hold."""
    if isinstance(x, (float, np.floating)):
        return True
    return _is_int(x) and -_INT_PAST_DOUBLE < x < _INT_PAST_DOUBLE


def _number(x, what: str):
    """The one scalar type rule: x itself if _is_number(x); a bool, string,
    None, list or array is refused, and so is an int beyond the largest
    double."""
    if not _is_number(x):
        if _is_int(x):
            raise ArgumentError(f"{what} is an int beyond the largest double")
        raise ArgumentError(f"{what} must be a number, got {type(x).__name__}")
    return x


def _integral(k, what: str) -> int:
    """A subscript, count, order or seed as an int: a _number that is not a
    fractional, NaN or inf float."""
    if not (_is_int(_number(k, what)) or float(k).is_integer()):
        raise ArgumentError(f"{what} {k!r} is not an integer")
    return int(k)


def _positive(k, what: str) -> int:
    """A count, order or extent as an int: an _integral that is at least 1."""
    k = _integral(k, what)
    if k < 1:
        raise ArgumentError(f"{what} must be positive, got {k}")
    return k


def _choice(name, names, what: str):
    """The one name rule: name must be a str among names (so an unhashable
    name is refused too, not a raw TypeError)."""
    if not isinstance(name, str) or name not in names:
        raise ArgumentError(f"unknown {what} {name!r}, expected one of {tuple(names)}")
    return name


def _allocated(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), the one allocation refusal: numpy's refusal of a
    size (ValueError, or OverflowError for a count beyond a C long) or the
    allocator's (MemoryError) becomes an ArgumentError naming what was being
    built."""
    try:
        return make(*args, **kwargs)
    except (ValueError, MemoryError, OverflowError):
        raise ArgumentError(f"{what} is too large to allocate") from None


def _init_checked(obj, dims, flat):
    """The validating body of NumArray(dims, buf) and BoolMask(dims, bits)."""
    dims = normalize_dims(dims)
    flat = np.asarray(flat, dtype=type(obj)._DTYPE).ravel()
    if flat.size != math.prod(dims):
        raise ShapeError(
            f"buffer has {flat.size} elements but shape {dims} needs {math.prod(dims)}"
        )
    object.__setattr__(obj, "dims", dims)  # below the immutability of _Value.__setattr__
    object.__setattr__(obj, type(obj)._FLAT, flat)


class _Value:
    """The one immutable base of NumArray and BoolMask: a dims tuple plus a
    flat buffer in the slot a subclass names in _FLAT, of dtype _DTYPE."""

    __slots__ = ("dims",)

    def __init__(self, dims, flat):
        _init_checked(self, dims, flat)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def shape(self) -> tuple:
        return self.dims

    def __repr__(self):
        dims = "x".join(str(d) for d in self.dims)
        preview = np.array2string(self.view(), threshold=20, precision=5)
        return f"{type(self).__name__}({dims})\n{preview}"


class NumArray(_Value):
    """Immutable column-major array of float64."""

    __slots__ = ("buf",)
    _FLAT, _DTYPE = "buf", np.float64
    # named in the class's own namespace, where `perfbench --trace` wraps it
    __init__ = _Value.__init__

    # -- basic queries ----------------------------------------------------

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
        dims = (self.numel,) if len(subs) == 1 else self.dims  # linear: one subscript
        return float(self.buf[sub2ind(dims, subs) - 1])

    def item(self) -> float:
        if self.numel != 1:
            raise ShapeError(f"item() needs a 1x1 array, got {self.dims}")
        return float(self.buf[0])

    @property
    def T(self) -> "NumArray":
        return permute(self, (2, 1))

    def __bool__(self):
        raise TypeError("NumArray has no truth value; compare explicitly to get a mask")

    def __iter__(self):
        # without this, the 1-based __getitem__ would make iteration silently empty
        raise TypeError("NumArray is not iterable; use to_list() or view()")

    # -- operator sugar (elementwise, Octave-style broadcasting) ----------

    def __add__(self, other):
        return ops.ew_binary("+", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return ops.ew_binary("-", self, other)

    def __rsub__(self, other):
        return ops.ew_binary("-", other, self)

    def __mul__(self, other):
        return ops.ew_binary("*", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ops.ew_binary("/", self, other)

    def __rtruediv__(self, other):
        return ops.ew_binary("/", other, self)

    def __pow__(self, other):
        return ops.ew_binary("^", self, other)

    def __neg__(self):
        return ops.ew_unary("neg", self)

    def __matmul__(self, other):
        return linalg.matmul(self, other)

    def __lt__(self, other):
        return ops.compare("<", self, other)

    def __le__(self, other):
        return ops.compare("<=", self, other)

    def __gt__(self, other):
        return ops.compare(">", self, other)

    def __ge__(self, other):
        return ops.compare(">=", self, other)

    def __eq__(self, other):
        if not (isinstance(other, NumArray) or _is_number(other)):
            return NotImplemented
        return ops.compare("==", self, other)

    def __ne__(self, other):
        if not (isinstance(other, NumArray) or _is_number(other)):
            return NotImplemented
        return ops.compare("!=", self, other)

    __hash__ = None

    def __getitem__(self, key):
        """1-based extraction sugar: A[sel] is linear, A[s1, s2, ...] per-dim."""
        if isinstance(key, tuple):
            return indexing.extract(self, indexing.IndexExpr.of(*key))
        return indexing.extract(self, indexing.IndexExpr.linear(key))


class BoolMask(_Value):
    """Shape-matched boolean array produced by comparisons; column-major bits."""

    __slots__ = ("bits",)
    _FLAT, _DTYPE = "bits", np.bool_

    @property
    def numel(self) -> int:
        return self.bits.size

    def view(self) -> np.ndarray:
        return self.bits.reshape(self.dims, order="F")

    def count(self) -> int:
        return int(self.bits.sum())

    def __or__(self, other):
        return ops.mask_or(self, other)

    def __and__(self, other):
        return ops.mask_and(self, other)

    def __invert__(self):
        return ops.mask_not(self)

    def __bool__(self):
        raise TypeError("BoolMask has no single truth value; use any_true/all_true")


# The slot descriptors' setters, bound once: wrap_ndarray fills a new value's
# slots through them, below the immutability of _Value.__setattr__, without
# object.__setattr__'s lookup of the slot by name on every call.
_set_dims, _set_buf, _set_bits = _Value.dims.__set__, NumArray.buf.__set__, BoolMask.bits.__set__


def wrap_ndarray(arr: np.ndarray):
    """The trusted constructor, without __init__'s checks: an nd numpy result of
    rank >= 2 as a float64 NumArray, or as a BoolMask when it is bool.

    It runs on every kernel result, so it sets the two slots through the
    descriptors' bound setters (_set_dims and _set_buf or _set_bits), and a
    rank-2 shape, which has no trailing singleton to drop, skips _trim.
    """
    dims = arr.shape
    if len(dims) != 2:
        if len(dims) < 2:
            raise ShapeError("internal: wrap_ndarray needs rank >= 2")
        dims = _trim(dims)
    if arr.dtype.kind == "b":  # bool
        out = object.__new__(BoolMask)
        _set_bits(out, arr.ravel("F"))  # order by position: no keyword parsing
    else:
        out = object.__new__(NumArray)
        _set_buf(out, np.asarray(arr.ravel("F"), dtype=np.float64))
    _set_dims(out, dims)
    return out


def _view_at_rank(a, rank: int) -> np.ndarray:
    """a's nd view (NumArray or BoolMask) with trailing singleton axes up to
    rank >= a's own: every dimension past an array's rank is a singleton."""
    return getattr(a, a._FLAT).reshape(a.dims + (1,) * (rank - len(a.dims)), order="F")


def _shaped(flat: np.ndarray, dims: tuple) -> np.ndarray:
    """A flat buffer as an nd view of dims, read down the columns first."""
    return flat.reshape(dims, order="F")


# -- construction ---------------------------------------------------------

def zeros(dims) -> NumArray:
    return full(dims, 0.0)


def ones(dims) -> NumArray:
    return full(dims, 1.0)


def full(dims, value) -> NumArray:
    dims = normalize_dims(dims)
    value = float(_number(value, "fill value"))
    return NumArray(dims, _allocated(f"a {dims} array", np.full, math.prod(dims), value))


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
    for i, r in enumerate(rows, 1):
        if not isinstance(r, (list, tuple)) or len(r) != ncols:
            raise ShapeError(f"ragged literal: row {i} is not a list of {ncols} elements")
    flat = [_number(x, "literal element") for r in rows for x in r]
    return wrap_ndarray(np.array(flat, dtype=np.float64).reshape(len(rows), ncols))


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
    if not math.isfinite(q):
        raise ArgumentError(f"range {start}:{step}:{stop} has no finite element count")
    if q < 0:
        n = 0
    else:
        n = int(math.floor(q + 4 * EPS * max(1.0, abs(q)))) + 1
    what = f"range {start}:{step}:{stop} ({q:.3g} elements, too many)"
    ramp = _allocated(what, np.arange, n, dtype=np.float64)
    return NumArray((1, n), start + step * ramp)


def magic(n: int) -> NumArray:
    """Magic square of doubly-even order n (n divisible by 4).

    Fill 1..n^2 row-major, then replace v by n^2+1-v on the main- and
    anti-diagonal cells of each aligned 4x4 sub-block. Every row, column,
    and main diagonal then sums to n(n^2+1)/2.
    """
    n = _positive(n, "magic order")
    if n % 4 != 0:
        raise ArgumentError(f"unsupported magic order {n}: only doubly-even (n % 4 == 0)")
    i, j = _allocated(f"magic order {n}", np.indices, (n, n))
    m = (i * n + j + 1).astype(np.float64)
    flip = (i % 4 == j % 4) | ((i % 4) + (j % 4) == 3)
    m[flip] = n * n + 1 - m[flip]
    return wrap_ndarray(m)


# -- shape rearrangement ---------------------------------------------------

def reshape(a: NumArray, dims) -> NumArray:
    """Same buffer, new shape: a column-major reinterpretation, never a copy."""
    dims = normalize_dims(dims)
    if math.prod(dims) != a.numel:
        raise ShapeError(f"cannot reshape {a.dims} ({a.numel} elements) to {dims}")
    return NumArray(dims, a.buf)


def _permutation(a: NumArray, order) -> tuple:
    """order as 1-based ints, checked to permute 1..k for some k >= a's rank."""
    order = tuple(_integral(o, "permute order entry") for o in order)
    k = len(order)
    if k < a.rank or sorted(order) != list(range(1, k + 1)):
        raise ArgumentError(f"order {order} is not a permutation of 1..rank for {a.dims}")
    if k > _MAX_RANK:
        raise ArgumentError(f"permute order of length {k} exceeds numpy's rank limit {_MAX_RANK}")
    return order


def permute(a: NumArray, order) -> NumArray:
    """Reorder dimensions: result dim t is a's dim order[t] (1-based).

    The rank is extended with trailing singletons when order references
    dimensions beyond a's rank, so permute of a 1x3 row by (1, 3, 2) is the
    1x1x3 depth vector.
    """
    order = _permutation(a, order)
    return wrap_ndarray(np.transpose(_view_at_rank(a, len(order)), axes=[o - 1 for o in order]))


def ipermute(a: NumArray, order) -> NumArray:
    """Inverse of permute with the same order: ipermute(permute(A, p), p) == A."""
    order = _permutation(a, order)
    return wrap_ndarray(np.transpose(_view_at_rank(a, len(order)), axes=np.argsort(order)))


def flipud(a: NumArray) -> NumArray:
    """Reverse the row order; same as indexing rows with m:-1:1."""
    _check_rank2(a, "flipud")
    return wrap_ndarray(a.view()[::-1, :])


def sub2ind(dims, subs) -> int:
    """Column-major 1-based subscripts -> linear index."""
    dims = _extents(dims)
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


def _linear_positions(dims, per_dim) -> np.ndarray:
    """The vectorized sub2ind, 0-based: per-dimension position vectors -> the
    linear positions of their Cartesian product, listed in column-major order."""
    pos, stride = per_dim[0], dims[0]
    for p, extent in zip(per_dim[1:], dims[1:]):
        # the grid grows last dimension first, so its row-major order is the
        # selection's column-major order and ravel() copies nothing
        pos = np.add.outer(p * stride, pos)
        stride *= extent
    return pos.ravel()


def ind2sub(dims, k: int) -> tuple:
    """Column-major 1-based linear index -> subscripts."""
    dims = _extents(dims)
    k = _integral(k, "linear index")
    if not 1 <= k <= math.prod(dims):
        raise IndexBoundsError(f"linear index {k} out of range 1..{math.prod(dims)}")
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
    # the transposed views joined row-major are the result in column-major order,
    # so wrap_ndarray copies nothing
    return wrap_ndarray(np.concatenate([v.T for v in views], axis=len(base) - 1 - axis).T)


def repmat(a: NumArray, reps_rows: int, reps_cols: int) -> NumArray:
    """Tile the whole array reps_rows x reps_cols times."""
    reps_rows, reps_cols = (_positive(r, "repmat count") for r in (reps_rows, reps_cols))
    _check_rank2(a, "repmat")
    what = f"repmat of {a.dims} by {reps_rows}x{reps_cols}"
    return wrap_ndarray(_allocated(what, np.tile, a.view(), (reps_rows, reps_cols)))


def repelems(a: NumArray, counts) -> NumArray:
    """Repeat each element of a vector in sequence: ([5 7], [2 3]) -> [5 5 7 7 7]."""
    _check_vector(a, "repelems")
    counts = [_positive(c, "repelems count") for c in counts]
    if len(counts) != a.numel:
        raise ArgumentError(f"need one count per element: {a.numel} elements, {len(counts)} counts")
    out = _allocated(f"repelems to {sum(counts)} elements", np.repeat, a.buf, counts)
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
    _choice(direction, ("asc", "desc"), "sort direction")
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
    with np.errstate(all="ignore"):  # inf - inf is NaN and overflow is inf, as IEEE-754 says
        return wrap_ndarray(np.diff(a.view(), axis=dim - 1))


# The operator methods reach their kernels through these modules, bound once
# here. Each of them imports core's names, so this must come after every name.
from . import indexing, linalg, ops  # noqa: E402
