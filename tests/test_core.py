"""Array construction, layout, and rearrangement primitives."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matkit
from matkit import (
    EPS,
    ArgumentError,
    BoolMask,
    IndexBoundsError,
    NumArray,
    ShapeError,
    cat,
    circshift,
    colon_range,
    diff_adjacent,
    eps_short,
    flipud,
    from_rows,
    ind2sub,
    ipermute,
    magic,
    ones,
    permute,
    repelems,
    repmat,
    reshape,
    sort_along_dim,
    sub2ind,
    unique_sorted,
    zeros,
)
from matkit.core import normalize_dims, wrap_ndarray

from helpers import assert_exact

MAGIC4 = [
    [16, 2, 3, 13],
    [5, 11, 10, 8],
    [9, 7, 6, 12],
    [4, 14, 15, 1],
]


# --- construction ---

def test_literal_is_column_major():
    a = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.dims == (3, 3)
    assert a.buf.tolist() == [1, 4, 7, 2, 5, 8, 3, 6, 9]


def test_zeros_and_row_literal():
    assert zeros((2, 2)).buf.tolist() == [0, 0, 0, 0]
    r = from_rows([[10, 20, 30]])
    assert r.dims == (1, 3)
    assert r.buf.tolist() == [10, 20, 30]


def test_ones_and_value_fill():
    from matkit import full
    assert ones((1, 3)).buf.tolist() == [1, 1, 1]
    v = full((2, 2), 6.5)
    assert v.buf.tolist() == [6.5, 6.5, 6.5, 6.5]


# --- the two constructors (property tests) ---

_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def _nd_arrays(draw):
    """Rank 2-5, 0 extents and trailing singletons; C, F, sliced or transposed
    layout; float, int or bool dtype."""
    rank = draw(st.integers(2, 5))
    shape = [draw(st.integers(0, 3)) for _ in range(rank)]
    trailing = draw(st.integers(0, rank - 1))
    shape[rank - trailing:] = [1] * trailing
    dtype = draw(st.sampled_from([np.float64, np.int64, np.bool_]))
    layout = draw(st.sampled_from(["C", "F", "sliced", "transposed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(dims):
        if dtype is np.bool_:
            return rng.integers(0, 2, dims).astype(bool)
        if dtype is np.int64:
            return rng.integers(-2**62, 2**62, dims)
        specials = rng.choice([np.nan, np.inf, -np.inf, -0.0], dims)
        return np.where(rng.random(dims) < 0.2, specials, rng.standard_normal(dims))

    if layout == "C":
        return np.ascontiguousarray(values(shape))
    if layout == "F":
        return np.asfortranarray(values(shape))
    if layout == "sliced":
        return values([2 * d + 1 for d in shape])[tuple(slice(1, None, 2) for _ in shape)]
    perm = list(draw(st.permutations(range(rank))))
    base = values([shape[p] for p in np.argsort(perm)])
    return np.transpose(base, perm)


@_PROPERTY
@given(_nd_arrays())
def test_wrap_ndarray_is_the_column_major_flattening(arr):
    got = wrap_ndarray(arr)
    want = np.ravel(arr, order="F")
    assert got.dims == normalize_dims(arr.shape)
    if arr.dtype == np.bool_:
        assert isinstance(got, BoolMask)
        bits = got.bits
    else:
        assert isinstance(got, NumArray)
        bits, want = got.buf, want.astype(np.float64)
    assert bits.ndim == 1 and bits.dtype == want.dtype
    assert bits.tobytes() == want.tobytes()


def test_wrap_ndarray_rejects_rank_below_2():
    for arr in (np.zeros(3), np.zeros(0), np.array(1.0), np.zeros(2, dtype=bool)):
        with pytest.raises(ShapeError):
            wrap_ndarray(arr)


@_PROPERTY
@given(st.data())
def test_validating_constructors_reject_bad_dims_and_buffers(data):
    dims = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    n = int(np.prod(dims))
    for cls, dtype in ((NumArray, np.float64), (BoolMask, bool)):
        assert cls(dims, np.zeros(n, dtype=dtype)).dims == normalize_dims(dims)
        bad = list(dims)
        bad[data.draw(st.integers(0, len(dims) - 1))] = data.draw(
            st.sampled_from([-1, -3, 0.5, 2.5, 2.0, np.float64(1.0), True, False])
        )
        with pytest.raises(ShapeError):
            cls(bad, np.zeros(n, dtype=dtype))
        size = data.draw(st.integers(0, n + 3).filter(lambda k: k != n))
        with pytest.raises(ShapeError):
            cls(dims, np.zeros(size, dtype=dtype))


def test_only_core_knows_the_column_major_layout():
    # the flattening order is core's decision; other modules go through
    # wrap_ndarray, view() and the (dims, buffer) constructors
    src = Path(matkit.__file__).parent
    layout = re.compile(r"""order\s*=\s*["']F["']""")
    offenders = [
        f"{p.name}:{k}"
        for p in sorted(src.glob("*.py")) if p.name != "core.py"
        for k, line in enumerate(p.read_text().splitlines(), 1) if layout.search(line)
    ]
    assert offenders == []


def test_ragged_literal_rejected():
    with pytest.raises(ShapeError):
        from_rows([[1, 2], [3]])


def test_shape_normalization():
    assert normalize_dims((3, 4, 1)) == (3, 4)
    assert normalize_dims((1, 1, 3)) == (1, 1, 3)
    assert normalize_dims((1, 1, 1)) == (1, 1)
    with pytest.raises(ShapeError):
        normalize_dims((5,))
    with pytest.raises(ShapeError):
        normalize_dims((3, -1))


def test_immutability():
    a = ones((2, 2))
    with pytest.raises(AttributeError):
        a.dims = (4, 1)


# --- colon ranges ---

def test_colon_range_basic():
    assert_exact(colon_range(2, 1, 8), [[2, 3, 4, 5, 6, 7, 8]])


def test_colon_range_empty_and_negative():
    assert colon_range(1, 1, 0).dims == (1, 0)
    assert_exact(colon_range(4, -1, 1), [[4, 3, 2, 1]])
    with pytest.raises(ArgumentError):
        colon_range(1, 0, 5)


def test_colon_range_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for args in ((0, 1, bad), (bad, 1, 5), (0, bad, 5)):
            with pytest.raises(ArgumentError, match="finite"):
                colon_range(*args)


def test_colon_range_bounds_must_be_numbers():
    # "1" was read as 1 through float(), so colon_range("1", 1, 3) gave [1 2 3]
    for args in (("1", 1, 3), (1, "1", 3), (1, 1, "3"), (None, 1, 3), (True, 1, 3),
                 ([1], 1, 3), (1, 1, from_rows([[3]]))):
        with pytest.raises(ArgumentError, match="must be a number"):
            colon_range(*args)
    assert_exact(colon_range(np.int64(1), np.float64(0.5), 2), [[1, 1.5, 2]])


# --- magic squares ---

def test_magic4_matches_reference():
    assert_exact(magic(4), MAGIC4)


def test_magic_line_sums():
    for n in (4, 8, 12):
        m = magic(n).view()
        target = n * (n * n + 1) / 2
        assert np.all(m.sum(axis=0) == target)
        assert np.all(m.sum(axis=1) == target)
        assert np.trace(m) == target
        assert np.trace(m[::-1]) == target


def test_magic_rejects_unsupported_orders():
    for n in (3, 5, 6, 10):
        with pytest.raises(ArgumentError):
            magic(n)


# --- reshape ---

def test_reshape_column_major():
    a = reshape(colon_range(1, 1, 6), (2, 3))
    assert_exact(a, [[1, 3, 5], [2, 4, 6]])


def test_reshape_linear_formula():
    a = reshape(colon_range(1, 1, 16), (4, 4))
    for i in range(1, 5):
        for j in range(1, 5):
            assert a.at(i, j) == i + 4 * (j - 1)


def test_reshape_identity_and_mismatch():
    a = from_rows([[1, 2], [3, 4]])
    assert_exact(reshape(a, a.dims), a.view())
    with pytest.raises(ShapeError):
        reshape(a, (3, 2))


# --- permute / flip ---

def test_permute_transpose():
    assert_exact(permute(from_rows([[1, 2], [3, 4]]), (2, 1)), [[1, 3], [2, 4]])


def test_permute_row_to_depth():
    w = permute(from_rows([[0.299, 0.587, 0.114]]), (1, 3, 2))
    assert w.dims == (1, 1, 3)
    assert w.buf.tolist() == [0.299, 0.587, 0.114]


def test_permute_points_to_pages():
    p = wrap_ndarray(np.arange(12.0).reshape(4, 3))
    q = permute(p, (3, 2, 1))
    assert q.dims == (1, 3, 4)


def test_permute_rejects_bad_order():
    a = ones((2, 3))
    with pytest.raises(ArgumentError):
        permute(a, (1, 1))
    with pytest.raises(ArgumentError):
        permute(a, (2,))


def test_permute_round_trip_randomized():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dims = tuple(rng.integers(1, 5, size=rng.integers(2, 4)))
        if len(dims) > 2 and dims[-1] == 1:
            dims = dims[:-1]
        a = wrap_ndarray(rng.standard_normal(dims if len(dims) > 1 else dims + (1,)))
        k = rng.integers(a.rank, a.rank + 2)
        order = rng.permutation(k) + 1
        b = ipermute(permute(a, order), order)
        assert b.dims == a.dims
        assert np.array_equal(b.buf, a.buf)


def test_permute_subscript_property():
    rng = np.random.default_rng(12)
    for _ in range(40):
        dims = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        a = wrap_ndarray(rng.standard_normal(dims))
        order = tuple(int(o) for o in rng.permutation(3) + 1)
        b = permute(a, order)
        bdims = b.dims + (1,) * (3 - b.rank)
        for _ in range(10):
            sub = tuple(int(rng.integers(1, d + 1)) for d in dims)
            bsub = tuple(sub[o - 1] for o in order)
            k = sub2ind(bdims, bsub)
            assert b.buf[k - 1] == a.at(*sub)


def test_flipud():
    assert_exact(flipud(from_rows([[1], [2], [3]])), [[3], [2], [1]])
    a = magic(4)
    assert_exact(flipud(flipud(a)), a.view())
    with pytest.raises(ShapeError):
        flipud(ones((1, 1, 3)))


# --- linear index conversion ---

def test_subscripts_must_be_integers():
    a = magic(4)
    assert a.at(2.0) == a.at(2) == 5
    for call in (
        lambda: a.at(1.5),
        lambda: a.at(float("nan")),
        lambda: a.at(1.5, 1),
        lambda: a.at(1, float("inf")),
        lambda: sub2ind((4, 4), (1.5, 1)),
        lambda: ind2sub((4, 4), 2.5),
    ):
        with pytest.raises(ArgumentError, match="not an integer"):
            call()


def test_sub2ind_examples():
    assert sub2ind((4, 4), (3, 1)) == 3
    assert sub2ind((4, 4), (1, 2)) == 5
    assert ind2sub((4, 4), 7) == (3, 2)


def test_index_conversion_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(100):
        dims = (int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        k = int(rng.integers(1, np.prod(dims) + 1))
        assert sub2ind(dims, ind2sub(dims, k)) == k


def test_index_conversion_bounds():
    with pytest.raises(IndexBoundsError):
        sub2ind((4, 4), (5, 1))
    with pytest.raises(IndexBoundsError):
        ind2sub((4, 4), 17)


# --- concatenation / replication / shifting ---

def test_cat_examples():
    assert_exact(cat(2, [from_rows([[1], [2]]), from_rows([[3], [4]])]), [[1, 3], [2, 4]])
    assert_exact(cat(1, [from_rows([[1, 2]]), from_rows([[3, 4]])]), [[1, 2], [3, 4]])
    a = from_rows([[1, 2], [3, 4]])
    assert_exact(cat(2, [a, zeros((2, 0))]), a.view())
    with pytest.raises(ShapeError):
        cat(2, [a, ones((3, 1))])


def test_replicate():
    assert_exact(repmat(from_rows([[1, 2]]), 2, 1), [[1, 2], [1, 2]])
    assert_exact(repelems(from_rows([[5, 7]]), [2, 3]), [[5, 5, 7, 7, 7]])
    a = from_rows([[1, 2], [3, 4]])
    assert_exact(repmat(a, 1, 1), a.view())
    with pytest.raises(ArgumentError):
        repelems(from_rows([[5, 7]]), [2, 0])
    with pytest.raises(ArgumentError):
        repmat(a, 0, 1)


def test_circshift():
    a = from_rows([[1, 2, 3]])
    assert_exact(circshift(a, 1, 2), [[3, 1, 2]])
    assert_exact(circshift(a, 0, 1), a.view())
    b = magic(4)
    assert_exact(circshift(b, 4, 1), b.view())


def test_counts_shifts_and_orders_must_be_integers():
    # each call was truncated to an int, or raised numpy's raw TypeError,
    # OverflowError or ValueError
    a = magic(4)
    v = from_rows([[5, 7]])
    for call in (
        lambda: repmat(a, 1.5, 2),
        lambda: repmat(a, 1, 2.5),
        lambda: repmat(a, math.inf, 1),
        lambda: repmat(a, math.nan, 1),
        lambda: circshift(a, 1.5, 1),
        lambda: circshift(a, math.nan, 1),
        lambda: circshift(a, -math.inf, 2),
        lambda: repelems(v, [1.5, 2]),
        lambda: repelems(v, [2, math.nan]),
        lambda: permute(a, (2.9, 1)),
        lambda: permute(a, (math.nan, 1)),
        lambda: ipermute(a, (2.9, 1)),
    ):
        with pytest.raises(ArgumentError, match="not an integer"):
            call()
    # an integral float still counts
    assert_exact(repmat(a, 1.0, 1), a.view())
    assert_exact(circshift(a, 4.0, 1), a.view())
    assert_exact(repelems(v, [2.0, 1.0]), [[5, 5, 7]])
    assert_exact(permute(a, (2.0, 1.0)), a.view().T)
    assert_exact(ipermute(a, (2.0, 1.0)), a.view().T)


def test_counts_and_subscripts_must_be_numbers():
    # "2" was read as 2 through float(), and None leaked a raw TypeError
    a = magic(4)
    for bad in ("2", "x", None, True, [2], from_rows([[2]])):
        for call in (
            lambda: repmat(a, bad, 1),
            lambda: a.at(bad),
            lambda: a.at(1, bad),
            lambda: circshift(a, bad, 1),
            lambda: ind2sub((4, 4), bad),
        ):
            with pytest.raises(ArgumentError, match="must be a number"):
                call()
    assert_exact(repmat(a, np.int64(1), np.float64(1.0)), a.view())
    assert a.at(np.int32(2)) == 5


def test_dims_must_be_integers():
    # a float or bool dim passed the guard, then failed with a raw TypeError
    # (or, for True, silently meant dim 1)
    a = magic(4)
    for call in (
        lambda: circshift(a, 1, 1.0),
        lambda: circshift(a, 1, True),
        lambda: cat(2.0, [a, a]),
        lambda: sort_along_dim(a, 1.0),
        lambda: diff_adjacent(a, 2.0),
    ):
        with pytest.raises(ArgumentError, match="dim must be one of"):
            call()
    assert_exact(circshift(a, 1, np.int64(2)), np.roll(a.view(), 1, axis=1))


# --- sorting / unique / diff ---

def test_sort_examples():
    s, p = sort_along_dim(from_rows([[3, 1, 2]]), 2)
    assert_exact(s, [[1, 2, 3]])
    assert_exact(p, [[2, 3, 1]])
    s, p = sort_along_dim(from_rows([[1, 2, 3]]), 2)
    assert_exact(p, [[1, 2, 3]])


def test_sort_nan_goes_last():
    s, _ = sort_along_dim(from_rows([[2, float("nan"), 1]]), 2)
    assert s.buf[0] == 1 and s.buf[1] == 2 and np.isnan(s.buf[2])


def _reference_sort(values, descending=False):
    # insertion sort with a comparator that orders NaN after everything
    out = []
    for v in values:
        k = 0
        while k < len(out):
            u = out[k]
            if math.isnan(v):
                k += 1
                continue
            if math.isnan(u) or (u > v if not descending else u < v):
                break
            k += 1
        out.insert(k, v)
    return out


def test_sort_matches_reference_comparator():
    rng = np.random.default_rng(14)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
    shapes = [(1, 8), (8, 1), (4, 6), (6, 4), (0, 3), (3, 0), (1, 0), (0, 0)]
    for direction in ("asc", "desc"):
        for dims in shapes:
            for _ in range(25):
                n = dims[0] * dims[1]
                vals = rng.standard_normal(n).round(1)  # rounding makes ties
                pick = rng.random(n) < 0.3
                vals[pick] = rng.choice(specials, int(pick.sum()))
                v = vals.reshape(dims, order="F")
                for dim in (1, 2):
                    s, p = sort_along_dim(NumArray(dims, vals), dim, direction)
                    assert s.dims == p.dims == dims
                    sv, pv = s.view(), (p.view() - 1).astype(int)
                    for k in range(dims[2 - dim]):
                        src = v[:, k] if dim == 1 else v[k, :]
                        got = sv[:, k] if dim == 1 else sv[k, :]
                        order = pv[:, k] if dim == 1 else pv[k, :]
                        want = _reference_sort(src.tolist(), direction == "desc")
                        # bitwise: -0.0 and 0.0 keep their stable order
                        assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
                        # perm really reconstructs the sorted slice from the input
                        assert src[order].tobytes() == got.tobytes()


def test_sort_along_columns():
    s, p = sort_along_dim(from_rows([[3, 1], [2, 5]]), 1)
    assert_exact(s, [[2, 1], [3, 5]])
    assert_exact(p, [[2, 1], [1, 2]])


def test_unique_sorted():
    assert_exact(unique_sorted(from_rows([[3, 1, 3, 2]])), [[1, 2, 3]])
    assert_exact(unique_sorted(from_rows([[5, 5]])), [[5]])
    a = from_rows([[9, 2, 9, 4]])
    assert_exact(unique_sorted(unique_sorted(a)), unique_sorted(a).view())


def test_diff_adjacent():
    assert_exact(diff_adjacent(from_rows([[1, 4, 9, 16]]), 2), [[3, 5, 7]])
    assert_exact(diff_adjacent(from_rows([[7, 7, 7]]), 2), [[0, 0]])


def test_diff_inverts_cumsum_on_integers():
    from matkit import Prng, cumsum_along_dim
    x = Prng(3).randint(-9, 9, (1, 50))
    c = cumsum_along_dim(x, 2)
    assert np.array_equal(diff_adjacent(c, 2).buf, x.buf[1:])


# --- machine epsilon ---

def test_machine_epsilon():
    assert EPS == 2.0 ** -52
    assert eps_short() == "2.2204e-16"
