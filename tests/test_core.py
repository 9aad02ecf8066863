"""Array construction, layout, and rearrangement primitives."""

import ast
import math
import operator
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
    full,
    ind2sub,
    ipermute,
    magic,
    ones,
    permute,
    reduce_along_dim,
    repelems,
    repmat,
    reshape,
    sort_along_dim,
    sub2ind,
    unique_sorted,
    zeros,
)
from matkit import indexing, linalg, ops
from matkit.core import normalize_dims, wrap_ndarray

from helpers import assert_bits, assert_exact, double

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


def test_fill_value_must_be_a_number():
    # "3" silently became 3.0 and an array leaked a raw TypeError
    from matkit import full
    for value in ("3", np.ones(2), None, True, [1.0]):
        with pytest.raises(ArgumentError, match="fill value must be a number"):
            full((2, 2), value)
    assert full((1, 2), np.int32(3)).buf.tolist() == [3, 3]


# --- the two constructors (property tests) ---

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


@settings(max_examples=200)
@given(_nd_arrays())
def test_wrap_ndarray_is_the_column_major_flattening(arr):
    got = wrap_ndarray(arr)
    assert got.dims == normalize_dims(arr.shape)
    if arr.dtype == np.bool_:
        assert isinstance(got, BoolMask)
        bits, kind = got.bits, np.bool_
    else:
        assert isinstance(got, NumArray)
        bits, kind = got.buf, np.float64
    assert bits.ndim == 1 and bits.dtype == kind
    assert_bits(got, arr)  # the nd view of the flat buffer, so its column-major order


def test_assert_exact_tells_zero_signs_apart_and_matches_any_nan():
    # rule L, loop against vectorized: bits, except that NaN sign and payload are free
    nan2 = double(0xFFF8000000000005)
    assert_exact(from_rows([[math.nan, -0.0, 1.5]]), [[nan2, -0.0, 1.5]])
    for got, want in (([[-0.0]], [[0.0]]), ([[0.0]], [[-0.0]]), ([[math.nan]], [[1.0]]), ([[1.0]], [[math.nan]])):
        with pytest.raises(AssertionError):
            assert_exact(from_rows(got), want)
    with pytest.raises(AssertionError, match="bool != float64"):
        assert_exact(from_rows([[1.0, 0.0]]) > 0.5, [[1.0, 0.0]])


def test_assert_bits_tells_nan_payloads_signs_and_zero_signs_apart():
    # rule K, kernel against kernel: raw bits, and a mask never equals numbers
    nan, nan5, neg_nan = double(0x7FF8000000000000), double(0x7FF8000000000005), double(0xFFF8000000000000)
    assert_bits(from_rows([[nan5, neg_nan, -0.0, 1.5]]), [[nan5, neg_nan, -0.0, 1.5]])
    for got, want in (([[nan]], [[nan5]]), ([[nan]], [[neg_nan]]), ([[-0.0]], [[0.0]]), ([[0.0]], [[-0.0]])):
        with pytest.raises(AssertionError, match=r"^1 entries differ; first at \(1, 1\)"):
            assert_bits(from_rows(got), want)
    mask = from_rows([[1.0, 0.0]]) > 0.5
    assert_bits(mask, [[True, False]])
    with pytest.raises(AssertionError, match="bool != float64"):
        assert_bits(mask, [[1.0, 0.0]])


@pytest.mark.parametrize("check", [assert_exact, assert_bits])
def test_both_helpers_take_numarrays_shape_rule_and_name_the_first_difference(check):
    want = np.arange(6.0).reshape(2, 3)
    check(wrap_ndarray(want), want[:, :, None])  # (r, c, 1) is dims (r, c)
    check(want[:, :, None], wrap_ndarray(want))
    with pytest.raises(ShapeError, match="rank must be at least 2"):
        check(wrap_ndarray(want[:1]), want[0])
    with pytest.raises(AssertionError, match=r"shape \(2, 3\) != \(3, 2\)"):
        check(wrap_ndarray(want), want.T)
    # (2, 2) comes first in column-major order, (1, 3) in row-major order
    got = want.copy()
    got[1, 1], got[0, 2] = -4.0, math.nan
    with pytest.raises(AssertionError, match=re.escape(
            "2 entries differ; first at (2, 2): 0xc010000000000000 != 0x4010000000000000 case 7")):
        check(wrap_ndarray(got), want, "case 7")


def test_wrap_ndarray_rejects_rank_below_2():
    for arr in (np.zeros(3), np.zeros(0), np.array(1.0), np.zeros(2, dtype=bool)):
        with pytest.raises(ShapeError):
            wrap_ndarray(arr)


@settings(max_examples=200)
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


def test_no_call_time_imports():
    # core binds ops, linalg and indexing once, at its end; an import inside a
    # function or method would run again on every call
    src = Path(matkit.__file__).parent
    offenders = [
        f"{p.name}:{node.lineno}"
        for p in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node.col_offset > 0
    ]
    assert offenders == []


def test_only_core_pads_trailing_singletons():
    # every dimension past an array's rank is an implicit singleton; the view
    # padded with them is core._view_at_rank, and no other module builds one
    src = Path(matkit.__file__).parent
    padding = re.compile(r"\(1,\)\s*\*")
    offenders = [
        f"{p.name}:{k}"
        for p in sorted(src.glob("*.py")) if p.name != "core.py"
        for k, line in enumerate(p.read_text().splitlines(), 1) if padding.search(line)
    ]
    assert offenders == []


def test_only_core_decides_the_argument_rules():
    # "is this a number?" and "numpy cannot allocate this" are core's
    # decisions; other modules go through _is_int/_is_number/_number/_integral
    # and _allocated
    src = Path(matkit.__file__).parent
    rule = re.compile(
        r"isinstance\([^)]*np\.(integer|floating)|except\s*\(\s*ValueError\s*,\s*MemoryError"
    )
    offenders = [
        f"{p.name}:{p.read_text().count(chr(10), 0, m.start()) + 1}"
        for p in sorted(src.glob("*.py")) if p.name != "core.py"
        for m in rule.finditer(p.read_text())
    ]
    assert offenders == []


def test_ragged_literal_rejected():
    with pytest.raises(ShapeError):
        from_rows([[1, 2], [3]])


def test_literal_elements_are_numbers():
    # the elements bypassed the number rule: 10**400 leaked a raw
    # OverflowError, "x" and a nested list a raw ValueError, True was stored
    # as 1 and None as NaN
    for rows in ([[10**400]], [["x"]], [[1, [2]]], [[True, 2]], [[1, None]], [1, "2"]):
        with pytest.raises(ArgumentError, match="literal element"):
            from_rows(rows)
    with pytest.raises(ShapeError, match="row 2 is not a list of 2 elements"):
        from_rows([[1, 2], 3])
    assert_exact(from_rows([[np.int64(1), np.float64(2.5)], [-0.0, math.inf]]),
                 [[1, 2.5], [-0.0, math.inf]])


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


def test_both_classes_name_themselves_in_repr_and_immutability():
    a = from_rows([[1.5, -0.0, math.nan], [1 / 3, math.inf, 3.0]])
    assert repr(a) == "NumArray(2x3)\n[[ 1.5     -0.           nan]\n [ 0.33333      inf  3.     ]]"
    assert repr(a > 0) == "BoolMask(2x3)\n[[ True False False]\n [ True  True  True]]"
    assert repr(zeros((2, 0))) == "NumArray(2x0)\n[]"
    assert repr(zeros((1, 1, 2)) > 0) == "BoolMask(1x1x2)\n[[[False False]]]"
    for value in (a, a > 0):
        for attr in ("dims", value._FLAT, "other"):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                setattr(value, attr, None)


def test_each_operator_is_its_kernel_call():
    a = from_rows([[1.5, -0.0, math.nan], [-2.0, math.inf, 3.0]])
    b = from_rows([[0.5, -3.0, 2.0]])
    c = from_rows([[1.0, 2.0], [0.0, -1.0], [4.0, 0.5]])
    pairs = []  # (operator's result, kernel's result)
    for sym, op in (("+", operator.add), ("-", operator.sub), ("*", operator.mul),
                    ("/", operator.truediv), ("^", operator.pow)):
        for x, y in ((a, b), (b, a), (a, 2)):
            pairs.append((op(x, y), ops.ew_binary(sym, x, y)))
        if sym != "^":  # NumArray has no __rpow__
            pairs.append((op(2, a), ops.ew_binary(sym, 2, a)))
    pairs.append((-a, ops.ew_unary("neg", a)))
    pairs.append((a @ c, linalg.matmul(a, c)))
    pairs.append((a[4], indexing.extract(a, indexing.IndexExpr.linear(4))))
    pairs.append((a[2, 3], indexing.extract(a, indexing.IndexExpr.of(2, 3))))
    for sym, op in (("<", operator.lt), ("<=", operator.le), (">", operator.gt),
                    (">=", operator.ge), ("==", operator.eq), ("!=", operator.ne)):
        for x, y in ((a, b), (b, a), (a, 2)):
            pairs.append((op(x, y), ops.compare(sym, x, y)))
    # against a non-number, == and != fall back to Python's identity answer
    for other in ("x", None, [1.0]):
        assert (a == other) is False and (a != other) is True
    m, n = a > 0, b < 1
    pairs += [(m | n, ops.mask_or(m, n)), (m & n, ops.mask_and(m, n)), (~m, ops.mask_not(m))]
    for k, (got, want) in enumerate(pairs):
        assert type(got) is type(want), k
        assert_bits(got, want, k)


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


def test_numbers_beyond_the_largest_double_are_refused():
    # float(10**400) raised a raw OverflowError inside colon_range and span
    from matkit import span
    for call in (lambda: colon_range(10**400, 1, 5), lambda: colon_range(1, -10**400, 5),
                 lambda: span(10**400, 3), lambda: span(1, -10**400)):
        with pytest.raises(ArgumentError, match="beyond the largest double"):
            call()
    big = 2**1023  # a double holds it exactly
    assert colon_range(big, 1, big).to_list() == [float(big)]


def test_colon_range_refuses_counts_it_cannot_allocate():
    # a raw numpy ValueError ("Maximum allowed size exceeded") and a raw
    # OverflowError from math.floor(inf); no allocation is attempted
    for args, match in (((1, 1e-300, 2), "1e\\+300 elements"),
                        ((0, 1, 2**62), "elements, too many"),
                        ((-1e308, 1e-300, 1e308), "no finite element count")):
        with pytest.raises(ArgumentError, match=match) as err:
            colon_range(*args)
        assert "range " in str(err.value)


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


def test_magic_order_is_an_integer_not_a_bool():
    # an integral float order was refused, unlike repmat's integral counts
    assert_exact(magic(4.0), MAGIC4)
    assert_exact(magic(np.float64(8.0)), magic(8).view())
    for bad, match in ((True, "must be a number"), (4.5, "not an integer"),
                       ("4", "must be a number"), (None, "must be a number")):
        with pytest.raises(ArgumentError, match=match):
            magic(bad)


def test_magic_refuses_orders_it_cannot_allocate():
    # a raw numpy ValueError leaked; numpy refuses 2**70 before allocating
    with pytest.raises(ArgumentError, match="too large"):
        magic(2**70)


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


def test_ipermute_names_the_order_it_was_given():
    # a repeated entry left a 0 in the inverse, and the error named that inverse
    for order in ((1, 1), (2, 2, 1), (0, 1), (3, 1)):
        with pytest.raises(ArgumentError, match=re.escape(f"order {order} is not a permutation")):
            ipermute(magic(4), order)


def test_rank_above_numpys_limit_is_refused():
    # such an array was built, and then its first view raised numpy's raw
    # "maximum supported dimension" ValueError; permute and ipermute raised it
    # for an order that long
    limit = matkit.core._MAX_RANK
    for dims in ((1,) * (limit + 5) + (2,), (0,) * (limit + 1)):
        with pytest.raises(ShapeError, match="rank limit"):
            zeros(dims)
        with pytest.raises(ShapeError, match="rank limit"):
            NumArray(dims, np.zeros(math.prod(dims)))
    for f in (permute, ipermute):
        with pytest.raises(ArgumentError, match="rank limit"):
            f(magic(4), tuple(range(1, limit + 6)))
    # the limit itself works, and so do trailing singletons past it, which trim
    a = zeros((1,) * (limit - 1) + (2,))
    assert (a + 1).numel == 2 and a.rank == limit
    assert permute(magic(4), tuple(range(1, limit + 1))).dims == (4, 4)
    assert zeros((3, 4) + (1,) * (limit + 5)).dims == (3, 4)


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
        assert_bits(b, a)


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


def test_cat_keeps_the_class_along_both_dims():
    a = from_rows([[1, -0.0], [3, 4]])
    b = from_rows([[5, 6], [7, 8]])
    for dim in (1, 2):
        got = cat(dim, [a, b])
        assert type(got) is NumArray
        assert_bits(got, np.concatenate([a.view(), b.view()], axis=dim - 1))
        got = cat(dim, [a > 2, b > 6])
        assert type(got) is BoolMask
        assert_bits(got, np.concatenate([a.view() > 2, b.view() > 6], axis=dim - 1))
        assert type(cat(dim, [a, b > 6])) is NumArray
    x, y = magic(4).T, magic(4)
    x3, y3 = reshape(x, (2, 4, 2)), reshape(y, (2, 4, 2))
    for dim in (1, 2):
        assert_bits(cat(dim, [x3, y3]), np.concatenate([x3.view(), y3.view()], axis=dim - 1))


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


def test_constructions_refuse_sizes_they_cannot_allocate():
    # numpy's refusal leaked as a raw ValueError (OverflowError for a count
    # beyond a C long); every size here is at least 2**62 elements of 8 bytes,
    # which numpy refuses before it allocates anything
    m = magic(4)
    for call in (lambda: zeros((2**62, 4)), lambda: ones((4, 2**62)),
                 lambda: full((2**62, 2**62), 1.0), lambda: zeros((10**400, 4)),
                 lambda: repmat(m, 2**62, 1), lambda: repmat(m, 1, 2**64),
                 lambda: repelems(from_rows([[1, 2]]), [2**62, 1])):
        with pytest.raises(ArgumentError, match="too large to allocate"):
            call()


def test_an_empty_array_refuses_extents_numpy_cannot_index():
    # an extent beyond np.intp passed when another extent was 0, and the
    # first view of the empty array leaked numpy's raw ValueError
    for call in (lambda: zeros((10**400, 0)) + 1,
                 lambda: reduce_along_dim("sum", zeros((2**64, 0)), 1),
                 lambda: zeros((2**62, 2**62, 0)),
                 lambda: reshape(zeros((0, 3)), (2**63, 0))):
        with pytest.raises(ArgumentError, match="too large to allocate"):
            call()
    assert zeros((2**62, 0)).dims == (2**62, 0)


def test_comparing_with_an_int_no_double_holds_is_not_elementwise():
    # m == 10**400 leaked a raw OverflowError; such an int is not a number,
    # so == and != fall back to identity, as for any other non-number
    m = magic(4)
    assert (m == 10**400) is False and (m != 10**400) is True
    assert (m == "16") is False


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
                    want = np.empty(dims)
                    for k in range(dims[2 - dim]):
                        at = np.s_[:, k] if dim == 1 else np.s_[k, :]
                        want[at] = _reference_sort(v[at].tolist(), direction == "desc")
                    # bitwise: -0.0 and 0.0 keep their stable order
                    assert_bits(s, want, f"{direction} {dims} dim {dim}")
                    # perm really reconstructs each sorted slice from the input
                    order = (p.view() - 1).astype(int)
                    assert_bits(np.take_along_axis(v, order, axis=dim - 1), s)


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


def test_diff_gives_ieee_results_without_warnings():
    # overflow and inf - inf raised under the suite's error::RuntimeWarning filter
    inf = math.inf
    assert_exact(diff_adjacent(from_rows([[-1e308, 1e308, inf, inf]]), 2), [[inf, inf, math.nan]])


def test_diff_inverts_cumsum_on_integers():
    from matkit import Prng, cumsum_along_dim
    x = Prng(3).randint(-9, 9, (1, 50))
    c = cumsum_along_dim(x, 2)
    assert np.array_equal(diff_adjacent(c, 2).buf, x.buf[1:])


# --- machine epsilon ---

def test_machine_epsilon():
    assert EPS == 2.0 ** -52
    assert eps_short() == "2.2204e-16"
