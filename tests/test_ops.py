"""Broadcasting rules, elementwise ops, reductions, extrema, and merge."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matkit import (
    EPS,
    ArgumentError,
    BoolMask,
    BroadcastError,
    NumArray,
    Prng,
    apply_broadcast,
    broadcast_shapes,
    compare,
    cumsum_along_dim,
    ew_binary,
    ew_unary,
    extremum,
    from_rows,
    isnan_mask,
    magic,
    mask_and,
    mask_not,
    mask_or,
    merge,
    permute,
    reduce_along_dim,
    repmat,
    zeros,
)
from matkit import ops
from matkit.core import normalize_dims, wrap_ndarray

from helpers import assert_bits, assert_exact, double, max_abs_diff


# --- broadcast planning ---

def test_broadcast_shapes_examples():
    assert broadcast_shapes((3, 3), (1, 3)) == (3, 3)
    assert broadcast_shapes((7, 4), (1, 4, 5)) == (7, 4, 5)
    with pytest.raises(BroadcastError, match="dimension 1"):
        broadcast_shapes((2, 3), (3, 2))


# --- elementwise arithmetic ---

def test_broadcast_addition_table():
    x = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    y = from_rows([[10, 20, 30]])
    assert_exact(x + y, [[11, 22, 33], [14, 25, 36], [17, 28, 39]])


def test_binary_fraction_caveat():
    lhs = ew_binary("+", 0.1, 0.2).item()
    assert lhs != 0.3
    # the sum lands one spacing above 0.3: nonzero, but BELOW the eps at 1.0
    assert abs(lhs - 0.3) == 2.0 ** -54
    assert 0.0 < abs(lhs - 0.3) < EPS


def test_division_caveat():
    a, b, c = 0.7777777777777, 7.0, 0.1111111111111
    assert ew_binary("/", a, b).item() != c


def test_ieee_specials():
    assert np.isnan(ew_binary("/", 0.0, 0.0).item())
    assert ew_binary("/", 1.0, 0.0).item() == np.inf
    assert np.isnan(ew_binary("+", float("nan"), 1.0).item())


# --- comparisons ---

def test_compare_reference_mask():
    m = magic(4)
    want = [[0, 1, 1, 0], [1, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
    assert (m < 8).view().astype(int).tolist() == want


def test_compare_nan_rules():
    m = magic(4)
    assert ((m == m).count()) == 16
    nan = from_rows([[float("nan")]])
    assert (nan == nan).count() == 0
    assert (nan != nan).count() == 1
    assert (nan < nan).count() == 0


# --- unary ---

def test_unary_ops():
    assert_exact(ew_unary("abs", from_rows([[-1, 2]])), [[1, 2]])
    assert_exact(ew_unary("sqrt", from_rows([[4, 9]])), [[2, 3]])
    theta = np.pi / 4
    assert abs(ew_unary("cos", from_rows([[theta]])).item() - 0.70711) < 1e-5
    assert abs(ew_unary("sin", from_rows([[theta]])).item() - 0.70711) < 1e-5
    assert np.isnan(ew_unary("sqrt", from_rows([[-1.0]])).item())


def test_unary_takes_its_operand_as_ew_binary_does():
    # a number, a mask, a list and a str each leaked AttributeError ('buf')
    assert_exact(ew_unary("neg", 3.0), [[-3.0]])
    assert_exact(ew_unary("sqrt", 4), [[2.0]])
    m = magic(4)
    for bad, match in ((m > 2, "got BoolMask"), ([1, 2], "got list"), ("2", "got str"),
                       (None, "got NoneType"), (True, "got bool"),
                       (10**400, "beyond the largest double")):
        with pytest.raises(ArgumentError, match=match):
            ew_unary("abs", bad)


# --- reductions ---

def test_reduce_examples():
    a = from_rows([[1, 2], [3, 4]])
    assert_exact(reduce_along_dim("sum", a, 2), [[3], [7]])
    assert_exact(reduce_along_dim("mean", from_rows([[1, 3], [5, 7]]), 2), [[2], [6]])
    assert_exact(reduce_along_dim("prod", a, 1), [[3, 8]])


def test_reduce_channel_sum_collapses_rank():
    img = wrap_ndarray(np.arange(24.0).reshape(2, 4, 3))
    w = permute(from_rows([[0.299, 0.587, 0.114]]), (1, 3, 2))
    out = reduce_along_dim("sum", img * w, 3)
    assert out.dims == (2, 4)


def test_sum_is_sequential_left_to_right():
    x = Prng(17).uniform((1, 20000))
    acc = 0.0
    for v in x.to_list():
        acc += v
    assert reduce_along_dim("sum", x, 2).item() == acc


def test_reduce_past_rank_is_identity():
    a = from_rows([[1, 2], [3, 4]])
    assert_exact(reduce_along_dim("sum", a, 3), a.view())


def test_reduction_dims_must_be_integers():
    # a float dim passed the guard, then failed with a raw TypeError (or,
    # past the rank, silently returned the input)
    a = magic(4)
    for call in (
        lambda: reduce_along_dim("sum", a, 1.0),
        lambda: reduce_along_dim("mean", a, 3.0),
        lambda: reduce_along_dim("prod", a, False),
        lambda: cumsum_along_dim(a, 2.0),
        lambda: extremum("max", a, 1.0),
    ):
        with pytest.raises(ArgumentError, match="dim must be one of"):
            call()


def test_cumsum():
    assert_exact(cumsum_along_dim(from_rows([[1, 2, 3]]), 2), [[1, 3, 6]])
    x = from_rows([[2, 5, 1]])
    assert cumsum_along_dim(x, 2).buf[-1] == reduce_along_dim("sum", x, 2).item()
    assert_exact(cumsum_along_dim(zeros((2, 3)), 1), np.zeros((2, 3)))


def test_reductions_give_ieee_results_without_warnings():
    # these raised under the suite's error::RuntimeWarning filter: numpy
    # warned on inf - inf and on overflow instead of quietly giving NaN / inf
    inf = math.inf
    assert_exact(reduce_along_dim("sum", from_rows([[inf, -inf]]), 2), [[math.nan]])
    assert_exact(reduce_along_dim("sum", from_rows([[1e308, 1e308]]), 2), [[inf]])
    assert_exact(reduce_along_dim("mean", from_rows([[1e308], [1e308]]), 1), [[inf]])
    assert_exact(reduce_along_dim("prod", from_rows([[1e200, 1e200]]), 2), [[inf]])
    assert_exact(cumsum_along_dim(from_rows([[1e308, 1e308, -inf]]), 2), [[1e308, inf, math.nan]])


def test_operator_names_must_be_known_strings():
    # an unhashable name leaked a raw TypeError from the table lookup
    a = magic(4)
    for call in (
        lambda: ew_binary(["+"], a, 1),
        lambda: compare({}, a, 1),
        lambda: ew_unary(["abs"], a),
        lambda: ew_binary(np.array(["+"]), a, 1),
    ):
        with pytest.raises(ArgumentError, match="unknown"):
            call()


# --- extrema ---

def test_extremum_examples():
    v, i = extremum("min", from_rows([[3, 1], [2, 5]]), 2)
    assert_exact(v, [[1], [2]])
    assert_exact(i, [[2], [1]])


def test_extremum_tie_takes_first():
    v, i = extremum("min", from_rows([[1, 1]]), 2)
    assert i.item() == 1
    v, i = extremum("max", from_rows([[7, 7, 3]]), 2)
    assert i.item() == 1


def test_extremum_tie_rule_randomized():
    rng = np.random.default_rng(31)
    for _ in range(30):
        row = rng.integers(0, 3, size=8).astype(float)
        v, i = extremum("min", wrap_ndarray(row.reshape(1, 8)), 2)
        want = int(np.flatnonzero(row == row.min())[0]) + 1
        assert i.item() == want


def test_extremum_ignores_nan():
    v, i = extremum("min", from_rows([[float("nan"), 4, 2]]), 2)
    assert v.item() == 2 and i.item() == 3
    v, i = extremum("max", from_rows([[float("nan"), np.inf]]), 2)
    assert v.item() == np.inf and i.item() == 2
    v, i = extremum("min", from_rows([[float("nan"), float("nan")]]), 2)
    assert np.isnan(v.item()) and i.item() == 1


def _loop_extremum(kind, view, dim):
    """The oracle: each slice walked in ascending order, NaN skipped, the first
    strict improvement kept; an all-NaN slice gives its first element, index 1."""
    better = (lambda x, y: x < y) if kind == "min" else (lambda x, y: x > y)
    v = np.moveaxis(view, dim - 1, 0)
    vals, idx = np.empty(v.shape[1]), np.empty(v.shape[1])
    for lane in range(v.shape[1]):
        at = None
        for k in range(v.shape[0]):
            if not math.isnan(v[k, lane]) and (at is None or better(v[k, lane], v[at, lane])):
                at = k
        at = 0 if at is None else at
        vals[lane], idx[lane] = v[at, lane], at + 1  # numpy copies the bits, NaN payload too
    return np.expand_dims(vals, dim - 1), np.expand_dims(idx, dim - 1)


@settings(max_examples=200)
@given(st.data())
def test_extremum_matches_scalar_loop(data):
    # ties (small integers, +-0 in either order), +-inf, NaNs of both signs
    # with two payloads (_SCALARS), and slices of only NaN, which the small
    # extents make common
    dims = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
    nans = [x for x in _SCALARS if math.isnan(x)]
    value = st.one_of(
        st.sampled_from(_SCALARS), st.sampled_from(nans), st.integers(-2, 2).map(float),
        st.floats(width=64),
    )
    n = dims[0] * dims[1]
    x = np.array(data.draw(st.lists(value, min_size=n, max_size=n))).reshape(dims, order="F")
    a = wrap_ndarray(x)
    for kind in ("min", "max"):
        for dim in (1, 2):
            v, i = extremum(kind, a, dim)
            want_v, want_i = _loop_extremum(kind, x, dim)
            assert_bits(v, want_v, f"{kind} dim {dim}")
            assert_exact(i, want_i, f"{kind} dim {dim}")


# --- merge and mask algebra ---

def test_scalar_operands_must_be_numbers_a_double_can_hold():
    # 10**400 leaked a raw OverflowError from float(), and True was added as 1
    m = magic(4)
    for bad, match in ((10**400, "beyond the largest double"), (True, "must be a number"),
                       ("2", "must be a number"), (None, "must be a number")):
        for call in (lambda: m + bad, lambda: ew_binary("*", bad, m),
                     lambda: compare("<", m, bad), lambda: merge(m < 8, bad, 0),
                     lambda: apply_broadcast(lambda x, y: x + y, m, bad)):
            with pytest.raises(ArgumentError, match=match):
                call()


# the scalar operands of the differential: signed zeros and infinities, the
# extremes, the least subnormal, and NaNs of both signs with two payloads
_SCALARS = (0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324, 2, -3.5, 0.5, -1, 1,
            double(0x7FF8000000000000), double(0xFFF8000000000000),
            double(0x7FF8000000000123), double(0xFFF8000000000123))


def _one(x) -> NumArray:
    return NumArray((1, 1), [x])


def test_scalar_operand_equals_its_1x1_array_bit_for_bit():
    # a Python number reaches numpy as a float; a 1x1 NumArray as a
    # broadcast view: the two must give the same bits, NaN sign and payload too
    a = NumArray((3, 5), [_SCALARS[k % len(_SCALARS)] for k in range(15)])
    v = wrap_ndarray(np.arange(-1.5, 1.5, 0.25).reshape(2, 1, 6))
    m = a > 0
    for s in _SCALARS:
        for t in _SCALARS[::3]:
            for op in "+-*/^":
                for x in (a, v, _one(t)):  # a 1x1 x leaves numpy no extent to repeat s along
                    assert_bits(ew_binary(op, x, s), ew_binary(op, x, _one(s)), f"{op} {s!r}")
                    assert_bits(ew_binary(op, s, x), ew_binary(op, _one(s), x), f"{s!r} {op}")
                assert_bits(ew_binary(op, s, t), ew_binary(op, _one(s), _one(t)), f"{s!r} {op} {t!r}")
            for op in ("<", "<=", ">", ">=", "==", "!="):
                assert_bits(compare(op, a, s), compare(op, a, _one(s)), f"{op} {s!r}")
                assert_bits(compare(op, s, v), compare(op, _one(s), v), f"{s!r} {op}")
                assert_bits(compare(op, s, t), compare(op, _one(s), _one(t)), f"{s!r} {op} {t!r}")
            assert_bits(merge(m, s, a), merge(m, _one(s), a))
            assert_bits(merge(m, a, s), merge(m, a, _one(s)))
            assert_bits(merge(m, s, t), merge(m, _one(s), _one(t)))
        for op in ("abs", "sqrt", "neg", "cos", "sin"):
            assert_bits(ew_unary(op, s), ew_unary(op, _one(s)), f"{op} {s!r}")


def test_refused_scalar_operands_give_one_error_in_either_position():
    a = magic(4)
    calls = (lambda x, y: ew_binary("^", x, y), lambda x, y: compare("<", x, y),
             lambda x, y: merge(a > 8, x, y))
    for bad, message in ((True, "scalar operand must be a number, got bool"),
                         ("2", "scalar operand must be a number, got str"),
                         (None, "scalar operand must be a number, got NoneType"),
                         (10**400, "scalar operand is an int beyond the largest double")):
        for call in calls:
            for x, y in ((a, bad), (bad, a), (bad, 2.0), (2.0, bad)):
                with pytest.raises(ArgumentError) as err:
                    call(x, y)
                assert type(err.value) is ArgumentError and str(err.value) == message


def test_merge_replace_neg_nan_pattern():
    x = from_rows([[0, 1, 2, -1, float("nan"), 3, -2, 4]])
    out = merge(mask_or(isnan_mask(x), compare("<", x, 0)), 0, x)
    assert_exact(out, [[0, 1, 2, 0, 0, 3, 0, 4]])


def test_merge_degenerate_masks():
    x = from_rows([[1, 2], [3, 4]])
    allt = compare("==", x, x)
    assert_exact(merge(allt, 9, x), np.full((2, 2), 9.0))
    assert_exact(merge(x > 2, x, x), x.view())


def test_merge_agrees_with_arithmetic_encoding():
    rng = np.random.default_rng(32)
    from matkit import replace_negative
    for _ in range(25):
        x = wrap_ndarray(rng.standard_normal((3, 5)))
        via_merge = merge(compare("<", x, 0), 0, x)
        assert max_abs_diff(via_merge, replace_negative(x)) == 0.0


def test_mask_algebra():
    a = isnan_mask(from_rows([[float("nan"), 1]]))
    b = compare(">", from_rows([[0, 5]]), 2)
    assert mask_or(a, b).bits.tolist() == [True, True]
    m = compare(">", from_rows([[1, 5]]), 2)
    assert mask_and(m, mask_not(m)).count() == 0


def test_de_morgan_randomized():
    rng = np.random.default_rng(33)
    for _ in range(25):
        x = wrap_ndarray(rng.integers(0, 2, (4, 4)).astype(float))
        y = wrap_ndarray(rng.integers(0, 2, (4, 4)).astype(float))
        a, b = x > 0, y > 0
        lhs = mask_not(mask_or(a, b))
        rhs = mask_and(mask_not(a), mask_not(b))
        assert_bits(lhs, rhs)


# --- bsxfun-style lifting ---

def test_apply_broadcast_plus_matches_operator():
    rng = np.random.default_rng(34)
    for _ in range(10):
        x = wrap_ndarray(rng.standard_normal((3, 4)))
        y = wrap_ndarray(rng.standard_normal((1, 4)))
        lifted = apply_broadcast(lambda p, q: p + q, x, y)
        assert max_abs_diff(lifted, x + y) == 0.0


def test_apply_broadcast_returns_the_handles_ieee_results_without_warnings():
    # numpy flagged inf + -inf inside the lifted handle as an invalid value,
    # a RuntimeWarning (an error under this suite's filter)
    got = apply_broadcast(lambda p, q: p + q, from_rows([[math.inf, 1e308, 1.0]]), -math.inf)
    assert_exact(got, [[math.nan, -math.inf, -math.inf]])
    assert_exact(apply_broadcast(lambda p, q: p * q, 1e308, 10.0), [[math.inf]])


def test_apply_broadcast_clamp_and_scalars():
    x = from_rows([[1, 9], [4, 2]])
    clamped = apply_broadcast(max, x, 5)
    assert_exact(clamped, [[5, 9], [5, 5]])
    one = apply_broadcast(lambda p, q: p * q, 3, 4)
    assert one.dims == (1, 1) and one.item() == 12


# --- broadcast equals materialized replication ---

def test_broadcast_equals_repmat_rank2():
    rng = np.random.default_rng(35)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = wrap_ndarray(rng.standard_normal((m, n)))
        row = wrap_ndarray(rng.standard_normal((1, n)))
        tiled = repmat(row, m, 1)
        assert max_abs_diff(a + row, a.view() + tiled.view()) == 0.0


def test_broadcast_equals_materialized_rank3():
    rng = np.random.default_rng(36)
    for _ in range(20):
        dims = (int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        a = wrap_ndarray(rng.standard_normal(dims))
        b_dims = tuple(d if rng.random() < 0.5 else 1 for d in dims)
        b = wrap_ndarray(rng.standard_normal(b_dims))
        got = ew_binary("*", a, b)
        bv = b.view()
        bv = bv.reshape(bv.shape + (1,) * (3 - bv.ndim))  # pad right, like the kernel
        want = a.view() * np.broadcast_to(bv, dims)
        assert max_abs_diff(got, want) == 0.0


# --- every broadcasting caller against numpy (property test) ---

_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -2.5, 3.0]


@st.composite
def _compatible_shapes(draw, count):
    """count shapes that broadcast together: empty, 1xn, nx1, 3-D, mixed rank."""
    base = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))
    shapes = []
    for _ in range(count):
        s = [d if draw(st.booleans()) else 1 for d in base]
        if len(s) == 3 and draw(st.booleans()):
            s = s[:2]  # the dropped trailing axis is an implicit singleton
        shapes.append(tuple(s))
    return shapes


def _draw_array(data, dims) -> NumArray:
    n = int(np.prod(dims))
    value = st.one_of(st.sampled_from(_SPECIALS), st.floats(width=64))
    return NumArray(dims, data.draw(st.lists(value, min_size=n, max_size=n)))


def _expanded(xs):
    """Each operand's nd view padded right and materialized to the common shape."""
    rank = max(len(x.dims) for x in xs)
    padded = [x.dims + (1,) * (rank - len(x.dims)) for x in xs]
    full = tuple(max(ext) if 0 not in ext else 0 for ext in zip(*padded))
    return full, [np.broadcast_to(x.view().reshape(p, order="F"), full) for x, p in zip(xs, padded)]


@settings(max_examples=150)
@given(st.data())
def test_broadcast_callers_match_numpy(data):
    sa, sb, sm = data.draw(_compatible_shapes(3))
    a, b = _draw_array(data, sa), _draw_array(data, sb)
    mask = compare(">", _draw_array(data, sm), 0.0)
    mask2 = compare("<", b, 1.0)
    _, (va, vb) = _expanded([a, b])
    with np.errstate(all="ignore"):
        for op, fn in (("+", np.add), ("-", np.subtract), ("*", np.multiply),
                       ("/", np.divide), ("^", np.power)):
            assert_bits(ew_binary(op, a, b), fn(va, vb), op)
        for op, fn in (("<", np.less), ("<=", np.less_equal), (">", np.greater),
                       (">=", np.greater_equal), ("==", np.equal), ("!=", np.not_equal)):
            assert_bits(compare(op, a, b), fn(va, vb), op)
    assert_bits(apply_broadcast(math.copysign, a, b), np.copysign(va, vb))
    _, (vm, va3, vb3) = _expanded([mask, a, b])
    assert_bits(merge(mask, a, b), np.where(vm, va3, vb3))
    _, (vm, vm2) = _expanded([mask, mask2])
    assert_bits(mask_or(mask, mask2), vm | vm2)
    assert_bits(mask_and(mask, mask2), vm & vm2)


def test_merge_2d_mask_against_3d_operands():
    m = compare(">", from_rows([[1, -1], [-1, 1]]), 0.0)
    a = wrap_ndarray(np.arange(8.0).reshape(2, 2, 2))
    got = merge(m, a, -0.0)
    assert got.dims == (2, 2, 2)
    want = np.where(m.view()[:, :, None], a.view(), -0.0)
    assert_bits(got, want)


# --- merge is a bit select: np.where's bits and the scalar twin's ---

# NaNs of two payloads and both signs, signed zeros and infinities, the
# extremes, and subnormals of both signs (the least and the largest)
_MERGE_VALUES = _SCALARS + (-5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308)


def _merge_operand(data, dims):
    """A NumArray of dims, or a scalar operand when dims is None."""
    value = st.sampled_from(_MERGE_VALUES) | st.floats(width=64)
    if dims is None:
        return data.draw(value)
    n = math.prod(dims)
    return NumArray(dims, data.draw(st.lists(value, min_size=n, max_size=n)))


def _merge_mask(dims, pattern, rng) -> BoolMask:
    n = math.prod(dims)
    bits = {"random": rng.random(n) < 0.5, "true": np.ones(n, bool), "false": np.zeros(n, bool)}
    return BoolMask(dims, bits[pattern])


def _assert_merge_selects(mask, a, b):
    """merge(mask, a, b) against np.where on the expanded views and against
    the scalar twin, bit for bit; and it shares no memory with a or b."""
    got = merge(mask, a, b)
    operands = [x if isinstance(x, NumArray) else _one(x) for x in (a, b)]
    full, (vm, va, vb) = _expanded([mask] + operands)
    assert got.dims == normalize_dims(full)
    assert_bits(got, np.where(vm, va, vb))
    flat = [x if m else y for m, x, y in zip(
        vm.ravel("F").tolist(), va.ravel("F").tolist(), vb.ravel("F").tolist())]
    assert_bits(got, np.array(flat, dtype=np.float64).reshape(full, order="F"))
    for x in (a, b):
        if isinstance(x, NumArray):
            assert not np.shares_memory(got.buf, x.buf)


@settings(max_examples=200)
@given(st.data())
def test_merge_is_a_bit_select(data):
    sm, sa, sb = data.draw(_compatible_shapes(3))
    pattern = data.draw(st.sampled_from(["random", "true", "false"]))
    mask = _merge_mask(sm, pattern, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    a = _merge_operand(data, data.draw(st.sampled_from([sa, None])))
    b = _merge_operand(data, data.draw(st.sampled_from([sb, None])))
    _assert_merge_selects(mask, a, b)


@pytest.mark.parametrize("pattern", ["random", "true", "false"])
@pytest.mark.parametrize("mask_dims, a_dims, b_dims", [
    ((3, 4), (3, 4, 2), (3, 4, 2)),  # a 2-D mask against 3-D operands
    ((3, 4), (3, 1, 2), None),
    ((3, 4), None, (1, 4, 2)),
    ((5, 6), None, None),  # only the mask gives the result its extent
    ((1, 1), None, None),  # a 1x1 result takes its scalars as 1x1 arrays
    ((1, 1), (1, 1), None),
    ((0, 3), (0, 3), None),  # empty results
    ((2, 0), None, (2, 1)),
    ((1, 3, 0), (2, 1), None),
])
def test_merge_bits_on_named_shapes(mask_dims, a_dims, b_dims, pattern):
    rng = np.random.default_rng(27)
    pool = np.array(_MERGE_VALUES)

    def operand(dims, k):
        if dims is None:
            return _MERGE_VALUES[k % len(_MERGE_VALUES)]
        return NumArray(dims, rng.choice(pool, math.prod(dims)))

    for k in range(len(_MERGE_VALUES)):
        _assert_merge_selects(_merge_mask(mask_dims, pattern, rng),
                              operand(a_dims, k), operand(b_dims, 5 * k + 3))


def test_merge_refuses_a_mask_that_is_not_a_boolmask():
    # the bit select reads the mask's bytes as bits, so only a BoolMask will do
    x = magic(4)
    for bad in (x, 1.0, 0, True, None, [[True]], np.ones((4, 4), bool)):
        with pytest.raises(ArgumentError, match="merge mask must be a BoolMask"):
            merge(bad, x, 0.0)


@settings(max_examples=150)
@given(st.data())
def test_broadcast_callers_reject_incompatible_shapes(data):
    sa, sb, sm = (list(s) for s in data.draw(_compatible_shapes(3)))
    k = data.draw(st.integers(2, 3))
    t = data.draw(st.integers(0, 1))
    sa[t], sb[t] = k, k + 1  # neither extent is 1, and they differ
    a, b = NumArray(sa, np.zeros(int(np.prod(sa)))), NumArray(sb, np.zeros(int(np.prod(sb))))
    mask = BoolMask(sm, np.zeros(int(np.prod(sm)), dtype=bool))
    calls = [
        lambda: ew_binary("+", a, b),
        lambda: compare("<", a, b),
        lambda: apply_broadcast(math.copysign, a, b),
        lambda: merge(mask, a, b),
        lambda: merge(compare(">", a, 0.0), b, 0.0),
        lambda: mask_or(compare(">", a, 0.0), compare(">", b, 0.0)),
        lambda: mask_and(compare(">", a, 0.0), compare(">", b, 0.0)),
    ]
    for call in calls:
        with pytest.raises(BroadcastError):
            call()


# --- reductions against the scalar ascending loop ---

def _loop_reduce(kind, view, dim):
    """The oracle: per lane, acc = acc + x (or acc * x) in ascending order."""
    if dim > view.ndim:
        return view
    v = np.moveaxis(view, dim - 1, 0)
    out = np.empty(v.shape[1:])
    for lane in np.ndindex(v.shape[1:]):
        xs = [float(x) for x in v[(slice(None),) + lane]]
        if not xs:
            out[lane] = {"sum": 0.0, "prod": 1.0, "mean": math.nan}[kind]
            continue
        acc = xs[0]
        for x in xs[1:]:
            acc = acc * x if kind == "prod" else acc + x
        out[lane] = acc / len(xs) if kind == "mean" else acc
    return np.expand_dims(out, dim - 1)


@settings(max_examples=150)
@given(st.data())
def test_reduce_along_dim_matches_scalar_loop(data):
    dims = tuple(data.draw(st.lists(st.integers(0, 6), min_size=2, max_size=3)))
    # plain decimals too: a carry added out of order changes their rounding
    value = st.one_of(st.sampled_from(_SPECIALS), st.floats(width=64), st.floats(-100, 100))
    n = int(np.prod(dims))
    a = NumArray(dims, data.draw(st.lists(value, min_size=n, max_size=n)))
    slab = data.draw(st.sampled_from([1, 2, 3, 5, 8, ops._SLAB]))
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(ops, "_SLAB", slab)  # small slabs: small shapes cross boundaries
        for kind in ("sum", "prod", "mean"):
            for dim in (1, 2, 3):
                assert_exact(reduce_along_dim(kind, a, dim), _loop_reduce(kind, a.view(), dim))


@pytest.mark.parametrize("dims, dim", [
    ((3, 70000), 2), ((70000, 2), 1), ((70000, 3), 2),
    ((2, 100, 200), 1), ((200, 5, 100), 2), ((129, 129, 3), 3),
])
def test_reduce_across_real_slab_boundaries(dims, dim):
    # several slabs of a few lanes, several slabs of two lanes, one slice per
    # step, and one wide (often strided) slice per slab along each axis;
    # values near 1 keep every product finite and every sum rounding
    x = 1.0 + 1e-3 * Prng(23).normal(dims).view()
    v = np.moveaxis(x, dim - 1, 0)
    if x.ndim == 3:  # one slice fills a slab, so the fold starts from a copy of it
        v[0].flat[:3] = [-0.0, np.inf, np.nan]  # all in the first slice
    else:
        v[:3, 0] = [-0.0, np.inf, np.nan]  # all in the first lane
    a = wrap_ndarray(x)
    with np.errstate(all="ignore"):
        for kind in ("sum", "prod", "mean"):
            assert_exact(reduce_along_dim(kind, a, dim), _loop_reduce(kind, x, dim))


# 1, 2 and many lanes along each dim; dim 1 of a column-major array is the
# innermost axis, which keeps the scan, and 13 or 11 lanes reach the tail of
# numpy's vector loop, where the reduce can return the other of two NaNs; then
# the workloads' sizes: rowBroadcast, a metric block, rgb2gray, a wide matrix
_LANE_CASES = [
    ((1, 9), 2), ((9, 1), 1), ((1, 1, 9), 3), ((9, 2), 1), ((2, 9), 2), ((2, 1, 9), 3),
    ((9, 13), 1), ((13, 9), 2), ((11, 9, 3), 2), ((11, 3, 9), 3), ((3, 11, 9), 3),
    ((4, 9, 5), 1), ((5, 4, 9), 2),
    ((300, 5), 2), ((300, 5), 1), ((2000, 5, 26), 2), ((64, 64, 3), 3), ((512, 512), 2),
]


def test_reduce_along_dim_is_the_scan_bit_for_bit_nan_included(monkeypatch):
    # the parent's bits, NaN sign and payload included: every lane of a laced
    # input holds two NaNs of different sign or payload, first the one and
    # then the other, so the reduce's NaN rule would show; a clean input
    # (no NaN, no infinity) keeps the in-place reduce. A 4-element slab makes
    # one slice fill a slab (fold), or a short slice span several (carry).
    scan, routes, reached = ops._scan, [], set()

    def spy(ufunc, v, ax):
        n = v.shape[ax]
        rows = max(1, ops._SLAB // (v.size // n))
        routes.append("fold" if rows == 1 else ("one slab" if n <= rows else "carry"))
        return scan(ufunc, v, ax)

    monkeypatch.setattr(ops, "_scan", spy)
    nans = np.array([x for x in _SCALARS if math.isnan(x)])
    rng = np.random.default_rng(29)
    for slab, (dims, dim) in itertools.product((4, ops._SLAB), _LANE_CASES):
        monkeypatch.setattr(ops, "_SLAB", slab)
        clean = rng.normal(size=dims)
        odd = rng.random(dims) < 0.2
        clean[odd] = rng.choice([0.0, -0.0, 1e308, 5e-324], size=odd.sum())
        laced = clean.copy()
        v = np.moveaxis(laced, dim - 1, 0)  # a view: writes reach laced
        at = np.sort(rng.random(v.shape).argsort(axis=0)[:2], axis=0)  # two rows per lane
        first = rng.integers(0, len(nans), v.shape[1:])
        other = (first + rng.integers(1, len(nans), v.shape[1:])) % len(nans)
        np.put_along_axis(v, at[:1], nans[first][None], axis=0)
        np.put_along_axis(v, at[1:], nans[other][None], axis=0)
        for x in (clean, laced):
            a = wrap_ndarray(np.asfortranarray(x))
            for kind, ufunc in (("sum", np.add), ("prod", np.multiply), ("mean", np.add)):
                with np.errstate(all="ignore"):
                    want = scan(ufunc, a.view(), dim - 1) / (dims[dim - 1] if kind == "mean" else 1)
                k = len(routes)
                got = reduce_along_dim(kind, a, dim)
                reached.update(routes[k:] or ["reduce"])  # no scan: the reduce answered
                assert_bits(got, wrap_ndarray(want), f"{kind} of {dims} along dim {dim}, slab {slab}")
    assert reached == {"reduce", "fold", "one slab", "carry"}


def test_reduce_builds_no_input_sized_scan():
    # a full cumsum of this input would be 8 MB for a 1.6 MB result
    a = Prng(5).normal((400, 5, 500))
    out_bytes = 400 * 500 * 8
    tracemalloc.start()
    try:
        reduce_along_dim("sum", a, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * out_bytes + ops._SLAB * 8


def test_extremum_builds_no_input_sized_copy():
    # a NaN-replaced float copy of this input would be its full 8 MB
    a = Prng(6).normal((2000, 500))
    tracemalloc.start()
    try:
        extremum("min", a, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.buf.nbytes / 2
