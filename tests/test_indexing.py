"""Index expressions, logical indexing, deletion, and growth semantics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matkit import (
    ALL,
    END,
    ArgumentError,
    BoolMask,
    IndexBoundsError,
    IndexExpr,
    NumArray,
    Prng,
    ShapeError,
    all_true,
    any_true,
    assign_indexed,
    delete_elements,
    extract,
    flipud,
    from_rows,
    isnan_mask,
    logical_assign,
    logical_extract,
    magic,
    reduce_along_dim,
    reshape,
    span,
    zeros,
)
from matkit import core, indexing
from matkit.core import _is_int, normalize_dims, wrap_ndarray
from matkit.indexing import End, _is_scalar_rhs, _mask_bits, _resolve_selector

from helpers import assert_bits, assert_exact, outcome


# --- extraction: the six reference selections ---

def test_linear_range():
    m = magic(4)
    assert_exact(extract(m, IndexExpr.linear(span(3, 7))), [[9, 4, 2, 11, 7]])


def test_linear_end_relative_and_list():
    m = magic(4)
    assert_exact(extract(m, IndexExpr.linear(span(12, END))), [[15, 13, 8, 12, 1]])
    assert_exact(extract(m, IndexExpr.linear([1, 3, 5])), [[16, 9, 2]])


def test_cartesian_selections():
    m = magic(4)
    assert_exact(extract(m, IndexExpr.of(span(1, 2), span(2, 3))), [[2, 3], [11, 10]])
    assert_exact(extract(m, IndexExpr.of(END, span(END - 1, END))), [[15, 1]])
    assert_exact(extract(m, IndexExpr.of(3, ALL)), [[9, 7, 6, 12]])


def test_whole_array_selector_is_a_column():
    m = magic(4)
    c = extract(m, IndexExpr.linear(ALL))
    assert c.dims == (16, 1)
    assert np.array_equal(c.buf, m.buf)


def test_getitem_sugar():
    m = magic(4)
    assert_exact(m[span(3, 7)], [[9, 4, 2, 11, 7]])
    assert_exact(m[3, ALL], [[9, 7, 6, 12]])


def test_span_rejects_fractional_step():
    with pytest.raises(ArgumentError, match="integer"):
        span(1, 4, 1.5)
    with pytest.raises(ArgumentError):
        span(1, 4, 0)
    assert_exact(magic(4)[span(1, 4, 2.0)], [[16, 9]])


def test_extract_bounds_error_names_dimension():
    m = magic(4)
    with pytest.raises(IndexBoundsError, match="dimension 2"):
        extract(m, IndexExpr.of(1, 5))
    with pytest.raises(IndexBoundsError, match="linear"):
        extract(m, IndexExpr.linear(17))


def test_span_past_the_extent_names_its_first_position_outside():
    # the whole range was built before the bounds check: a raw MemoryError
    m = magic(4)
    with pytest.raises(IndexBoundsError, match="index 17 out of range 1..16"):
        m[span(1, 2**62)]
    with pytest.raises(IndexBoundsError, match="index -4611686018427387\\d+ out of range 1..16"):
        m[span(END - 2**62, END)]
    with pytest.raises(IndexBoundsError, match="dimension 1: index 0 out of range 1..4"):
        m[span(4, -2**62, -4), 1]


def test_bounds_error_names_an_int_index_exactly():
    # the index went through float64 first: END - 2**62 on 16 elements was
    # named as -4611686018427387904, not -4611686018427387888
    m = magic(4)
    far = 2**62 + 1
    for call, named in (
        (lambda: m[span(END - 2**62, END)], "linear index: index -4611686018427387888"),
        (lambda: m[END - 2**62], "linear index: index -4611686018427387888"),
        (lambda: m[far], "linear index: index 4611686018427387905"),
        (lambda: m[[1, np.int64(far)]], "linear index: index 4611686018427387905"),
        (lambda: m[1, (2, far)], "dimension 2: index 4611686018427387905"),
    ):
        with pytest.raises(IndexBoundsError) as err:
            call()
        assert str(err.value) == named + f" out of range 1..{16 if 'linear' in named else 4}"


@settings(max_examples=300)
@given(st.integers(-6, 12), st.integers(-6, 12),
       st.integers(-4, 4).filter(bool), st.integers(0, 8))
def test_span_resolves_up_to_its_first_position_outside(start, stop, step, extent):
    # an in-range span resolves to its whole range; any other stops right
    # after the first position outside 1..extent
    whole = list(range(start, stop + (1 if step > 0 else -1), step))
    outside = [k for k, p in enumerate(whole) if not 1 <= p <= extent]
    assert span(start, stop, step).resolve(extent) == whole[: outside[0] + 1 if outside else None]


def test_span_rejects_fractional_endpoints():
    for args in ((1.5, 3), (1, 3.5), (float("nan"), 3), (1, float("inf"))):
        with pytest.raises(ArgumentError, match="endpoint must be an integer"):
            span(*args)
    assert_exact(magic(4)[span(1.0, 3.0)], [[16, 5, 9]])


def test_span_parts_must_be_numbers():
    # "2" was read as 2 through float(), so span("2", 3) selected [5, 9];
    # None leaked a raw TypeError and "x" a raw ValueError
    m = magic(4)
    for args in (("2", 3), (1, "3"), (None, 3), (1, "x"), (True, 3), ([1], 3), (1, 3, "2")):
        with pytest.raises(ArgumentError, match="must be a number"):
            m[span(*args)]
    assert_exact(m[span(np.int64(2), np.float64(3.0), np.int32(1))], [[5, 9]])


def test_end_rejects_fractional_offset():
    # END - 1.5 was truncated to END - 1, so span(END - 1.5, END) read [12, 1]
    for k in (1.5, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ArgumentError, match="END offset"):
            END - k
        with pytest.raises(ArgumentError, match="END offset"):
            End(k)
    with pytest.raises(ArgumentError, match="END offset"):
        magic(4)[span(END - 1.5, END)]
    assert_exact(magic(4)[span(END - 1.0, END)], [[12, 1]])
    assert repr(END - 1 - 2) == "END-3"


def test_fractional_selectors_are_refused():
    m = magic(4)
    for sel in ([1.5, 2], (2, 1.5), from_rows([[2, 1.5]]), float("nan"), [float("nan")]):
        with pytest.raises(ArgumentError, match="linear index"):
            extract(m, IndexExpr.linear(sel))
    with pytest.raises(ArgumentError, match="dimension 2: index 2.5 is not an integer"):
        extract(m, IndexExpr.of(1, [1, 2.5]))
    with pytest.raises(ArgumentError, match="not an integer"):
        assign_indexed(m, IndexExpr.of([0.5], 1), 0.0)
    assert_exact(m[[1.0, 2.0]], [[16, 5]])


def test_selector_error_names_first_offending_index():
    m = magic(4)
    with pytest.raises(IndexBoundsError, match="index 17 out of range"):
        extract(m, IndexExpr.linear([2, 17, 1.5, 0]))
    with pytest.raises(ArgumentError, match="index 1.5 is not an integer"):
        extract(m, IndexExpr.linear([2, 1.5, 17]))
    with pytest.raises(IndexBoundsError, match="dimension 1: index 0 out of range 1..4"):
        extract(m, IndexExpr.of(from_rows([[1, 0, 9]]), 1))
    with pytest.raises(IndexBoundsError, match="index inf out of range"):
        extract(m, IndexExpr.linear(from_rows([[1, float("inf")]])))
    with pytest.raises(ArgumentError, match="unsupported selector"):
        extract(m, IndexExpr.linear(["a"]))


@pytest.mark.parametrize("bad", [0.0, -0.0, 17.0, 1.5, -0.5, math.nan, math.inf, -math.inf,
                                 2.0**63, -(2.0**63), 1e30])
def test_numarray_selector_names_its_first_bad_entry_as_a_list_does(bad):
    # a NumArray selector is resolved by one intp cast when every entry is an
    # in-range integer; any other entry takes the entry-by-entry checks
    m = magic(4)
    entries = [16.0, 1.0, bad, 2.5]
    with pytest.raises((ArgumentError, IndexBoundsError)) as want:
        m[entries]
    with pytest.raises(type(want.value), match=re.escape(str(want.value)) + "$"):
        m[from_rows([entries])]
    assert_exact(m[from_rows([[16.0, 1.0, 4.0]])], [[1, 16, 4]])


def test_list_selector_entries_follow_the_number_rule():
    # a bool or None inside a list bypassed the number rule: [True, 2] read
    # True as 1, and [10**400] was refused with all 401 digits in the message
    m = magic(4)
    for call, match in ((lambda: m[[True, 2]], "got bool"),
                        (lambda: m[1, [True]], "dimension 2: unsupported selector entry must be a number, got bool"),
                        (lambda: m[[None]], "got NoneType"),
                        (lambda: m[[2, "3"]], "got str"),
                        (lambda: m[[10**400]], "entry is an int beyond the largest double"),
                        (lambda: m[10**400], "selector is an int beyond the largest double"),
                        (lambda: assign_indexed(m, IndexExpr.linear([1, False]), 0.0), "got bool"),
                        (lambda: delete_elements(m, IndexExpr.linear([None])), "got NoneType")):
        with pytest.raises(ArgumentError, match=match) as err:
            call()
        assert len(str(err.value)) < 80
    assert_exact(m[[1, END - 1, 2.0]], [[16, 12, 5]])


def test_extract_with_array_index_keeps_its_shape():
    m = magic(4)
    ix = from_rows([[1, 6, 11, 16]])
    got = extract(m, IndexExpr.linear(ix))
    assert got.dims == (1, 4)
    assert_exact(got, [[16, 11, 6, 1]])


# --- assignment ---

def test_assign_even_columns_flipped():
    m = magic(4)
    even = IndexExpr.of(ALL, span(2, END, 2))
    flipped = assign_indexed(m, even, flipud(extract(m, even)))
    assert flipped.buf.tolist() == [16, 5, 9, 4, 14, 7, 11, 2, 3, 10, 6, 15, 1, 12, 8, 13]


def test_assign_scalar_zero_fill_growth():
    empty = zeros((1, 0))
    grown = assign_indexed(empty, IndexExpr.linear(3), 7)
    assert grown.dims == (1, 3)
    assert grown.buf.tolist() == [0, 0, 7]


def test_assign_growth_keeps_orientation():
    col = from_rows([[1], [2]])
    grown = assign_indexed(col, IndexExpr.linear(4), 5)
    assert grown.dims == (4, 1)
    assert grown.buf.tolist() == [1, 2, 0, 5]
    row = from_rows([[1, 2]])
    grown = assign_indexed(row, IndexExpr.linear(4), 5)
    assert grown.dims == (1, 4)


def test_assign_returns_a_new_buffer_and_leaves_its_argument():
    m = magic(4)
    kept = m.view().copy()
    even = IndexExpr.of(ALL, span(2, END, 2))
    for ix, rhs in ((even, flipud(extract(m, even))), (IndexExpr.linear([2, 9]), 0.5),
                    (IndexExpr.linear(m < 8), -0.0)):
        got = assign_indexed(m, ix, rhs)
        assert not np.shares_memory(got.buf, m.buf)
        assert_bits(m, kept)


def test_assign_full_range_scalar():
    m = magic(4)
    z = assign_indexed(m, IndexExpr.of(ALL, ALL), 0)
    assert z.dims == m.dims
    assert np.all(z.buf == 0)


def test_matrix_does_not_auto_grow():
    m = magic(4)
    with pytest.raises(IndexBoundsError):
        assign_indexed(m, IndexExpr.of(5, 1), 1.0)
    with pytest.raises(IndexBoundsError):
        assign_indexed(m, IndexExpr.linear(17), 1.0)


def test_assign_shape_mismatch():
    m = magic(4)
    with pytest.raises(ShapeError):
        assign_indexed(m, IndexExpr.of(span(1, 2), span(1, 2)), from_rows([[1, 2, 3]]))


def test_assigned_scalar_must_be_a_number_a_double_can_hold():
    # 10**400 leaked a raw OverflowError from float(), and True was stored as 1
    m = magic(4)
    for call in (lambda: assign_indexed(m, IndexExpr.of(1, 1), 10**400),
                 lambda: logical_assign(m, m < 8, 10**400),
                 lambda: assign_indexed(m, IndexExpr.linear(2), True),
                 lambda: assign_indexed(from_rows([[1, 2]]), IndexExpr.linear(5), 10**400)):
        with pytest.raises(ArgumentError, match="rhs must be a NumArray or a scalar"):
            call()


def test_growth_refuses_a_length_it_cannot_allocate():
    # numpy's refusal leaked as a raw ValueError
    for k in (2**62, 10**400):
        with pytest.raises(ArgumentError, match="too large to allocate"):
            assign_indexed(from_rows([[1, 2, 3]]), IndexExpr.linear(k), 1.0)


def test_assign_rhs_must_be_array_or_scalar():
    m = magic(4)
    with pytest.raises(ArgumentError, match="rhs must be a NumArray or a scalar"):
        assign_indexed(m, IndexExpr.of(1, span(1, 2)), [1, 2])
    with pytest.raises(ArgumentError, match="rhs must be a NumArray or a scalar"):
        assign_indexed(m, IndexExpr.linear([1, 2]), (1, 2))
    with pytest.raises(ArgumentError, match="rhs must be a NumArray or a scalar"):
        logical_assign(m, m < 3, [1, 2])


def test_assign_then_extract_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(40):
        dims = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        a = wrap_ndarray(rng.standard_normal(dims))
        ri = sorted(rng.choice(dims[0], size=rng.integers(1, dims[0] + 1), replace=False) + 1)
        ci = sorted(rng.choice(dims[1], size=rng.integers(1, dims[1] + 1), replace=False) + 1)
        ix = IndexExpr.of([int(r) for r in ri], [int(c) for c in ci])
        rhs = wrap_ndarray(rng.standard_normal((len(ri), len(ci))))
        back = extract(assign_indexed(a, ix, rhs), ix)
        assert_bits(back, rhs)


# --- deletion ---

def test_delete_by_mask_order():
    a = from_rows([[0, 5], [7, 0]])
    kept = delete_elements(a, a == 0)
    assert kept.dims == (1, 2)
    assert kept.buf.tolist() == [7, 5]


def test_delete_nothing_flattens_to_row():
    m = magic(4)
    kept = delete_elements(m, m == -1)
    assert kept.dims == (1, 16)
    assert np.array_equal(kept.buf, m.buf)


def test_delete_from_column_vector_stays_column():
    c = from_rows([[1], [2], [3]])
    kept = delete_elements(c, c == 2)
    assert kept.dims == (2, 1)
    assert kept.buf.tolist() == [1, 3]


def test_delete_by_index_expr():
    r = from_rows([[10, 20, 30, 40]])
    kept = delete_elements(r, IndexExpr.linear(span(2, 3)))
    assert kept.buf.tolist() == [10, 40]


def test_delete_matches_scalar_reference_loop():
    rng = np.random.default_rng(22)
    for _ in range(40):
        dims = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        a = wrap_ndarray(rng.integers(-3, 4, size=dims).astype(float))
        mask = a < 0
        kept = delete_elements(a, mask)
        want = [v for v in a.buf.tolist() if not v < 0]
        assert kept.buf.tolist() == want
        assert kept.numel == a.numel - mask.count()


# --- logical indexing ---

def test_logical_extract_reference_values():
    m = magic(4)
    got = logical_extract(m, m < 8)
    assert got.dims == (7, 1)
    assert got.buf.tolist() == [5, 4, 2, 7, 3, 6, 1]


def test_logical_extract_edge_masks():
    m = magic(4)
    assert logical_extract(m, m < -1).dims == (0, 1)
    full = logical_extract(m, m > -1)
    assert full.dims == (16, 1)
    assert np.array_equal(full.buf, m.buf)


def test_logical_extract_shape_mismatch():
    with pytest.raises(ShapeError):
        logical_extract(magic(4), zeros((2, 2)) == 0)


def test_logical_extract_count_and_bound_property():
    rng = np.random.default_rng(23)
    for _ in range(30):
        a = wrap_ndarray(rng.standard_normal((5, 6)))
        c = float(rng.standard_normal())
        got = logical_extract(a, a < c)
        assert got.numel == (a < c).count()
        assert np.all(got.buf < c)


def test_logical_assign_nan_cleanup():
    m = magic(4)
    m = assign_indexed(m, IndexExpr.of(1, 1), float("nan"))
    mask = isnan_mask(m)
    assert mask.count() == 1 and bool(mask.view()[0, 0])
    cleaned = logical_assign(m, mask, 0)
    assert_exact(cleaned, [[0, 2, 3, 13], [5, 11, 10, 8], [9, 7, 6, 12], [4, 14, 15, 1]])


def test_logical_assign_vector_and_noop():
    a = from_rows([[1, 2], [3, 4]])
    same = logical_assign(a, a > 99, 0)
    assert_bits(same, a)
    two = logical_assign(a, a > 2, from_rows([[9, 9]]))
    assert two.buf.tolist() == [1, 9, 2, 9]
    with pytest.raises(ShapeError):
        logical_assign(a, a > 2, from_rows([[9, 9, 9]]))


def test_mean_of_extracted_matches_loop_bit_for_bit():
    r = Prng(9).randint(1, 100, (1, 5000))
    s = 0.0
    c = 0
    for v in r.to_list():
        if v > 50:
            s += v
            c += 1
    vec = reduce_along_dim("mean", logical_extract(r, r > 50), 1).item()
    assert vec == s / c


# --- a mask is a selector ---

def test_getitem_with_a_mask_is_logical_indexing():
    m = magic(4)
    got = m[m < 8]  # the paper's M(M < 8)
    assert got.dims == (7, 1)
    assert got.buf.tolist() == [5, 4, 2, 7, 3, 6, 1]


def test_mask_selects_along_one_dimension():
    m = magic(4)
    cols = from_rows([[1, 0, 1, 0]]) == 1
    want = [[16, 3], [5, 10], [9, 6], [4, 15]]
    assert_exact(extract(m, IndexExpr.of(ALL, cols)), want)  # Octave's A(:, mask)
    assert_exact(m[ALL, cols], want)
    rows = from_rows([[0], [1], [0], [1]]) == 1  # any shape with one bit per row
    assert_exact(m[rows, cols], [[5, 10], [4, 15]])
    got = assign_indexed(m, IndexExpr.of(ALL, cols), from_rows([[1, 2], [3, 4], [5, 6], [7, 8]]))
    assert_exact(got, [[1, 2, 2, 13], [3, 11, 4, 8], [5, 7, 6, 12], [7, 14, 8, 1]])
    with pytest.raises(ShapeError):  # the Cartesian form keeps its exact-shape rule
        assign_indexed(m, IndexExpr.of(ALL, cols), from_rows([[1, 2, 3, 4, 5, 6, 7, 8]]))
    kept = delete_elements(m, IndexExpr.of(ALL, cols))
    assert kept.buf.tolist() == [2, 11, 7, 14, 13, 8, 12, 1]


def test_mask_of_the_wrong_size_is_a_shape_error():
    m = magic(4)
    short = zeros((2, 2)) == 0  # 4 bits: one per row, but not one per element
    for call in (
        lambda: extract(m, IndexExpr.linear(short)),
        lambda: m[short],
        lambda: logical_extract(m, short),
        lambda: logical_assign(m, short, 0.0),
        lambda: delete_elements(m, short),
        lambda: delete_elements(m, IndexExpr.linear(short)),
    ):
        with pytest.raises(ShapeError, match="linear index: mask has 4 elements for extent 16"):
            call()
    assert_exact(m[short, 1], [[16], [5], [9], [4]])
    with pytest.raises(ShapeError, match="dimension 2: mask has 3 elements for extent 4"):
        assign_indexed(m, IndexExpr.of(ALL, zeros((1, 3)) == 0), 0.0)


def test_linear_assignment_takes_one_rhs_element_per_cell():
    # Octave's A(I) = B: B is a scalar or numel(B) == numel(I), whatever its shape
    m = magic(4)
    got = assign_indexed(m, IndexExpr.linear([1, 2, 3]), from_rows([[7], [8], [9]]))
    assert got.buf.tolist()[:4] == [7, 8, 9, 4]
    got = assign_indexed(m, IndexExpr.linear(span(1, 4)), reshape(from_rows([[1, 2, 3, 4]]), (2, 2)))
    assert got.buf.tolist()[:5] == [1, 2, 3, 4, 2]
    with pytest.raises(ShapeError, match="rhs has 3 elements for 2 cells"):
        assign_indexed(m, IndexExpr.linear([1, 2]), from_rows([[7, 8, 9]]))
    with pytest.raises(ShapeError, match="rhs has 2 elements for 7 cells"):
        logical_assign(m, m < 8, from_rows([[1, 2]]))


# --- the mask selector against the former mask bodies (differential) ---

def _former_logical_extract(a, mask):
    if mask.numel != a.numel:
        raise ShapeError(f"mask numel {mask.numel} != array numel {a.numel}")
    taken = a.buf[mask.bits]
    return NumArray((taken.size, 1), taken)


def _former_logical_assign(a, mask, rhs):
    if mask.numel != a.numel:
        raise ShapeError(f"mask numel {mask.numel} != array numel {a.numel}")
    buf = a.buf.copy()
    if not isinstance(rhs, NumArray):
        buf[mask.bits] = float(rhs)
    else:
        k = mask.count()
        if rhs.numel != k:
            raise ShapeError(f"rhs has {rhs.numel} elements for {k} masked cells")
        buf[mask.bits] = rhs.buf
    return NumArray(a.dims, buf)


def _former_delete_by_mask(a, where):
    if where.numel != a.numel:
        raise ShapeError(f"mask numel {where.numel} != array numel {a.numel}")
    kept = a.buf[~where.bits]
    if a.rank == 2 and a.cols == 1 and a.rows > 1:
        return NumArray((kept.size, 1), kept)
    return NumArray((1, kept.size), kept)


_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(width=64),
)


@st.composite
def _masked_arrays(draw):
    """An array (empty, 1xn, nx1, matrix or 3-D) and a mask with one bit per element."""
    dims = draw(st.one_of(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.just(1), st.integers(0, 6)),
        st.tuples(st.integers(0, 6), st.just(1)),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(2, 3)),
    ))
    n = math.prod(dims)
    a = NumArray(dims, draw(st.lists(_VALUES, min_size=n, max_size=n)))
    bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return a, BoolMask(draw(st.sampled_from([dims, (n, 1), (1, n)])), bits)


@settings(max_examples=300)
@given(_masked_arrays(), st.data())
def test_mask_selector_matches_the_former_mask_bodies(am, data):
    a, mask = am
    want = _former_logical_extract(a, mask)
    for got in (extract(a, IndexExpr.linear(mask)), a[mask], logical_extract(a, mask)):
        assert_bits(got, want)
    scalar = data.draw(_VALUES)
    assert_bits(logical_assign(a, mask, scalar), _former_logical_assign(a, mask, scalar))
    k = mask.count()
    rhs = NumArray(data.draw(st.sampled_from([(1, k), (k, 1)])), data.draw(
        st.lists(_VALUES, min_size=k, max_size=k)))
    want = _former_logical_assign(a, mask, rhs)
    assert_bits(logical_assign(a, mask, rhs), want)
    assert_bits(assign_indexed(a, IndexExpr.linear(mask), rhs), want)
    want = _former_delete_by_mask(a, mask)
    assert_bits(delete_elements(a, mask), want)
    assert_bits(delete_elements(a, IndexExpr.linear(mask)), want)


# --- one flat-buffer body against the former linear and Cartesian bodies ---

def _former_linear_positions(ix, a):
    sel = ix.linear_sel
    pos = _resolve_selector(sel, a.numel, "linear index")
    if sel is ALL or isinstance(sel, BoolMask):
        dims = (pos.size, 1)
    elif isinstance(sel, NumArray):
        dims = sel.dims
    elif _is_int(sel) or isinstance(sel, End):
        dims = (1, 1)
    else:
        dims = (1, pos.size)
    return pos, dims


def _former_cartesian_positions(ix, a):
    if len(ix.selectors) != a.rank:
        raise ShapeError(
            f"index expression has {len(ix.selectors)} selectors but array rank is {a.rank}"
        )
    return [
        _resolve_selector(sel, extent, f"dimension {t + 1}")
        for t, (sel, extent) in enumerate(zip(ix.selectors, a.dims))
    ]


def _former_extract(a, ix):
    if ix.is_linear:
        pos, dims = _former_linear_positions(ix, a)
        return NumArray(dims, a.buf[pos])
    return wrap_ndarray(a.view()[np.ix_(*_former_cartesian_positions(ix, a))])


def _former_assign_indexed(a, ix, rhs):
    scalar_rhs = _is_scalar_rhs(rhs)
    if ix.is_linear:
        sel = ix.linear_sel
        if scalar_rhs and _is_int(sel) and a.rank == 2 and min(a.dims) <= 1 and sel > a.numel:
            grown = np.zeros(int(sel))
            grown[: a.numel] = a.buf
            grown[-1] = float(rhs)
            column = a.rank == 2 and a.cols == 1 and a.rows > 1
            return NumArray((grown.size, 1) if column else (1, grown.size), grown)
        pos, _ = _former_linear_positions(ix, a)
        buf = a.buf.copy()
        if scalar_rhs:
            buf[pos] = float(rhs)
        else:
            if rhs.numel != pos.size:
                raise ShapeError(f"assignment rhs has {rhs.numel} elements for {pos.size} cells")
            buf[pos] = rhs.buf
        return NumArray(a.dims, buf)
    per_dim = _former_cartesian_positions(ix, a)
    lens = [len(p) for p in per_dim]
    out = a.view().copy(order="K")
    if scalar_rhs:
        out[np.ix_(*per_dim)] = float(rhs)
    else:
        sel_dims = normalize_dims(tuple(lens))
        if rhs.dims != sel_dims:
            raise ShapeError(f"assignment rhs shape {rhs.dims} != selection shape {sel_dims}")
        out[np.ix_(*per_dim)] = rhs.view().reshape(lens)
    return wrap_ndarray(out)


def _former_delete_elements(a, ix):
    if ix.is_linear:
        if isinstance(ix.linear_sel, BoolMask):
            drop = _mask_bits(ix.linear_sel, a.numel, "linear index")
        else:
            drop = np.zeros(a.numel, dtype=bool)
            drop[_former_linear_positions(ix, a)[0]] = True
    else:
        sub = np.zeros(a.dims, dtype=bool)
        sub[np.ix_(*_former_cartesian_positions(ix, a))] = True
        drop = wrap_ndarray(sub).bits
    kept = a.buf[~drop]
    column = a.rank == 2 and a.cols == 1 and a.rows > 1
    return NumArray((kept.size, 1) if column else (1, kept.size), kept)


@st.composite
def _selectors(draw, extent):
    """Any selector kind over 1..extent, now and then naming a position outside it."""
    inside = [st.integers(1, extent)] * 6 if extent else []
    pos = st.one_of(*inside, st.sampled_from([0, extent + 1]))
    end = st.integers(0, extent).map(lambda k: END - k)
    point = st.one_of(pos, end)
    kind = draw(st.sampled_from(["all", "int", "end", "span", "list", "array", "mask"]))
    if kind == "all":
        return ALL
    if kind == "int":
        return draw(pos)
    if kind == "end":
        return draw(end)
    if kind == "span":
        return span(draw(point), draw(point), draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    if kind == "list":
        picks = draw(st.lists(point, max_size=5))
        return picks + picks[:draw(st.integers(0, 2))]  # repeats, of the same cell too
    if kind == "array":
        vals = draw(st.lists(pos, max_size=6))
        shape = draw(st.sampled_from([(1, len(vals)), (len(vals), 1), (1, 1, len(vals))]))
        return NumArray(shape, vals)
    n = extent + draw(st.sampled_from([0, 0, 0, 1]))
    return BoolMask(draw(st.sampled_from([(n, 1), (1, n)])), draw(
        st.lists(st.booleans(), min_size=n, max_size=n)))


@st.composite
def _indexed(draw):
    """An array of rank 2 or 3 and an index expression on it, either form."""
    dims = draw(st.one_of(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.just(1), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.just(1)),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(2, 3)),
    ))
    n = math.prod(dims)
    a = NumArray(dims, draw(st.lists(_VALUES, min_size=n, max_size=n)))
    if draw(st.booleans()):
        past_end = st.integers(n + 1, n + 3)  # a vector grows
        sel = draw(st.one_of(*[_selectors(n)] * 5, past_end))
        return a, IndexExpr.linear(sel)
    count = len(dims) + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))  # a wrong rank now and then
    return a, IndexExpr.of(*(draw(_selectors(e)) for e in (list(dims) + [1])[:count]))


@settings(max_examples=600)
@given(_indexed(), st.data())
def test_one_flat_body_matches_the_former_linear_and_cartesian_bodies(aix, data):
    a, ix = aix
    want = outcome(lambda: _former_extract(a, ix))
    assert outcome(lambda: extract(a, ix)) == want
    want_kept = outcome(lambda: _former_delete_elements(a, ix))
    assert outcome(lambda: delete_elements(a, ix)) == want_kept
    if data.draw(st.booleans()):
        rhs = data.draw(_VALUES)
    else:
        shape = want[0] if isinstance(want[0], tuple) else (1, 1)
        k = math.prod(shape)
        shape = data.draw(st.sampled_from([shape, shape[::-1], (1, k), (k, 1), (1, k + 1)]))
        rhs = NumArray(shape, data.draw(st.lists(_VALUES, min_size=math.prod(shape),
                                                 max_size=math.prod(shape))))
    got = outcome(lambda: assign_indexed(a, ix, rhs))
    assert got == outcome(lambda: _former_assign_indexed(a, ix, rhs))


# --- selections of ints, ALL and spans go through basic slices ---

def _count_position_grids(monkeypatch):
    """Calls of core._linear_positions made from indexing, the only caller."""
    calls = []

    def spy(*args):
        calls.append(args)
        return core._linear_positions(*args)

    monkeypatch.setattr(indexing, "_linear_positions", spy)
    return calls


def _ramp(dims):
    return NumArray(dims, np.arange(1.0, math.prod(dims) + 1))


def _same_as_the_position_body(a, ix):
    """extract, delete and scalar and shaped assignment agree with the former bodies."""
    got = outcome(lambda: extract(a, ix))
    assert got == outcome(lambda: _former_extract(a, ix))
    assert outcome(lambda: delete_elements(a, ix)) == outcome(lambda: _former_delete_elements(a, ix))
    rhs = NumArray(got[0], -np.arange(1.0, math.prod(got[0]) + 1)) if isinstance(got[0], tuple) else 7.0
    for value in (-0.0, rhs):
        assert outcome(lambda: assign_indexed(a, ix, value)) == \
            outcome(lambda: _former_assign_indexed(a, ix, value))


def test_ints_all_and_spans_build_no_position_array(monkeypatch):
    calls = _count_position_grids(monkeypatch)
    a = _ramp((30, 5))
    for ix in (IndexExpr.of(7, ALL), IndexExpr.of(span(3, 28), ALL),
               IndexExpr.of(ALL, span(2, END, 2)), IndexExpr.of(span(END, 1, -1), ALL),
               IndexExpr.of(END - 1, span(5, 1, -2))):
        _same_as_the_position_body(a, ix)
    even = IndexExpr.of(ALL, span(2, END, 2))
    flipped = assign_indexed(a, even, flipud(extract(a, even)))
    assert_exact(flipped, _former_assign_indexed(a, even, flipud(_former_extract(a, even))).view())
    assert calls == []
    for sel in ([7, 2], from_rows([[7, 2]]), _ramp((30, 1)) > 20):
        _same_as_the_position_body(a, IndexExpr.of(sel, ALL))
        assert len(calls) >= 1
        calls.clear()


def test_slice_selections_at_rank_3_and_4(monkeypatch):
    calls = _count_position_grids(monkeypatch)
    # steps that do not land on stop, reversed spans and END-relative ends
    for dims, ix in (
        ((4, 3, 5), IndexExpr.of(span(1, 4, 2), ALL, span(5, 1, -3))),
        ((4, 3, 5), IndexExpr.of(END, span(2, 3), span(1, 5, 3))),
        ((4, 3, 5), IndexExpr.of(ALL, 2, 4)),
        ((3, 2, 4, 2), IndexExpr.of(span(3, 1, -1), 2, span(2, END, 3), ALL)),
        ((3, 2, 4, 2), IndexExpr.of(ALL, ALL, ALL, 1)),
    ):
        _same_as_the_position_body(_ramp(dims), ix)
    assert calls == []


def test_spans_past_either_end_name_their_first_outside_position():
    a = _ramp((4, 3, 5))
    for ix, named in (
        (IndexExpr.of(span(0, 3), ALL, 1), "dimension 1: index 0 out of range 1..4"),
        (IndexExpr.of(span(2, 6), ALL, 1), "dimension 1: index 5 out of range 1..4"),
        (IndexExpr.of(1, span(3, -1, -2), 1), "dimension 2: index -1 out of range 1..3"),
        (IndexExpr.of(1, 1, span(END - 5, END)), "dimension 3: index 0 out of range 1..5"),
        (IndexExpr.of(1, 1, span(2, 9, 3)), "dimension 3: index 8 out of range 1..5"),
        (IndexExpr.of(ALL, span(4, 1, -1), ALL), "dimension 2: index 4 out of range 1..3"),
    ):
        for call in (lambda: extract(a, ix), lambda: delete_elements(a, ix),
                     lambda: assign_indexed(a, ix, 0.0)):
            with pytest.raises(IndexBoundsError) as err:
                call()
            assert str(err.value) == named
        _same_as_the_position_body(a, ix)


def test_extract_of_a_column_block_is_a_copy():
    a = _ramp((6, 5))
    for ix in (IndexExpr.of(ALL, span(2, 4)), IndexExpr.of(ALL, 3), IndexExpr.of(ALL, ALL)):
        assert not np.shares_memory(extract(a, ix).buf, a.buf)


# --- any / all / isnan ---

def test_any_all():
    r = from_rows([[5, 60]])
    assert any_true(r < 10)
    r2 = from_rows([[45, 60]])
    assert all_true(r2 > 40)
    empty = zeros((1, 0))
    assert not any_true(empty == 0)
    assert all_true(empty == 0)


def test_isnan_mask():
    finite = magic(4)
    assert isnan_mask(finite).count() == 0
    x = from_rows([[float("nan") + 5.0, 1.0]])
    assert isnan_mask(x).bits.tolist() == [True, False]
