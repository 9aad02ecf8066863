"""Index expressions, logical indexing, deletion, and growth semantics."""

import numpy as np
import pytest

from matkit import (
    ALL,
    END,
    ArgumentError,
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
    span,
    zeros,
)
from matkit.core import wrap_ndarray
from matkit.indexing import End

from helpers import assert_exact


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


def test_span_rejects_fractional_endpoints():
    for args in ((1.5, 3), (1, 3.5), (float("nan"), 3), (1, float("inf"))):
        with pytest.raises(ArgumentError, match="endpoint must be an integer"):
            span(*args)
    assert_exact(magic(4)[span(1.0, 3.0)], [[16, 5, 9]])


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
        assert np.array_equal(back.buf, rhs.buf)


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
    assert np.array_equal(same.buf, a.buf)
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
