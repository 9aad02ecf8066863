"""Matrix product, solve, Jacobi eigendecomposition, DCT basis, diagonals."""

import contextlib
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matkit import (
    ArgumentError,
    ConvergenceError,
    EigResult,
    NumArray,
    ShapeError,
    SingularMatrixError,
    blockproc,
    dct2d,
    dctmtx,
    dot,
    eig_sym,
    from_rows,
    idct2d,
    magic,
    matmul,
    mldivide,
    reshape,
    colon_range,
    spdiags_extract,
    zeros,
)
from matkit import linalg, ops
from matkit.bench import Prng
from matkit.core import wrap_ndarray
from matkit.idioms import pca
from matkit.linalg import _round_plans, _round_robin

from helpers import assert_bits, assert_close, assert_exact, double, max_abs_diff


# --- matmul ---

def test_matmul_identity():
    a = magic(4)
    eye = wrap_ndarray(np.eye(4))
    assert max_abs_diff(matmul(eye, a), a) == 0.0


def test_matmul_rotation():
    theta = math.pi / 4
    r = from_rows([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    v = matmul(r, from_rows([[1], [0]]))
    assert_close(v, [[0.70711], [0.70711]], tol=1e-5)


def test_matmul_transpose_identity_randomized():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = wrap_ndarray(rng.standard_normal((4, 3)))
        b = wrap_ndarray(rng.standard_normal((3, 5)))
        lhs = matmul(a, b).T
        rhs = matmul(b.T, a.T)
        assert max_abs_diff(lhs, rhs) <= 1e-12


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(zeros((2, 3)), zeros((2, 3)))


def test_matmul_keeps_the_sign_of_a_zero_sum_as_dot_does():
    # matmul folded from +0.0, and 0.0 + -0.0 is +0.0, so it disagreed with dot
    for a, b in (([[-1.0]], [[0.0]]), ([[-0.0, -0.0]], [[1.0], [2.0]]), ([[1.0, -1.0]], [[0.0], [0.0]])):
        a, b = from_rows(a), from_rows(b)
        assert_bits(matmul(a, b), [[dot(a, b.T)]])
    assert_bits(matmul(from_rows([[-1.0]]), from_rows([[0.0]])), [[-0.0]])
    # a lane of -0.0 products among others: a fold from +0.0 gives +0.0 there
    got = matmul(from_rows([[-0.0, -0.0], [1.0, 2.0]]), from_rows([[1.0, 2.0], [1.0, 2.0]]))
    assert_bits(got, [[-0.0, -0.0], [3.0, 6.0]])
    # an empty inner dimension still sums to +0.0
    assert_bits(matmul(zeros((2, 0)), zeros((0, 3))), np.zeros((2, 3)))


def _loop_matmul(a, b) -> np.ndarray:
    """The oracle: each entry a scalar loop in ascending k that starts from the
    k = 1 product; an empty inner extent gives +0.0."""
    (m, k), n = a.dims, b.cols
    va, vb = a.view().tolist(), b.view().tolist()
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if k:
                acc = va[i][0] * vb[0][j]
                for t in range(1, k):
                    acc = acc + va[i][t] * vb[t][j]
                out[i, j] = acc
    return out


_MATMUL_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan,
                    1e308, -1e308, 1.7e308, -1.7e308, 1e-308, -1e-308, 2.2e-308, 5e-324]


def _matmul_operand(data, r, c) -> NumArray:
    """r x c plain decimals, whose sums round, so a change of order shows; some
    entries are then overwritten with ±0, ±inf, NaN or values near 1e±308."""
    decimals = st.integers(-10**6, 10**6).map(lambda i: i / 100)
    vals = data.draw(st.lists(decimals, min_size=r * c, max_size=r * c))
    if vals:
        at = st.integers(0, len(vals) - 1)
        for k, v in data.draw(st.lists(st.tuples(at, st.sampled_from(_MATMUL_SPECIALS)))):
            vals[k] = v
    return NumArray((r, c), vals)


@pytest.mark.parametrize("shape", [
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    st.just((8, 8, 8)),
    st.tuples(st.just(1), st.integers(0, 64), st.just(1)),
], ids=["mkn", "8x8", "1xk"])
@settings(max_examples=100)
@given(data=st.data())
def test_matmul_matches_the_ascending_triple_loop_bit_for_bit(shape, data):
    m, k, n = data.draw(shape)
    a, b = _matmul_operand(data, m, k), _matmul_operand(data, k, n)
    got = matmul(a, b)
    assert got.dims == (m, n)
    assert_exact(got, _loop_matmul(a, b))  # NaN matches NaN, whatever its bits


def _slab_operand(data, r, c) -> NumArray:
    """r x c plain decimals with at most two entries overwritten by ±0, ±inf
    or NaN, so that most products still have finite, rounding entries."""
    vals = data.draw(st.lists(st.integers(-10**6, 10**6).map(lambda i: i / 100),
                              min_size=r * c, max_size=r * c))
    specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
    for at, v in data.draw(st.lists(st.tuples(st.integers(0, r * c - 1), specials), max_size=2)):
        vals[at] = v
    return NumArray((r, c), vals)


@settings(max_examples=150)
@given(data=st.data())
def test_matmul_matches_the_loop_across_slab_boundaries(data):
    # small slabs: with r = max(1, _SLAB // (m*n)) k-slices per slab, short
    # inner extents end on a partial slab, or take one k-slice per slab
    m, k, n = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 24), st.integers(1, 3)))
    a, b = _slab_operand(data, m, k), _slab_operand(data, k, n)
    slab = data.draw(st.sampled_from([1, 2, 3, 5, 8, ops._SLAB]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "_SLAB", slab)
        got = matmul(a, b)
    assert_exact(got, _loop_matmul(a, b))


@pytest.mark.parametrize("m, k, n", [(8, 300, 8), (2, 20000, 2), (3, 9000, 2), (130, 3, 130)])
def test_matmul_across_real_slab_boundaries(m, k, n):
    # slabs of 256 k-slices, the second partial; four of 2**12 and a partial
    # fifth; three of 2730 and a partial fourth; one k-slice per slab
    a = Prng(29).normal((m, k))
    b = Prng(31).normal((k, n))
    # ±0, ±inf and NaN only in a's last row and b's last column, so the other
    # entries stay finite sums whose rounding shows the order
    a.buf[m - 1] = -0.0  # the k = 1 slice
    a.buf[m * (k // 2) + m - 1] = math.nan
    b.buf[-2:] = [-math.inf, math.inf]  # the last two k-slices
    assert_exact(matmul(a, b), _loop_matmul(a, b))


def test_matmul_with_an_empty_result_never_folds(monkeypatch):
    # 0 x 3 and 3 x 0 results walked all 10**5 k-slices, at about 2.5 us each
    def boom(*args):
        raise AssertionError("the fold ran for an empty result")

    monkeypatch.setattr(ops, "_fold_into", boom)
    for (m, n) in ((0, 3), (3, 0), (0, 0)):
        out = matmul(zeros((m, 10**5)), zeros((10**5, n)))
        assert out.dims == (m, n) and out.numel == 0


def _nan(sign, payload):
    return double((sign << 63) | (0x7FF8 << 48) | payload)


def test_numpys_reduce_from_minus_zero_is_the_in_place_fold():
    # matmul folds its first slab with np.add.reduce(slab, axis=0,
    # initial=-0.0); numpy sums a strided leading axis one row at a time, so
    # each lane is the ascending fold from its first product. Without
    # initial the reduce starts from +0.0, and a lane of -0.0 sums to +0.0.
    specials = [0.0, -0.0, math.inf, -math.inf, _nan(0, 1), _nan(1, 5), _nan(0, 99), _nan(1, 1234)]
    rng = np.random.default_rng(23)
    lanes = [(1, 2), (2, 1), (3, 3), (8, 8), (5, 9), (1, 8191), (8193, 1), (64, 200)]
    for trial in range(48):
        m, n = lanes[trial % len(lanes)]
        k = int(rng.integers(2, 9))
        s = rng.integers(-10**6, 10**6, size=(k, m, n)) / 100
        hit = rng.random(s.shape) < 0.05
        s[hit] = rng.choice(specials, size=int(hit.sum()))
        s[:, 0, 0] = -0.0  # a lane of -0.0 only
        acc = s[0].copy()
        with np.errstate(all="ignore"):
            for t in range(1, k):
                np.add(acc, s[t], acc)
            got = np.add.reduce(s, axis=0, initial=-0.0)
        assert_bits(got, acc, (k, m, n))


def test_a_one_lane_product_is_a_dot_product(monkeypatch):
    # numpy's reduce sums a single lane pairwise, so a 1 x k by k x 1 product
    # goes through dot's ascending scan: one step per slab, never one per k
    def boom(*args):
        raise AssertionError("a one-lane product took the per-k fold")

    monkeypatch.setattr(ops, "_fold_into", boom)
    for k in (1, 2, 3, 10**5):
        a, b = Prng(k).normal((1, k)), Prng(k + 1).normal((k, 1))
        a.buf[k // 2] = -0.0
        if k == 2:
            a.buf[0] = math.nan
        got = matmul(a, b)
        assert_bits(got, [[dot(a, b)]])
        assert_exact(got, _loop_matmul(a, b))


def test_a_product_of_one_k_slice_is_its_outer_product():
    a = from_rows([[0.0], [-0.0], [math.nan], [2.5], [-math.inf]])
    b = from_rows([[-0.0, 0.0, math.nan, 3.0, -1.5]])
    assert_exact(matmul(a, b), _loop_matmul(a, b))


def _two_multiply_fold(av, bv) -> np.ndarray:
    """The reference fold for k >= 2 and 2 <= m*n <= ops._SLAB // 2: the
    k = 1 product always by its own 2-D multiply, the rest of the first slab
    by a 3-D one, one reduce from -0.0, then each later slab added in place,
    one k at a time."""
    (m, k), n = av.shape, bv.shape[1]
    at, vb = av.T, np.ascontiguousarray(bv)
    r = ops._SLAB // (m * n)
    slab = np.empty((min(r, k), m, n))
    np.multiply(at[0, :, None], vb[0, None, :], out=slab[0])
    np.multiply(at[1:r, :, None], vb[1:r, None, :], out=slab[1:])
    acc = np.add.reduce(slab, axis=0, initial=-0.0)
    for k0 in range(r, k, r):
        s = slab[:k - k0]
        np.multiply(at[k0:k0 + r, :, None], vb[k0:k0 + r, None, :], out=s)
        for t in s:
            np.add(acc, t, acc)
    return acc


def _nan_laced(rng, r, c, k1) -> np.ndarray:
    """r x c decimals with ±0, ±inf, ±1e308 and NaNs of both signs and many
    payloads. Half of the k = 1 line k1 (a's first column or b's first row)
    is NaN, so that two NaNs meet in many k = 1 products. The layout is C,
    Fortran or reversed strides."""
    x = rng.integers(-10**6, 10**6, size=(r, c)) / 100
    hit = rng.random(x.shape) < 0.1
    x[hit] = rng.choice([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308], size=int(hit.sum()))
    hit = rng.random(x.shape) < 0.05
    hit[k1] |= rng.random(hit[k1].shape) < 0.5
    sign = rng.integers(0, 2, int(hit.sum()), dtype=np.uint64) << np.uint64(63)
    payload = rng.integers(1, 1 << 40, int(hit.sum()), dtype=np.uint64)
    x[hit] = (sign | np.uint64(0x7FF8 << 48) | payload).view(np.float64)
    layout = rng.integers(3)
    if layout == 1:
        return np.asfortranarray(x)
    return np.ascontiguousarray(x[::-1, ::-1])[::-1, ::-1] if layout == 2 else x


def test_product_keeps_the_two_multiply_bits_nan_included():
    # one 3-D multiply forms the first slab only when n is a multiple of 8:
    # otherwise numpy's 2-D loop returns the other NaN in its scalar tail.
    # Single slabs fall on both sides of the 2**12 doubles below which they
    # are not line-aligned; with k > r the first slab is one of several.
    rng = np.random.default_rng(24)
    with np.errstate(all="ignore"):
        for trial in range(800):
            n = int(rng.choice([8, 16, 24, 32] if trial % 2 else [1, 2, 3, 4, 5, 7, 12, 13, 20]))
            m = int(rng.integers(1 if n > 1 else 2, 13))
            r = ops._SLAB // (m * n)
            k = int(rng.integers(2, min(r, 200) + 1)) if trial % 3 else int(rng.integers(r + 1, 2 * r + 9))
            av, bv = _nan_laced(rng, m, k, np.s_[:, 0]), _nan_laced(rng, k, n, np.s_[0])
            assert_bits(linalg._product(av, bv), _two_multiply_fold(av, bv), f"{m}x{k}x{n}")


@pytest.mark.parametrize("r", [2, 5, 6, 7, 13])
def test_later_slab_folds_keep_the_bits_around_the_cut_over(monkeypatch, r):
    # with ops._SLAB = r*m*n every slab holds r k-slices: a later slab of
    # fewer than _REDUCE_SLICES is added in place, a larger one is reduced
    # from -0.0 with the running sum as its row 0; both are the per-k fold
    rng = np.random.default_rng(26 + r)
    with np.errstate(all="ignore"):
        for trial in range(60):
            m, n = int(rng.integers(2, 6)), int(rng.choice([1, 3, 8, 13]))
            monkeypatch.setattr(ops, "_SLAB", r * m * n)
            k = int(rng.integers(r + 1, 4 * r + 3))
            av, bv = _nan_laced(rng, m, k, np.s_[:, 0]), _nan_laced(rng, k, n, np.s_[0])
            assert_bits(linalg._product(av, bv), _two_multiply_fold(av, bv), f"{m}x{k}x{n} r={r}")


@pytest.mark.parametrize("m, k, n, steps", [
    (2, 20000, 2, 0), (1, 10**5, 2, 0), (50, 40, 50, 0), (55, 40, 55, 7), (80, 400, 80, 199),
])
def test_only_slabs_of_few_k_slices_are_added_in_place(monkeypatch, m, k, n, steps):
    # a later slab of 4096 k-slices (2 x 20000 x 2) took 4096 in-place adds,
    # and a 1 x 10**5 by 10**5 x 2 product about 35 ms; now a slab of 6 or
    # more (50 x 40 x 50) is one reduce, and a slab of 5 (55 x 40 x 55) or 2
    # (80 x 400 x 80) still takes one ops._fold_into per slab
    calls = []
    real = ops._fold_into
    monkeypatch.setattr(ops, "_fold_into", lambda *args: calls.append(args) or real(*args))
    av, bv = Prng(m).normal((m, k)).view(), Prng(n + 1).normal((k, n)).view()
    with np.errstate(all="ignore"):
        got = linalg._product(av, bv)
    assert len(calls) == steps
    assert_bits(got, _two_multiply_fold(av, bv))


def test_only_reused_or_large_slabs_are_line_aligned(monkeypatch):
    # a slab used once that holds at most 2**12 doubles fits L1, where
    # alignment cost more than it saved; a k = 1 product needs no slab
    shapes = []
    real = linalg._line_aligned
    monkeypatch.setattr(linalg, "_line_aligned", lambda shape: shapes.append(shape) or real(shape))
    for (m, k, n), aligned in [((80, 400, 80), True), ((200, 200, 200), True), ((24, 24, 24), True),
                               ((8, 8, 8), False), ((8, 64, 8), False), ((5, 1, 7), False)]:
        shapes.clear()
        matmul(Prng(m).normal((m, k)), Prng(n + 1).normal((k, n)))
        assert bool(shapes) == aligned, (m, k, n, shapes)


@pytest.mark.parametrize("transform, inverse", [(dct2d, False), (idct2d, True)])
def test_dct_sandwich_is_the_ascending_loop_bit_for_bit(transform, inverse):
    # T X T' (T' Y T for the inverse) through two products, each the
    # ascending triple loop; blocks of order 1..9 carry ±0, ±inf and NaN
    rng = np.random.default_rng(17)
    for order in range(1, 10):
        t = dctmtx(order)
        left, right = (t.T, t) if inverse else (t, t.T)
        for _ in range(3):
            x = rng.integers(-25500, 25500, size=(order, order)) / 100
            hit = rng.random(x.shape) < 0.15
            x[hit] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], size=int(hit.sum()))
            block = wrap_ndarray(x)
            want = _loop_matmul(wrap_ndarray(_loop_matmul(left, block)), right)
            assert_exact(transform(block, t), want)


def test_products_give_ieee_results_without_warnings():
    # these raised under the suite's error::RuntimeWarning filter
    inf = math.inf
    row, col = from_rows([[inf, -inf]]), from_rows([[1.0], [1.0]])
    assert math.isnan(dot(row, col))
    assert_exact(matmul(row, col), [[math.nan]])
    big = from_rows([[1e308, 1e308]])
    assert dot(big, col) == inf
    assert dot(from_rows([[1e200]]), from_rows([[1e200]])) == inf
    assert_exact(matmul(big, col), [[inf]])
    # a single slab with rows of 8, formed by one 3-D multiply: 1e308 + 1e308
    # overflows in the reduce, and inf * 0 is NaN in the multiply
    a = from_rows([[1e308, 1e308, 1.0], [inf, 2.0, 1.0]])
    b = from_rows([[1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0] * 8, [1.0] * 8])
    got = matmul(a, b)
    assert got.view()[0, 0] == inf and math.isnan(got.view()[1, 1])
    assert_exact(got, _loop_matmul(a, b))


# --- numpy's ufunc buffer around long rows ---

def _buffer_calls():
    """(call, error) pairs of matmul, mldivide, eig_sym and a long-row
    subtract: each call returns or raises error. The singular solve raises
    inside the small-buffer scope."""
    big = Prng(3).normal((200, 200))
    a = Prng(4).normal((80, 80)).view().copy()
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    zero_col = a.copy()
    zero_col[:, 40] = 0.0
    b = Prng(6).normal((80, 1))
    s = wrap_ndarray(_random_symmetric(40, 48))
    return [
        (lambda: matmul(big, big), None),
        (lambda: matmul(Prng(7).normal((8, 8)), Prng(8).normal((8, 8))), None),
        (lambda: mldivide(wrap_ndarray(a), b), None),
        (lambda: eig_sym(s), None),
        (lambda: big - Prng(12).normal((1, 200)), None),
        (lambda: mldivide(wrap_ndarray(zero_col), b), SingularMatrixError),
        (lambda: eig_sym(s, max_sweeps=1), ConvergenceError),
        (lambda: matmul(big, Prng(9).normal((100, 200))), ShapeError),
        (lambda: mldivide(wrap_ndarray(a), Prng(10).normal((81, 1))), ShapeError),
        (lambda: eig_sym(Prng(11).normal((3, 4))), ShapeError),
    ]


@pytest.mark.parametrize("caller, inert", [(None, False), (1024, False), (None, True)])
def test_the_small_buffer_never_leaks_to_the_caller(caller, inert, monkeypatch):
    # numpy's default buffer, or one the caller set in its own errstate scope,
    # is the buffer after every call, also after a raise. With inert, every
    # later np.errstate scope restores nothing, as numpy 1.x's restores only
    # the error flags and not the buffer
    scope = np.errstate
    if inert:
        monkeypatch.setattr(np, "errstate", lambda **kwargs: contextlib.nullcontext())
    with scope():
        if caller:
            np.setbufsize(caller)
        want = np.getbufsize()
        assert want == (caller or 8192)
        for call, error in _buffer_calls():
            if error:
                with pytest.raises(error):
                    call()
            else:
                call()
            assert np.getbufsize() == want
    assert np.getbufsize() == 8192


def test_only_long_rows_set_the_buffer(monkeypatch):
    sizes = []
    real = np.setbufsize
    monkeypatch.setattr(np, "setbufsize", lambda size: sizes.append(size) or real(size))

    def calls(f, *args):
        sizes.clear()
        out = f(*args)
        return out, list(sizes)

    t = dctmtx(8)
    rng = np.random.default_rng(28)
    img = wrap_ndarray(_nan_laced(rng, 24, 32, np.s_[:, 0]))
    tv, iv = t.view(), img.view()
    with np.errstate(all="ignore"):
        for transform, (left, right) in ((dct2d, (tv, tv.T)), (idct2d, (tv.T, tv))):
            out, made = calls(blockproc, img, (8, 8), lambda blk: transform(blk, t))
            assert made == []
            # each tile's bits, NaN sign and payload included, are the
            # two-multiply fold's under numpy's default buffer
            for i in range(0, 24, 8):
                for j in range(0, 32, 8):
                    tile = iv[i:i + 8, j:j + 8]
                    want = _two_multiply_fold(_two_multiply_fold(left, tile), right)
                    assert_bits(out.view()[i:i + 8, j:j + 8], want, f"{transform.__name__} {i},{j}")
    scoped = [ops._ROW_BUFFER, 8192]  # the small buffer, then the caller's back
    for (m, k, n), made in [((8, 8, 8), []), ((40, 400, 40), []), ((80, 400, 63), []),
                            ((2, 3, 64), scoped), ((200, 200, 200), scoped)]:
        assert calls(matmul, Prng(m).normal((m, k)), Prng(n).normal((k, n)))[1] == made, (m, k, n)
    for n, made in [(63, []), (64, scoped), (300, scoped)]:
        a = Prng(n).normal((n, n)).view() + n * np.eye(n)
        assert calls(mldivide, wrap_ndarray(a), Prng(n + 1).normal((n, 1)))[1] == made, n
    assert calls(eig_sym, wrap_ndarray(_random_symmetric(40, 48)))[1] == []
    # ops: a subtract, divide or comparison that repeats an operand along the
    # rows of a result with at least ops._ROW_BUFFER rows and more than one
    # default buffer of entries
    long_rows, row = Prng(13).normal((300, 300)), Prng(14).normal((1, 300))
    assert calls(ops.ew_binary, "-", long_rows, row)[1] == scoped
    assert calls(ops.compare, "<", row, long_rows)[1] == scoped
    for op in ("+", "*", "^"):
        assert calls(ops.ew_binary, op, long_rows, row)[1] == [], op
    for a, b in [((300, 5), (1, 5)), ((80, 400), (80, 1)), ((63, 300), (1, 300))]:
        assert calls(ops.ew_binary, "-", Prng(15).normal(a), Prng(16).normal(b))[1] == [], (a, b)
    mask = ops.compare(">", long_rows, 0.0)
    assert calls(ops.merge, mask, long_rows, row)[1] == []
    assert calls(ops.ew_binary, "-", long_rows, 1.0)[1] == []
    assert calls(ops.ew_unary, "sqrt", long_rows)[1] == []


@pytest.mark.parametrize("n", [64, 65, 100, 129, 200])
def test_long_row_products_keep_the_fold_bits_nan_included(n):
    # rows of at least _ROW_BUFFER are folded under that buffer, where a NaN
    # can carry other bits than under numpy's default: every bit, NaN sign
    # and payload included, is the reference fold's under the same buffer
    rng = np.random.default_rng(640 + n)
    with np.errstate(all="ignore"):
        for trial in range(40):
            m = int(rng.integers(1, ops._SLAB // (2 * n) + 1))
            r = ops._SLAB // (m * n)
            k = int(rng.integers(2, min(r, 200) + 1)) if trial % 3 else int(rng.integers(r + 1, 2 * r + 9))
            av, bv = _nan_laced(rng, m, k, np.s_[:, 0]), _nan_laced(rng, k, n, np.s_[0])
            got = linalg._product(av, bv)
            with np.errstate():
                np.setbufsize(ops._ROW_BUFFER)
                want = _two_multiply_fold(av, bv)
            assert_bits(got, want, f"{m}x{k}x{n}")


@pytest.mark.parametrize("order", [65, 72])
@pytest.mark.parametrize("transform, inverse", [(dct2d, False), (idct2d, True)])
def test_dct_sandwich_past_the_row_buffer_is_two_matmuls(transform, inverse, order):
    rng = np.random.default_rng(order)
    t = dctmtx(order)
    left, right = (t.T, t) if inverse else (t, t.T)
    for _ in range(3):
        x = wrap_ndarray(_nan_laced(rng, order, order, np.s_[:, 0]))
        assert_bits(transform(x, t), matmul(matmul(left, x), right))


# --- dot ---

def test_dot_reference_value():
    a = from_rows([[1], [2], [3]])
    b = from_rows([[3], [2], [1]])
    assert dot(a, b) == 10.0  # 3 + 4 + 3


def test_dot_zero_and_mismatch():
    a = from_rows([[1], [2]])
    assert dot(a, zeros((2, 1))) == 0.0
    with pytest.raises(ShapeError):
        dot(a, zeros((3, 1)))


def test_dot_matches_scalar_loop_bit_for_bit():
    from matkit import Prng
    rng = Prng(55)
    for _ in range(10):
        a = rng.uniform((997, 1))
        b = rng.uniform((997, 1))
        acc = 0.0
        av, bv = a.to_list(), b.to_list()
        for i in range(len(av)):
            acc += av[i] * bv[i]
        assert dot(a, b) == acc


def test_dot_is_the_ascending_loop_across_slabs():
    # one ascending path with reduce_along_dim: several slabs, signed zeros kept
    from matkit import Prng, ops
    a, b = Prng(56).normal((3 * ops._SLAB + 5, 1)), Prng(57).normal((3 * ops._SLAB + 5, 1))
    p = [x * y for x, y in zip(a.to_list(), b.to_list())]
    acc = p[0]
    for x in p[1:]:
        acc = acc + x
    assert np.float64(dot(a, b)).view(np.uint64) == np.float64(acc).view(np.uint64)
    neg_zero = dot(from_rows([[-1.0]]), from_rows([[0.0]]))
    assert neg_zero == 0.0 and math.copysign(1.0, neg_zero) == -1.0


# --- mldivide ---

def test_mldivide_examples():
    eye = wrap_ndarray(np.eye(2))
    assert_exact(mldivide(eye, from_rows([[4], [5]])), [[4], [5]])
    d = from_rows([[2, 0], [0, 4]])
    assert_exact(mldivide(d, from_rows([[2], [8]])), [[1], [2]])


def test_mldivide_residual_bound_50x50():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = wrap_ndarray(np.eye(50) + 0.1 * rng.standard_normal((50, 50)))
        b = wrap_ndarray(rng.standard_normal((50, 1)))
        x = mldivide(a, b)
        resid = np.max(np.abs(a.view() @ x.view() - b.view()))
        bound = 1e-8 * (
            np.abs(a.view()).sum(axis=1).max() * np.abs(x.view()).max()
            + np.abs(b.view()).max()
        )
        assert resid <= bound


@pytest.mark.parametrize("n", [1, 2, 5, 20, 60, 150])
def test_mldivide_matches_scipy_solve(n):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)  # diagonally dominant: well conditioned
    b = rng.standard_normal((n, 1))
    x = mldivide(wrap_ndarray(a), wrap_ndarray(b)).view()
    ref = scipy_linalg.solve(a, b)
    # Both are LU solves with partial pivoting, hence backward stable: each
    # solution is within about n * cond(A) * eps of the true one, relative to
    # its size, so twice that bounds their difference.
    tol = 2 * n * np.linalg.cond(a, 1) * np.finfo(float).eps * np.abs(ref).max()
    assert np.abs(x - ref).max() <= tol


def test_mldivide_singular():
    s = from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        mldivide(s, from_rows([[1], [1]]))


def _loop_mldivide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The oracle of mldivide: LU with partial pivoting, one scalar at a time.

    The pivot is the first largest magnitude at or below the diagonal, in
    ascending row order, and a zero pivot raises SingularMatrixError naming
    its column. Each row of the back substitution sums its products in
    ascending column order, from the first product."""
    n = len(a)
    lu, x = a.tolist(), [row[0] for row in b.tolist()]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))  # the first of equals
        if lu[p][k] == 0.0:
            raise SingularMatrixError(f"zero pivot in column {k + 1}")
        lu[k], lu[p] = lu[p], lu[k]
        x[k], x[p] = x[p], x[k]
        for i in range(k + 1, n):
            l = lu[i][k] = lu[i][k] / lu[k][k]
            for j in range(k + 1, n):
                lu[i][j] = lu[i][j] - l * lu[k][j]
            x[i] = x[i] - l * x[k]
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            acc = lu[k][k + 1] * x[k + 1]
            for j in range(k + 2, n):
                acc = acc + lu[k][j] * x[j]
            x[k] = x[k] - acc
        x[k] = x[k] / lu[k][k]
    return np.array(x).reshape(n, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64, 70])
def test_mldivide_is_its_scalar_loop_bit_for_bit(n):
    rng = np.random.default_rng(2800 + n)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 1))
    b[::3] = -0.0
    dominant = a + np.diag(np.abs(a).sum(axis=1) + 1.0)
    ties = np.round(a * 2) / 2 + np.eye(n) / 8  # equal magnitudes: the first is the pivot
    for x in (a, dominant, ties, a * 1e150, a * 1e-150):
        assert_bits(mldivide(wrap_ndarray(x), wrap_ndarray(b)), _loop_mldivide(x, b))


def test_mldivide_gives_the_loops_ieee_results_without_warnings():
    # each raised a RuntimeWarning under the suite's error::RuntimeWarning filter
    inf, nan = math.inf, math.nan
    for a, b, want in (
        ([[1e308, 1e308], [1e308, -1e308]], [[1], [1]], [[1e-308], [-0.0]]),  # overflow in the update
        ([[inf, 1], [inf, 2]], [[1], [1]], [[nan], [nan]]),  # inf / inf in the multiplier
        ([[1e-300, 0], [0, 1]], [[1e300], [1]], [[inf], [1]]),  # overflow in the last divide
        ([[2, 1], [1, 3]], [[nan], [inf]], [[nan], [nan]]),
    ):
        a, b = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
        got = mldivide(wrap_ndarray(a), wrap_ndarray(b))
        assert_exact(got, want)
        assert_exact(got, _loop_mldivide(a, b))
    # n = 64 eliminates under _row_buffered: inf - inf in the updates, and a
    # column of tiny entries whose last divide overflows
    rng = np.random.default_rng(64)
    a = rng.standard_normal((64, 64))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    b = rng.standard_normal((64, 1))
    b_inf, b_big, a_tiny = b.copy(), b.copy(), a.copy()
    b_inf[[3, 40], 0] = [1e308, inf]
    a_tiny[:, 0] *= 1e-300
    b_big[:4, 0] = [1e300, -1e300, 0.0, 1.0]
    for x, y in ((a, b_inf), (a_tiny, b_big)):
        assert_exact(mldivide(wrap_ndarray(x), wrap_ndarray(y)), _loop_mldivide(x, y))


@pytest.mark.parametrize("n", [2, 5, 70])
def test_mldivide_fails_at_the_loops_column(n):
    rng = np.random.default_rng(2900 + n)
    a = rng.standard_normal((n, n))
    b = wrap_ndarray(rng.standard_normal((n, 1)))
    zero_col, twin_rows = a.copy(), a.copy()
    zero_col[:, n // 2] = 0.0
    twin_rows[n - 1] = twin_rows[0]  # the copy becomes an exact zero row
    for x in (zero_col, twin_rows):
        with pytest.raises(SingularMatrixError) as want:
            _loop_mldivide(x, b.view())
        with pytest.raises(SingularMatrixError) as got:
            mldivide(wrap_ndarray(x), b)
        assert str(got.value) == str(want.value)


# --- symmetric eigendecomposition ---

def test_eig_diagonal():
    e = eig_sym(from_rows([[2, 0], [0, 3]]))
    assert_exact(e.values, [[2], [3]])
    assert_exact(e.vectors, np.eye(2))
    # an unsorted diagonal comes back exactly: sorted values, permuted basis
    diag = np.array([3.0, -1.5, 0.25, 7.0, -1.5])
    e = eig_sym(wrap_ndarray(np.diag(diag)))
    order = np.argsort(diag, kind="stable")
    assert_exact(e.values, diag[order].reshape(-1, 1))
    assert_exact(e.vectors, np.eye(diag.size)[:, order])
    v = e.vectors.view()
    assert np.array_equal(v @ np.diag(e.values.buf) @ v.T, np.diag(diag))
    assert (e.sweeps, e.off_norm) == (0, 0.0)


def test_eig_analytic_2x2():
    e = eig_sym(from_rows([[0, 1], [1, 0]]))
    assert_close(e.values, [[-1], [1]], tol=1e-12)
    s = 1.0 / math.sqrt(2.0)
    assert_close(e.vectors, [[s, s], [-s, s]], tol=1e-12)


def test_eig_invariants_randomized():
    rng = np.random.default_rng(43)
    for _ in range(100):
        d = int(rng.integers(2, 13))
        raw = rng.standard_normal((d, d))
        s = wrap_ndarray((raw + raw.T) / 2)
        e = eig_sym(s)
        v = e.vectors.view()
        vals = e.values.buf
        norm = np.abs(s.view()).sum(axis=1).max()
        assert np.abs(v.T @ v - np.eye(d)).max() <= 1e-12
        assert np.abs(s.view() @ v - v * vals[None, :]).max() <= 1e-9 * norm
        assert np.all(np.diff(vals) >= 0)


def test_eig_sign_normalization():
    rng = np.random.default_rng(44)
    raw = rng.standard_normal((6, 6))
    e = eig_sym(wrap_ndarray((raw + raw.T) / 2))
    v = e.vectors.view()
    for j in range(6):
        assert v[np.argmax(np.abs(v[:, j])), j] > 0


def test_eig_rejects_asymmetric():
    with pytest.raises(ArgumentError):
        eig_sym(from_rows([[1, 2], [0, 1]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eig_rejects_non_finite():
    with pytest.raises(ArgumentError, match="NaN or inf"):
        eig_sym(from_rows([[1, math.inf], [math.inf, 2]]))
    with pytest.raises(ArgumentError, match="NaN or inf"):
        eig_sym(from_rows([[1, 0], [0, math.nan]]))


def test_eig_rejects_an_overflowing_norm():
    # the norm overflowed to inf, so every threshold was inf and eig_sym
    # returned the diagonal [1e308, 1e308] with identity vectors after 0 sweeps
    with pytest.raises(ArgumentError, match="infinity norm"):
        eig_sym(from_rows([[1e308, 1e308], [1e308, 1e308]]))
    with pytest.raises(ArgumentError, match="not symmetric"):
        eig_sym(from_rows([[0, 1e308], [-1e308, 0]]))


@pytest.mark.parametrize("d", [2, 3, 7, 8, 40])
def test_round_robin_schedule_covers_each_pair_once(d):
    rounds = _round_robin(d)
    assert len(rounds) == d - 1 + d % 2
    seen = []
    for p, q in rounds:
        assert np.all(p < q) and np.all(q < d)
        members = np.concatenate((p, q))
        assert np.unique(members).size == members.size  # disjoint pairs
        seen += list(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(d) for q in range(p + 1, d)]
    # eig_sym's plans: the same pairs in the same order, cached and read-only
    plans = _round_plans(d)
    assert _round_plans(d) is plans
    # eig_sym's working array: row j holds column j of m, then column j of v
    m = np.arange(d * d, dtype=float).reshape(d, d)
    flat = np.hstack((m.T, np.eye(d))).reshape(-1)
    assert len(plans) == len(rounds)
    for (p, q), plan in zip(rounds, plans):
        pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
        assert plan.h == p.size
        for got, want in ((plan.p, p), (plan.q, q), (plan.pq, pq),
                          (plan.both, np.concatenate((pq, qp)))):
            assert np.array_equal(got, want)
        assert np.array_equal(flat[plan.at], m[p, q])
        assert np.array_equal(flat[plan.diag], m[pq, pq])
        assert np.array_equal(flat[plan.zero], m[pq, qp])
        for a in plan:
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0


def _loop_eig_sym(a: np.ndarray):
    """The oracle of eig_sym: the same Jacobi sweeps one scalar at a time.

    Each round computes every kept pair's (c, s) from the matrix as the round
    found it, then rotates the columns of m and v, then the rows of m, then
    zeroes the pairs. The schedule is the circle method with index n-1 fixed.
    The row sums of the norm are sequential here and pairwise in numpy; the
    norm only sets the threshold, so they could differ only for a pair that
    sits on it. Returns (vectors, values, sweeps, off_norm).
    """
    d = len(a)
    norm = max((sum(abs(x) for x in row) for row in a.tolist()), default=0.0)
    e = math.frexp(norm)[1]
    m = [[math.ldexp(x, -e) for x in row] for row in a.tolist()]
    v = [[float(i == j) for j in range(d)] for i in range(d)]
    thresh = math.ldexp(1e-12 * norm, -e)
    n = d + d % 2
    rounds = []
    for r in range(n - 1):
        ends = [(n - 1, r)] + [((r + k) % (n - 1), (r - k) % (n - 1)) for k in range(1, n // 2)]
        rounds.append([(min(x, y), max(x, y)) for x, y in ends if x < d and y < d])

    def off_diag():
        return max((abs(m[i][j]) for i in range(d) for j in range(d) if i != j), default=0.0)

    sweeps, off = 0, off_diag()
    while off > thresh:
        for pairs in rounds:
            turns = []
            for p, q in pairs:
                if abs(m[p][q]) > thresh:
                    tau = (m[q][q] - m[p][p]) / (2.0 * m[p][q])
                    t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    turns.append((p, q, c, t * c))
            for p, q, c, s in turns:
                for row in m + v:
                    row[p], row[q] = c * row[p] - s * row[q], c * row[q] + s * row[p]
            for p, q, c, s in turns:
                m[p], m[q] = ([c * x - s * y for x, y in zip(m[p], m[q])],
                              [c * y + s * x for x, y in zip(m[p], m[q])])
            for p, q, c, s in turns:
                m[p][q] = m[q][p] = 0.0
        sweeps += 1
        off = off_diag()
    vals = [math.ldexp(m[i][i], e) for i in range(d)]
    order = sorted(range(d), key=vals.__getitem__)
    vectors = []
    for j in order:
        col = [row[j] for row in v]
        top = max(range(d), key=lambda i: abs(col[i]))
        vectors.append([-x for x in col] if col[top] < 0 else col)
    return (np.array(vectors).T.reshape(d, d), np.array([vals[j] for j in order]).reshape(d, 1),
            sweeps, math.ldexp(off, e))


@pytest.mark.parametrize("d", range(1, 13))
def test_eig_sym_is_its_scalar_loop_bit_for_bit(d):
    rng = np.random.default_rng(4700 + d)
    raw = rng.standard_normal((d, d))
    s = (raw + raw.T) / 2
    blocks = s.copy()  # zero off-diagonal blocks: their pairs are skipped
    blocks[: d // 2, d // 2:] = blocks[d // 2:, : d // 2] = 0.0
    banded = np.triu(np.tril(s, 2), -2)  # skipped pairs in every sweep
    ties = np.round(s * 2) / 2  # equal diagonals give tau = 0 or -0
    signed_zeros = np.diag(np.where(np.diag(s) > 0, np.diag(s), -0.0))
    for x in (s, blocks, banded, ties, signed_zeros, s * 1e300, s * 1e-300):
        e = eig_sym(wrap_ndarray(x))
        vectors, values, sweeps, off_norm = _loop_eig_sym(x)
        assert_bits(e.vectors, vectors)
        assert_bits(e.values, values)
        assert e.sweeps == sweeps
        assert_bits([[e.off_norm]], [[off_norm]])


def _pca_digests(seed: int) -> dict:
    """SHA-256 per order of the uint64 bits of pca's (y, p, s), then of
    eig_sym(s)'s values, sweeps and off_norm, on linalg-pca's inputs."""
    rng = Prng(seed)
    out = {}
    for d in (40, 80):
        scale = np.linspace(0.5, 2.0, d).reshape(-1, 1)
        y, p, s = pca(wrap_ndarray(rng.normal((d, 400)).view() * scale))
        e = eig_sym(s)
        h = hashlib.sha256()
        for x in (y, p, s, e.values):
            h.update(x.buf.view(np.uint64).tobytes())
        h.update(struct.pack("<qd", e.sweeps, e.off_norm))
        out[d] = h.hexdigest()
    return out


# computed before eig_sym's rounds gathered their pairs once per phase; a
# faster round must give the same bits
_PCA_DIGESTS = {
    42: {40: "66ca42420e234aa9c86f21ef48ab516a444e337d9d7b745e5de7d83daf5ffe0f",
         80: "cb0feb424091c73a35b5a9b3e1b2e21c763700d0fe554e2e4d608be97dc27f61"},
    7: {40: "bc9e3a2d56991de6ad84ad46669fb09cf39c64d676a69ca78e28a5773559007d",
        80: "8d750f561783f370b69c5671bed4d39ffc7efb507b1aa1703a773f21eacee578"},
}


@pytest.mark.parametrize("seed", sorted(_PCA_DIGESTS))
def test_pca_at_workload_size_keeps_its_bits(seed):
    assert _pca_digests(seed) == _PCA_DIGESTS[seed]


def _random_symmetric(d, seed):
    raw = np.random.default_rng(seed).standard_normal((d, d))
    return (raw + raw.T) / 2


@pytest.mark.parametrize("d", [1, 2, 3, 7, 40, 80])
def test_eig_matches_scipy_eigh(d):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    s = _random_symmetric(d, 47 + d)
    e = eig_sym(wrap_ndarray(s))
    v, vals = e.vectors.view(), e.values.buf
    norm = np.abs(s).sum(axis=1).max()
    assert np.abs(vals - scipy_linalg.eigh(s)[0]).max() <= 1e-9 * norm
    assert np.abs(v.T @ v - np.eye(d)).max() <= 1e-12
    assert np.abs(s @ v - v * vals[None, :]).max() <= 1e-9 * norm
    assert e.off_norm <= 1e-12 * norm
    assert e.sweeps >= (1 if d > 1 else 0)


def test_eig_degenerate_spectra():
    d = 6
    for s, expect in [
        (np.zeros((d, d)), np.zeros(d)),
        (np.eye(d), np.ones(d)),
    ]:
        e = eig_sym(wrap_ndarray(s))
        assert_exact(e.values, expect.reshape(d, 1))
        assert_exact(e.vectors, np.eye(d))
        assert (e.sweeps, e.off_norm) == (0, 0.0)
    u = np.arange(1.0, d + 1)
    s = np.eye(d) + np.outer(u, u)
    e = eig_sym(wrap_ndarray(s))
    v, vals = e.vectors.view(), e.values.buf
    expect = np.r_[np.ones(d - 1), 1.0 + u @ u]
    assert np.abs(vals - expect).max() <= 1e-12 * np.abs(s).sum(axis=1).max()
    assert np.abs(v.T @ v - np.eye(d)).max() <= 1e-12
    assert np.abs(np.abs(v[:, -1]) - u / np.linalg.norm(u)).max() <= 1e-12


def test_eig_near_the_top_of_the_double_range_matches_scipy():
    # m[q, q] - m[p, p] overflowed to -inf, so the rotation was the identity
    # and the values came back as the diagonal, [-1e308, 1e308]
    scipy_linalg = pytest.importorskip("scipy.linalg")
    s = np.array([[1e308, 1e307], [1e307, -1e308]])
    e = eig_sym(wrap_ndarray(s))
    ref = scipy_linalg.eigh(s)[0]
    assert np.abs(e.values.buf - ref).max() <= 1e-15 * np.abs(ref).max()
    v = e.vectors.view()
    assert np.abs(v.T @ v - np.eye(2)).max() <= 1e-15
    assert e.off_norm <= 1e-12 * 1.1e308


def test_eig_max_sweeps_must_be_an_integer():
    # "x" leaked a raw TypeError; 1.5 and NaN were used as sweep caps
    s = from_rows([[2, 1], [1, 2]])
    for bad, match in (("x", "must be a number"), (1.5, "not an integer"),
                       (math.nan, "not an integer"), (True, "must be a number")):
        with pytest.raises(ArgumentError, match=match):
            eig_sym(s, bad)
    assert eig_sym(s, 5.0).sweeps == eig_sym(s).sweeps


def test_eig_sweep_cap_raises():
    s = wrap_ndarray(_random_symmetric(10, 48))
    with pytest.raises(ConvergenceError, match="exceeded 1 "):
        eig_sym(s, max_sweeps=1)
    assert eig_sym(s).sweeps > 1


def test_eig_result_diagnostics_default():
    e = EigResult(vectors=zeros((1, 1)), values=zeros((1, 1)))
    assert (e.sweeps, e.off_norm) == (0, 0.0)


# --- DCT basis ---

def test_dctmtx_order_2():
    s = 0.70711
    assert_close(dctmtx(2), [[s, s], [s, -s]], tol=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 31, 64, 128])
def test_dctmtx_matches_scipy_dct_of_the_identity(n):
    scipy_fft = pytest.importorskip("scipy.fft")
    ref = scipy_fft.dct(np.eye(n), norm="ortho", axis=0)
    # dctmtx rounds each cosine argument pi * (2j + 1) * i / (2n), which is
    # below pi * n, three times: an error up to 1.5 * pi * n * eps that cos
    # passes on scaled by sqrt(2 / n), i.e. 1.5 * pi * sqrt(2n) * eps. scipy's
    # FFT-based transform adds a few ulp of its own.
    tol = (1.5 * math.pi * math.sqrt(2 * n) + 4) * np.finfo(float).eps
    assert np.abs(dctmtx(n).view() - ref).max() <= tol


def test_dctmtx_orthonormal():
    t = dctmtx(8)
    resid = np.abs(matmul(t, t.T).view() - np.eye(8)).max()
    assert resid <= 1e-12


def test_dctmtx_dc_row_and_domain():
    t = dctmtx(5)
    assert np.allclose(t.view()[0, :], 1 / math.sqrt(5), atol=0, rtol=0)
    with pytest.raises(ArgumentError):
        dctmtx(0)


def test_dctmtx_order_is_an_integer_not_a_bool():
    # dctmtx(True) returned a 1x1 basis
    with pytest.raises(ArgumentError, match="must be a number"):
        dctmtx(True)
    assert_exact(dctmtx(4.0), dctmtx(4).view())


def test_dctmtx_refuses_orders_it_cannot_allocate():
    # a raw numpy ValueError leaked; numpy refuses 2**70 before allocating
    with pytest.raises(ArgumentError, match="too large"):
        dctmtx(2**70)


def test_dct_round_trip_via_basis():
    rng = np.random.default_rng(45)
    t = dctmtx(8)
    x = wrap_ndarray(rng.standard_normal((8, 8)))
    y = matmul(matmul(t, x), t.T)
    back = matmul(matmul(t.T, y), t)
    assert max_abs_diff(back, x) <= 1e-9


# --- diagonal extraction ---

def test_spdiags_reference_columns():
    a = reshape(colon_range(1, 1, 16), (4, 4))
    band = spdiags_extract(a)
    assert band.offsets == tuple(range(-3, 4))
    v = band.bands.view()
    assert v[:, band.offsets.index(0)].tolist() == [1, 6, 11, 16]
    assert v[:, band.offsets.index(-3)].tolist() == [0, 0, 0, 4]
    assert v[:, band.offsets.index(3)].tolist() == [13, 0, 0, 0]


def test_spdiags_row_vector():
    band = spdiags_extract(from_rows([[7, 8, 9]]))
    assert band.bands.dims == (1, 3)
    assert band.bands.view().tolist() == [[7, 8, 9]]


def test_spdiags_places_each_diagonal_as_the_loop_does():
    # square, wide and tall (whose bands have three placement regions):
    # offset d >= 0 from the top of its column, d < 0 ending at the bottom,
    # zeros elsewhere; -0.0 and a NaN sit in the two corners
    rng = np.random.default_rng(47)
    shapes = [(m, n) for m in range(1, 13) for n in range(1, 13)] + [(512, 512), (40, 7), (7, 40)]
    for m, n in shapes:
        x = rng.standard_normal((m, n))
        x[0, -1], x[-1, 0] = -0.0, math.nan
        band = spdiags_extract(wrap_ndarray(x))
        rows = min(m, n)
        want = np.zeros((rows, m + n - 1))
        for k, d in enumerate(range(-(m - 1), n)):
            cells = [x[i, i + d] for i in range(m) if 0 <= i + d < n]
            top = 0 if d >= 0 else rows - len(cells)
            want[top:top + len(cells), k] = cells
        assert band.offsets == tuple(range(-(m - 1), n)), (m, n)
        assert_bits(band.bands, want, f"{m} x {n}")


def test_spdiags_of_empty_shapes():
    # no diagonal has an entry: the bands have no rows, one column per offset
    for dims, offsets in (((0, 3), (1, 2)), ((3, 0), (-2, -1)), ((0, 0), ())):
        band = spdiags_extract(zeros(dims))
        assert band.offsets == offsets
        assert band.bands.dims == (0, len(offsets))


def test_spdiags_partitions_all_elements():
    rng = np.random.default_rng(46)
    for _ in range(40):
        m, n = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        a = wrap_ndarray(rng.integers(1, 50, size=(m, n)).astype(float))
        band = spdiags_extract(a)
        picked = band.bands.buf[band.bands.buf != 0]
        assert np.array_equal(np.sort(picked), np.sort(a.buf))
        assert band.offsets == tuple(range(-(m - 1), n))
        assert band.bands.dims == (min(m, n), m + n - 1)
