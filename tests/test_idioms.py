"""Case studies: scans, PCA, distances, nearest neighbor, grayscale, block DCT."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matkit import (
    ArgumentError,
    ContractError,
    NumArray,
    Prng,
    ShapeError,
    blockproc,
    boustrophedon_scan,
    dct2d,
    distance_matrix,
    from_rows,
    full,
    idct2d,
    linear_scan,
    magic,
    matmul,
    metric_euclidean,
    metric_manhattan,
    nearest_neighbor,
    pca,
    replace_neg_nan,
    replace_negative,
    rgb2gray,
    rgb2gray_loop,
    zeros,
    zigzag_scan,
)
from matkit import core, idioms
from matkit.core import wrap_ndarray
from matkit.linalg import dctmtx

from helpers import assert_bits, assert_close, assert_exact, max_abs_diff

LINEAR4 = [16, 5, 9, 4, 2, 11, 7, 14, 3, 10, 6, 15, 13, 8, 12, 1]
BOUSTRO4 = [16, 5, 9, 4, 14, 7, 11, 2, 3, 10, 6, 15, 1, 12, 8, 13]
# hand-executed trace of the zigzag automaton on the 4x4 magic square
ZIGZAG4 = [4, 14, 9, 5, 7, 15, 1, 6, 11, 16, 2, 10, 12, 8, 3, 13]


# --- scans ---

def test_linear_scan_reference():
    m = magic(4)
    for variant in ("loop", "vectorized"):
        got = linear_scan(m, variant)
        assert got.dims == (1, 16)
        assert got.buf.tolist() == LINEAR4


def test_boustrophedon_reference():
    m = magic(4)
    for variant in ("loop", "vectorized"):
        assert boustrophedon_scan(m, variant).buf.tolist() == BOUSTRO4


def test_zigzag_reference_trace():
    m = magic(4)
    assert zigzag_scan(m, "loop").buf.tolist() == ZIGZAG4
    assert zigzag_scan(m, "vectorized").buf.tolist() == ZIGZAG4


def test_scan_degenerate_shapes():
    row = from_rows([[10, 20, 30, 40]])
    assert linear_scan(row).buf.tolist() == [10, 20, 30, 40]
    assert zigzag_scan(row, "loop").buf.tolist() == [10, 20, 30, 40]
    assert zigzag_scan(row, "vectorized").buf.tolist() == [10, 20, 30, 40]
    col = from_rows([[1], [2], [3]])
    assert boustrophedon_scan(col, "loop").buf.tolist() == [1, 2, 3]
    assert boustrophedon_scan(col, "vectorized").buf.tolist() == [1, 2, 3]


def test_scan_loop_equals_vectorized_200_shapes():
    rng = np.random.default_rng(60)
    scans = (linear_scan, boustrophedon_scan, zigzag_scan)
    for _ in range(200):
        m, n = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        a = wrap_ndarray(rng.integers(0, 100, size=(m, n)).astype(float))
        for scan in scans:
            loop = scan(a, "loop")
            vec = scan(a, "vectorized")
            assert loop.dims == vec.dims == (1, m * n)
            assert np.array_equal(loop.buf, vec.buf), scan.__name__


def test_scan_output_is_permutation_of_input():
    rng = np.random.default_rng(61)
    scans = (linear_scan, boustrophedon_scan, zigzag_scan)
    for _ in range(40):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        a = wrap_ndarray(rng.standard_normal((m, n)))
        for scan in scans:
            for variant in ("loop", "vectorized"):
                seq = scan(a, variant)
                assert np.array_equal(np.sort(seq.buf), np.sort(a.buf))


def test_scan_argument_checks():
    with pytest.raises(ArgumentError):
        linear_scan(magic(4), "fast")


# --- pca ---

def test_pca_diagonal_covariance_recovers_axes():
    # centered data with uncorrelated rows: projection only reorders rows
    x = from_rows([[1.0, -1.0, 1.0, -1.0], [4.0, -4.0, -4.0, 4.0]])
    y, p, s = pca(x)
    assert_close(s, [[4.0 / 3, 0], [0, 64.0 / 3]], tol=1e-12)
    assert_exact(p, np.eye(2))
    assert max_abs_diff(y, x) == 0.0


def test_pca_rotated_cloud():
    rng = Prng(42)
    theta = math.pi / 4
    rot = from_rows([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])
    x = matmul(rot, rng.normal((2, 100)) * from_rows([[1.0], [0.1]]))
    y, p, s = pca(x)
    n = 100
    cov_y = matmul(y, y.T) * (1.0 / (n - 1))
    gram = matmul(p.T, p).view()
    assert np.abs(gram - np.eye(2)).max() <= 1e-9
    trace = float(np.trace(cov_y.view()))
    assert abs(cov_y.view()[0, 1]) <= 1e-9 * trace
    assert abs(trace - float(np.trace(s.view()))) <= 1e-9
    variances = np.sort(np.diag(cov_y.view()))
    assert variances[1] >= 50 * variances[0]


def test_pca_preserves_total_variance_randomized():
    rng = Prng(7)
    for _ in range(10):
        x = rng.normal((3, 40))
        y, p, s = pca(x)
        cov_y = matmul(y, y.T) * (1.0 / 39)
        assert abs(float(np.trace(cov_y.view())) - float(np.trace(s.view()))) <= 1e-9


def test_pca_needs_two_samples():
    with pytest.raises(ArgumentError):
        pca(from_rows([[1.0], [2.0]]))


# --- pairwise distances ---

def test_distance_3_4_5():
    p = from_rows([[0, 0], [3, 4]])
    for strategy in ("loop3", "rowBroadcast", "fullBroadcast"):
        assert_exact(distance_matrix(p, strategy), [[0, 5], [5, 0]])


def test_distance_single_point():
    assert_exact(distance_matrix(from_rows([[2.5, 1.5]]), "fullBroadcast"), [[0]])


def test_distance_strategies_agree_300_points():
    p = Prng(42).uniform((300, 5))
    d1 = distance_matrix(p, "loop3")
    d2 = distance_matrix(p, "rowBroadcast")
    d3 = distance_matrix(p, "fullBroadcast")
    for d in (d2, d3):
        assert d.dims == d1.dims
        assert np.array_equal(d.buf.view(np.uint64), d1.buf.view(np.uint64))
    for d in (d1, d2, d3):
        v = d.view()
        assert np.abs(v - v.T).max() <= 1e-12
        assert np.abs(np.diag(v)).max() <= 1e-12
    assert np.all(np.diag(d1.view()) == 0)
    assert np.all(np.diag(d2.view()) == 0)


_STRATEGIES = ("loop3", "rowBroadcast", "fullBroadcast")


@st.composite
def _point_sets(draw):
    n, d = draw(st.integers(0, 40)), draw(st.integers(1, 9))
    mantissa = st.floats(-1.0, 1.0, allow_nan=False)
    value = st.builds(math.ldexp, mantissa, st.integers(-300, 300))  # mixed magnitudes
    return NumArray((n, d), draw(st.lists(value, min_size=n * d, max_size=n * d)))


@settings(max_examples=100)
@given(_point_sets())
def test_distance_strategies_bitwise_equal(p):
    with np.errstate(over="ignore"):
        got = [distance_matrix(p, s) for s in _STRATEGIES]
    for d in got:
        assert d.dims == (p.rows, p.rows)
        assert np.array_equal(d.buf.view(np.uint64), got[0].buf.view(np.uint64))


def test_distance_strategies_agree_on_nan_and_inf():
    p = from_rows([[0, 1], [math.nan, 2], [math.inf, 3], [-math.inf, 4], [1, math.inf]])
    with np.errstate(invalid="ignore"):
        got = [distance_matrix(p, s) for s in _STRATEGIES]
    for d in got[1:]:
        assert d.dims == got[0].dims == (5, 5)
        assert np.array_equal(d.view(), got[0].view(), equal_nan=True)
    assert np.isnan(got[0].view()).any() and np.isinf(got[0].view()).any()


def test_distance_triangle_inequality_sampled():
    p = Prng(8).uniform((40, 3))
    d = distance_matrix(p, "fullBroadcast").view()
    rng = np.random.default_rng(9)
    for _ in range(200):
        i, j, k = rng.integers(0, 40, size=3)
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_row_broadcast_builds_nothing_through_the_validating_constructor(monkeypatch):
    # each of the 300 iterations makes 5 kernel calls; none of them may build
    # through NumArray(dims, buf), whose checks cost more than the arithmetic
    # of a 300x5 call
    p = Prng(42).uniform((300, 5))
    calls = []
    checked = core._init_checked
    monkeypatch.setattr(core, "_init_checked", lambda *args: (calls.append(1), checked(*args)))
    distance_matrix(p, "rowBroadcast")
    assert len(calls) == 0


def test_distance_unknown_strategy():
    with pytest.raises(ArgumentError):
        distance_matrix(from_rows([[0, 0]]), "turbo")


# --- metric handles ---

def test_metric_reference_values():
    a = from_rows([[0, 0]])
    b = from_rows([[3, 4]])
    assert metric_euclidean(a, b).item() == 5.0
    assert metric_manhattan(a, b).item() == 7.0


def test_manhattan_dominates_euclidean():
    rng = Prng(10)
    x, y = rng.uniform((6, 4)), rng.uniform((5, 4))
    de = metric_euclidean(x, y).view()
    dm = metric_manhattan(x, y).view()
    assert de.shape == dm.shape == (6, 5)
    assert np.all(dm >= de - 1e-12)


def test_metric_symmetry_up_to_transpose():
    rng = Prng(11)
    x, y = rng.uniform((6, 3)), rng.uniform((4, 3))
    for metric in (metric_euclidean, metric_manhattan):
        assert max_abs_diff(metric(x, y), metric(y, x).T) <= 1e-12


def test_metric_dimension_mismatch():
    with pytest.raises(ShapeError):
        metric_euclidean(from_rows([[1, 2]]), from_rows([[1, 2, 3]]))


def _loop_pair_sums(x: NumArray, y: NumArray, term, finish=lambda s: s) -> np.ndarray:
    """x.rows x y.rows entries finish(sum of term(x(i,k) - y(j,k)) in ascending k)."""
    (n, d), m = x.dims, y.rows
    xb, yb = x.to_list(), y.to_list()
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0  # terms are never -0.0, so 0.0 + t is t bit for bit
            for k in range(d):
                s += term(xb[k * n + i] - yb[k * m + j])
            out[i, j] = finish(s)
    return out


def _loop_metric_euclidean(x: NumArray, y: NumArray) -> np.ndarray:
    return _loop_pair_sums(x, y, lambda dk: dk * dk, math.sqrt)


def _loop_metric_manhattan(x: NumArray, y: NumArray) -> np.ndarray:
    return _loop_pair_sums(x, y, abs)


_METRIC_TWINS = ((metric_euclidean, _loop_metric_euclidean), (metric_manhattan, _loop_metric_manhattan))


def _assert_loop_bits(got: NumArray, want: np.ndarray):
    """uint64 bits equal everywhere, except that any NaN matches any NaN."""
    assert got.dims == want.shape
    nan = np.isnan(got.view())
    assert np.array_equal(nan, np.isnan(want))
    assert got.view()[~nan].view(np.uint64).tolist() == want[~nan].view(np.uint64).tolist()


def _metric_operand(data, r, c) -> NumArray:
    """r x c plain decimals with at most three entries overwritten by ±0, ±inf or NaN."""
    vals = data.draw(st.lists(st.integers(-10**6, 10**6).map(lambda i: i / 100),
                              min_size=r * c, max_size=r * c))
    specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
    for at, v in data.draw(st.lists(st.tuples(st.integers(0, max(0, r * c - 1)), specials),
                                    max_size=3 if r * c else 0)):
        vals[at] = v
    return NumArray((r, c), vals)


@settings(max_examples=150)
@given(data=st.data())
def test_metrics_match_their_loops_across_blocks(data):
    # blocks of 1, 2, 3 and 7 rows of y, and the real block, which holds all
    # of these small sets; y's rows are often not a multiple of the block
    n, m, d = data.draw(st.tuples(st.integers(0, 5), st.integers(0, 23), st.integers(0, 4)))
    x, y = _metric_operand(data, n, d), _metric_operand(data, m, d)
    rows = data.draw(st.sampled_from([1, 2, 3, 7, None]))
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        if rows is not None:
            mp.setattr(idioms, "_METRIC_BLOCK", rows * max(1, x.numel))
        for metric, loop in _METRIC_TWINS:
            _assert_loop_bits(metric(x, y), loop(x, y))


@pytest.mark.parametrize("n, m, d", [(3, 0, 2), (0, 9, 2), (4, 9, 0), (0, 0, 0), (4, 9, 3)])
@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_metrics_match_their_loops_on_empty_and_small_sets(n, m, d, rows):
    x, y = Prng(40).normal((n, d)), Prng(41).normal((m, d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idioms, "_METRIC_BLOCK", rows * max(1, x.numel))
        for metric, loop in _METRIC_TWINS:
            _assert_loop_bits(metric(x, y), loop(x, y))


def test_metrics_match_their_loops_across_real_blocks():
    # 1100 x 24 points take blocks of 9 rows of y: two whole blocks and a
    # partial third; ±0, ±inf and NaN sit in two rows of x and in rows 9,
    # 10 and 20 of y, at the edges of the blocks
    x, y = Prng(42).normal((1100, 24)), Prng(43).normal((20, 24))
    assert idioms._METRIC_BLOCK // x.numel == 9
    x.buf[[0, 1100, 2200, 3301, 4401]] = [-0.0, math.inf, math.nan, -math.inf, 0.0]
    y.buf[[8, 20 + 9, 40 + 19, 60 + 19]] = [math.inf, -0.0, math.nan, math.inf]
    with np.errstate(invalid="ignore"):
        for metric, loop in _METRIC_TWINS:
            _assert_loop_bits(metric(x, y), loop(x, y))


def test_metric_builds_no_whole_set_difference():
    # the one-line body built a 2000 x 5 x 500 difference and its square,
    # 84 MiB at peak; now the peak is the block results and their join, plus
    # a block's difference and its square
    x, y = Prng(44).normal((2000, 5)), Prng(45).normal((500, 5))
    out_bytes = 2000 * 500 * 8
    for metric in (metric_euclidean, metric_manhattan):
        tracemalloc.start()
        try:
            metric(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * out_bytes + 2 * idioms._METRIC_BLOCK * 8, metric.__name__


# --- nearest neighbor ---

def test_nearest_neighbor_reference():
    x = from_rows([[0, 0], [1, 1], [2, 2]])
    y = from_rows([[0, 1], [2, 1]])
    for metric in (metric_euclidean, metric_manhattan):
        idx, d = nearest_neighbor(x, y, metric)
        assert idx.buf.tolist() == [1, 1, 2]
        assert d.buf.tolist() == [1, 1, 1]


def test_nearest_neighbor_self_match():
    x = Prng(12).uniform((7, 3))
    idx, d = nearest_neighbor(x, x, metric_euclidean)
    assert idx.buf.tolist() == list(range(1, 8))
    assert np.all(d.buf == 0)


def test_nearest_neighbor_matches_brute_force():
    rng = Prng(13)
    x, y = rng.uniform((20, 4)), rng.uniform((9, 4))
    idx, d = nearest_neighbor(x, y, metric_euclidean)
    xv, yv = x.view(), y.view()
    for i in range(20):
        dists = np.sqrt(((xv[i] - yv) ** 2).sum(axis=1))
        want = int(np.flatnonzero(dists == dists.min())[0]) + 1
        assert idx.buf[i] == want


def test_nearest_neighbor_checks_the_metric_result():
    # a 3x3 answer for 2 x 4 points gave a silent 3x1 result, and a list
    # leaked an AttributeError
    x, y = Prng(46).uniform((2, 3)), Prng(47).uniform((4, 3))
    bad = {
        "(3, 3)": lambda a, b: zeros((3, 3)),
        "(4, 2)": lambda a, b: metric_euclidean(b, a),
        "list": lambda a, b: metric_euclidean(a, b).to_list(),
    }
    for got, metric in bad.items():
        with pytest.raises(ContractError, match=re.escape(f"metric returned {got}, expected (2, 4)")):
            nearest_neighbor(x, y, metric)


def _nn_blocks_of_two(x, y, metric=metric_euclidean):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(idioms, "_METRIC_BLOCK", 2 * x.numel)
        return nearest_neighbor(x, y, metric)


def test_nearest_neighbor_across_block_boundaries():
    # blocks of two rows of y: (1, 2), (3, 4), (5, 6), (7)
    y = from_rows([[9, 9], [5, 5], [8, 8], [1, 0], [0, 1], [7, 7], [0, -1]])
    x = from_rows([[0, 0], [math.nan, 0], [6, 6]])
    idx, d = _nn_blocks_of_two(x, y)
    # (0, 0) ties at 1 in blocks 2, 3 and 4; (6, 6) ties at sqrt(2) in
    # blocks 1 and 3; a NaN coordinate makes every distance NaN
    assert idx.buf.tolist() == [4, 1, 2]
    assert_exact(d, [[1], [math.nan], [math.sqrt(2)]])


def test_nearest_neighbor_keeps_the_sign_of_the_first_zero():
    # the same point as rows 1 and 3, in blocks 1 and 2; a row of signs
    # turns the zero distance to one of them into -0.0
    y = from_rows([[2, 3], [5, 5], [2, 3], [8, 8], [9, 9]])
    x = from_rows([[2, 3]])
    for j, want in ((1, -0.0), (3, 0.0)):
        signs = from_rows([[-1.0 if i == j else 1.0 for i in range(1, 6)]])
        idx, d = _nn_blocks_of_two(x, y, lambda a, b: metric_euclidean(a, b) * signs)
        assert idx.item() == 1
        assert d.item() == 0.0 and math.copysign(1.0, d.item()) == math.copysign(1.0, want)


def test_nearest_neighbor_empty_reference():
    with pytest.raises(ArgumentError):
        nearest_neighbor(from_rows([[0, 0]]), zeros((0, 2)), metric_euclidean)


# --- conditional replacement ---

def test_replace_reference_outputs():
    assert_exact(replace_negative(from_rows([[-1, 1, -2, 2, -3, 3]])), [[0, 1, 0, 2, 0, 3]])
    got = replace_neg_nan(from_rows([[0, 1, 2, -1, float("nan"), 3, -2, 4]]))
    assert_exact(got, [[0, 1, 2, 0, 0, 3, 0, 4]])


def test_replace_identity_on_clean_input():
    x = from_rows([[0, 1.5, 2], [3, 4, 5]])
    assert max_abs_diff(replace_neg_nan(x), x) == 0.0
    assert max_abs_diff(replace_negative(x), x) == 0.0


# --- grayscale ---

def test_rgb2gray_reference_pixels():
    assert rgb2gray(full((1, 1, 3), 100.0)).item() == 100.0
    red = wrap_ndarray(np.array([[[255.0, 0.0, 0.0]]]))
    assert abs(rgb2gray(red).item() - 76.245) <= 1e-12


def test_rgb2gray_loop_matches_broadcast_bit_for_bit():
    img = Prng(14).randint(0, 255, (64, 64, 3))
    a = rgb2gray(img)
    b = rgb2gray_loop(img)
    assert a.dims == b.dims == (64, 64)
    assert np.array_equal(a.buf, b.buf)


def test_rgb2gray_channel_check():
    with pytest.raises(ShapeError):
        rgb2gray(zeros((4, 4)))


# --- block processing and 2-D DCT ---

def test_blockproc_identity():
    a = magic(4)
    out = blockproc(a, (2, 2), lambda blk: blk)
    assert max_abs_diff(out, a) == 0.0


def test_blockproc_dc_of_ones():
    t = dctmtx(8)
    out = blockproc(full((8, 8), 1.0), (8, 8), lambda blk: dct2d(blk, t))
    v = out.view()
    assert abs(v[0, 0] - 8.0) <= 1e-12
    rest = v.copy()
    rest[0, 0] = 0.0
    assert np.abs(rest).max() <= 1e-12


def test_blockproc_pads_and_round_trips():
    rng = Prng(15)
    a = rng.uniform((60, 60))
    t = dctmtx(8)
    coeffs = blockproc(a, (8, 8), lambda blk: dct2d(blk, t))
    assert coeffs.dims == (64, 64)
    back = blockproc(coeffs, (8, 8), lambda blk: idct2d(blk, t))
    padded = np.zeros((64, 64))
    padded[:60, :60] = a.view()
    assert max_abs_diff(back, padded) <= 1e-9


def test_blockproc_block_extents_must_be_integers():
    # a fractional extent was truncated: (2.5, 2) silently used 2x2 tiles
    for shape in ((2.5, 2), (2, 1.5), (math.nan, 2), (2, math.inf)):
        with pytest.raises(ArgumentError, match="not an integer"):
            blockproc(magic(4), shape, lambda blk: blk)
    assert max_abs_diff(blockproc(magic(4), (2.0, 4.0), lambda blk: blk), magic(4)) == 0.0


def test_blockproc_block_shape_must_be_a_pair():
    # (8,) leaked an IndexError, 8 a TypeError, and (4, 4, 4) tiled 4 x 4
    for shape in ((8,), 8, (4, 4, 4), [2, 2, 2], ()):
        with pytest.raises(ArgumentError, match=re.escape(f"block shape {shape!r} is not a pair")):
            blockproc(magic(4), shape, lambda blk: blk)
    assert max_abs_diff(blockproc(magic(4), [2, 4], lambda blk: blk), magic(4)) == 0.0


def test_blockproc_refuses_padding_it_cannot_allocate():
    # numpy's refusal of the padded arrays leaked as a raw ValueError
    with pytest.raises(ArgumentError, match="too large to allocate"):
        blockproc(magic(4), (2**62, 2), lambda t: t)


def test_blockproc_contract_violation():
    with pytest.raises(ContractError):
        blockproc(magic(4), (2, 2), lambda blk: zeros((3, 3)))


def test_dct2d_zeros_energy_and_round_trip():
    assert np.all(dct2d(zeros((8, 8))).buf == 0)
    rng = Prng(16)
    x = rng.uniform((8, 8))
    y = dct2d(x)
    assert abs(np.linalg.norm(y.view()) - np.linalg.norm(x.view())) <= 1e-9
    assert max_abs_diff(idct2d(y), x) <= 1e-9


def test_dct2d_mismatched_basis():
    with pytest.raises(ShapeError):
        dct2d(zeros((4, 4)), dctmtx(8))


def test_dct_refuses_a_basis_that_is_not_a_numarray():
    # a list or float leaked AttributeError; a 4 x 4 BoolMask has the block's
    # dims and would pass as a 0/1 matrix
    x = magic(4)
    for t in ([[1.0] * 4] * 4, 2.0, x > 0, "T"):
        for transform in (dct2d, idct2d):
            with pytest.raises(ArgumentError, match=re.escape(
                f"{transform.__name__} transform basis must be a NumArray, got {type(t).__name__}"
            )):
                transform(x, t)


# ±0, ±inf, ±1e308, the least subnormal, and quiet NaNs of both signs with
# two payloads (numpy's default and 0x...123)
_DCT_SPECIALS = np.concatenate((
    [0.0, -0.0, math.inf, -math.inf, 1e308, -1e308, 5e-324],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0xFFF8000000000123],
             dtype=np.uint64).view(np.float64),
))


def _with_specials(rng, x, share):
    hit = rng.random(x.shape) < share
    x[hit] = rng.choice(_DCT_SPECIALS, size=int(hit.sum()))
    return x


def _matmul_sandwich(block, t, inverse):
    left, right = (t.T, t) if inverse else (t, t.T)
    return matmul(matmul(left, block), right)


def _assert_sandwich_bits(block, t):
    # the public composition is the oracle: T X T' and T' Y T as two matmuls
    basis = dctmtx(block.rows) if t is None else t
    assert_bits(dct2d(block, t), _matmul_sandwich(block, basis, False))
    assert_bits(idct2d(block, t), _matmul_sandwich(block, basis, True))


def test_dct_sandwich_is_the_matmul_composition_bit_for_bit():
    rng = np.random.default_rng(19)
    for order in range(1, 13):
        for _ in range(4):
            x = _with_specials(rng, rng.integers(-25500, 25500, size=(order, order)) / 100, 0.15)
            t = _with_specials(rng, rng.normal(size=(order, order)), 0.1)
            for basis in (None, dctmtx(order), wrap_ndarray(t)):
                _assert_sandwich_bits(wrap_ndarray(x), basis)


@pytest.mark.parametrize("dims, r", [((13, 10), 4), ((13, 10), 5), ((9, 9), 8), ((3, 7), 3)])
def test_dct_sandwich_matches_matmul_on_padded_blockproc_tiles(dims, r):
    # the edge tiles carry blockproc's zero padding beside the specials
    rng = np.random.default_rng(20)
    a = wrap_ndarray(_with_specials(rng, rng.integers(0, 25600, size=dims) / 100, 0.2))
    t = dctmtx(r)
    tiles = []
    blockproc(a, (r, r), lambda blk: tiles.append(blk) or blk)
    assert len(tiles) == -(-dims[0] // r) * -(-dims[1] // r)
    for blk in tiles:
        for basis in (None, t):
            _assert_sandwich_bits(blk, basis)
    for transform, inverse in ((dct2d, False), (idct2d, True)):
        assert_bits(blockproc(a, (r, r), lambda blk: transform(blk, t)),
                    blockproc(a, (r, r), lambda blk: _matmul_sandwich(blk, t, inverse)))
