"""Matrix product, solve, Jacobi eigendecomposition, DCT basis, diagonals."""

import math

import numpy as np
import pytest

from matkit import (
    ArgumentError,
    ConvergenceError,
    EigResult,
    ShapeError,
    SingularMatrixError,
    dctmtx,
    dot,
    eig_sym,
    from_rows,
    magic,
    matmul,
    mldivide,
    reshape,
    colon_range,
    spdiags_extract,
    zeros,
)
from matkit.core import wrap_ndarray
from matkit.linalg import _round_robin

from helpers import assert_close, assert_exact, max_abs_diff


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


def test_mldivide_singular():
    s = from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError):
        mldivide(s, from_rows([[1], [1]]))


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


def test_dctmtx_orthonormal():
    t = dctmtx(8)
    resid = np.abs(matmul(t, t.T).view() - np.eye(8)).max()
    assert resid <= 1e-12


def test_dctmtx_dc_row_and_domain():
    t = dctmtx(5)
    assert np.allclose(t.view()[0, :], 1 / math.sqrt(5), atol=0, rtol=0)
    with pytest.raises(ArgumentError):
        dctmtx(0)


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
