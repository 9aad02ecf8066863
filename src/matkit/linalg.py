"""Matrix product, linear solve, symmetric eigendecomposition, DCT matrix,
and diagonal extraction.

The product accumulates in ascending inner-index order so that a dot product
is bit-for-bit identical to the sequential scalar loop over the same data.
The eigensolver is a Jacobi iteration in Brent-Luk round-robin order: each
round rotates a set of disjoint index pairs in one vectorized update. It only
handles symmetric input, which is all the covariance-style workloads here
need, and it hands back orthonormal vectors by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NumArray, wrap_ndarray
from .errors import ArgumentError, ConvergenceError, ShapeError, SingularMatrixError


def matmul(a: NumArray, b: NumArray) -> NumArray:
    """Standard matrix product; inner accumulation in ascending-k order."""
    if a.rank != 2 or b.rank != 2:
        raise ShapeError("matmul needs rank-2 operands")
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dims differ: {a.dims} by {b.dims}")
    va, vb = a.view(), b.view()
    acc = np.zeros((a.rows, b.cols))
    for k in range(a.cols):
        acc = acc + np.outer(va[:, k], vb[k, :])
    return wrap_ndarray(acc)


def dot(a: NumArray, b: NumArray) -> float:
    """Inner product of two equal-length vectors, summed in ascending order."""
    if not (a.rank == 2 and (a.rows == 1 or a.cols == 1)):
        raise ShapeError(f"dot needs vectors, got {a.dims}")
    if not (b.rank == 2 and (b.rows == 1 or b.cols == 1)):
        raise ShapeError(f"dot needs vectors, got {b.dims}")
    if a.numel != b.numel:
        raise ShapeError(f"dot length mismatch: {a.numel} vs {b.numel}")
    if a.numel == 0:
        return 0.0
    return float(np.cumsum(a.buf * b.buf)[-1])


def mldivide(a: NumArray, b: NumArray) -> NumArray:
    """Solve the square system Ax = b by LU with partial pivoting."""
    if a.rank != 2 or a.rows != a.cols:
        raise ShapeError(f"mldivide needs a square matrix, got {a.dims}")
    n = a.rows
    if not (b.rank == 2 and b.rows == n and b.cols == 1):
        raise ShapeError(f"mldivide rhs must be {n}x1, got {b.dims}")
    lu = a.view().copy()
    x = b.buf.copy()
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0.0:
            raise SingularMatrixError(f"zero pivot in column {k + 1}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            x[[k, p]] = x[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
        x[k + 1:] -= lu[k + 1:, k] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return NumArray((n, 1), x)


@dataclass(frozen=True)
class EigResult:
    """Eigenvectors as columns, eigenvalues ascending as a column vector.

    sweeps counts the Jacobi sweeps applied; off_norm is the largest
    off-diagonal magnitude left when the iteration stopped.
    """

    vectors: NumArray
    values: NumArray
    sweeps: int = 0
    off_norm: float = 0.0


def _inf_norm(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=1).max())


def _off_diag_max(m: np.ndarray) -> float:
    if m.shape[0] < 2:
        return 0.0
    return float(np.abs(m - np.diag(np.diag(m))).max())


def _round_robin(d: int) -> list:
    """One Jacobi sweep over order d as rounds of disjoint (P, Q) index pairs.

    Circle method: index n-1 stays fixed while the others rotate, so n-1
    rounds of n/2 pairs meet every pair exactly once. An odd d is padded with
    a bye index d, and pairs holding the bye are dropped. Within a pair P < Q.
    """
    n = d + d % 2
    k = np.arange(1, n // 2)
    rounds = []
    for r in range(n - 1):
        a = np.concatenate(([n - 1], (r + k) % (n - 1)))
        b = np.concatenate(([r], (r - k) % (n - 1)))
        keep = (a < d) & (b < d)
        rounds.append((np.minimum(a, b)[keep], np.maximum(a, b)[keep]))
    return rounds


def eig_sym(s: NumArray, max_sweeps: int = 100) -> EigResult:
    """Eigendecomposition of a symmetric matrix by round-robin Jacobi rotations.

    Each sweep runs the d-1 rounds of the Brent-Luk round-robin ordering;
    a round rotates up to d/2 disjoint (p, q) pairs at once, skipping pairs
    whose off-diagonal magnitude is already below the threshold. Sweeps run
    until every off-diagonal magnitude falls below 1e-12 times the input's
    infinity norm (capped at max_sweeps). Values come back ascending; each
    vector is sign-normalized so its largest-magnitude component is positive.
    """
    if s.rank != 2 or s.rows != s.cols:
        raise ShapeError(f"eig_sym needs a square matrix, got {s.dims}")
    d = s.rows
    a = s.view()
    if not np.isfinite(a).all():
        raise ArgumentError("eig_sym input holds NaN or inf")
    norm = _inf_norm(a)
    if _inf_norm(a - a.T) > 1e-9 * norm:
        raise ArgumentError("eig_sym input is not symmetric")
    # m on top of v: one column rotation of w turns the columns of both.
    w = np.vstack((a, np.eye(d)))
    m, v = w[:d], w[d:]
    thresh = 1e-12 * norm
    rounds = _round_robin(d)
    sweeps = 0
    off = _off_diag_max(m)
    while off > thresh:
        if sweeps >= max_sweeps:
            raise ConvergenceError(
                f"Jacobi sweeps exceeded {max_sweeps} (off-diagonal {off:.3e})"
            )
        for p, q in rounds:
            apq = m[p, q]
            big = np.abs(apq) > thresh
            if not big.all():
                p, q, apq = p[big], q[big], apq[big]
                if p.size == 0:
                    continue
            tau = (m[q, q] - m[p, p]) / (2.0 * apq)
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            sn = t * c
            # Column p gets c*x_p - sn*x_q and column q gets c*x_q + sn*x_p.
            pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
            cc, ss = np.concatenate((c, c)), np.concatenate((sn, -sn))
            w[:, pq] = w[:, pq] * cc - w[:, qp] * ss
            m[pq, :] = cc[:, None] * m[pq, :] - ss[:, None] * m[qp, :]
            m[pq, qp] = 0.0
        sweeps += 1
        off = _off_diag_max(m)
    vals = np.diag(m).copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    v = v[:, order]
    for j in range(d):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
    return EigResult(
        vectors=wrap_ndarray(v),
        values=NumArray((d, 1), vals),
        sweeps=sweeps,
        off_norm=off,
    )


def dctmtx(n: int) -> NumArray:
    """Orthonormal DCT-II basis matrix of order n.

    Row 1 is the constant 1/sqrt(n); row i >= 2, column j holds
    sqrt(2/n) * cos(pi * (2j - 1) * (i - 1) / (2n)) with 1-based indices.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ArgumentError(f"dctmtx order must be a positive integer, got {n!r}")
    i, j = np.mgrid[0:n, 0:n]
    t = math.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * i / (2.0 * n))
    t[0, :] = 1.0 / math.sqrt(n)
    return wrap_ndarray(t)


@dataclass(frozen=True)
class DiagBand:
    """All diagonals of a matrix, one zero-padded column per diagonal.

    Column k holds the diagonal with offset offsets[k] (entries A(i, i+d)
    in ascending i); offsets run -(m-1) .. n-1, bottom-left to top-right.
    Diagonals with offset >= 0 sit at the top of their column, the rest at
    the bottom; the padding position is irrelevant to every consumer here,
    which drops the zero cells.
    """

    bands: NumArray
    offsets: tuple


def spdiags_extract(a: NumArray) -> DiagBand:
    """Arrange every diagonal of a rank-2 array as a band-matrix column."""
    if a.rank != 2:
        raise ShapeError(f"spdiags_extract needs a rank-2 array, got {a.dims}")
    m, n = a.dims
    v = a.view()
    rows = min(m, n)
    offsets = tuple(range(-(m - 1), n))
    bands = np.zeros((rows, len(offsets)))
    for k, d in enumerate(offsets):
        diag = np.diagonal(v, offset=d)
        if d >= 0:
            bands[: diag.size, k] = diag
        else:
            bands[rows - diag.size:, k] = diag
    return DiagBand(bands=wrap_ndarray(bands), offsets=offsets)
