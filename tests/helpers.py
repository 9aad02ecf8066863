"""Shared assertion helpers for the suite."""

import numpy as np

from matkit import NumArray


def arr(a):
    """The nd view of a NumArray (or pass numpy arrays through)."""
    return a.view() if isinstance(a, NumArray) else np.asarray(a)


def assert_exact(a, expected, msg=""):
    """Bitwise equality of values and shape, except that any NaN matches any
    NaN: -0.0 and +0.0 differ, and NaN sign and payload are not compared."""
    got = np.asarray(arr(a), dtype=np.float64)
    want = np.asarray(expected, dtype=np.float64)
    assert got.shape == want.shape, f"shape {got.shape} != {want.shape} {msg}"
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64)
    ), f"{got} != {want} {msg}"


def assert_bits(a, expected, msg=""):
    """Shape, then raw uint64 equality: a NaN must match in sign and payload too."""
    got, want = arr(a), np.asarray(arr(expected), dtype=np.float64)
    assert got.shape == want.shape, f"shape {got.shape} != {want.shape} {msg}"
    gb, wb = got.view(np.uint64), want.view(np.uint64)
    bad = np.argwhere(gb != wb)
    assert bad.size == 0, (
        f"{len(bad)} entries differ; first at {tuple(bad[0])}: "
        f"{int(gb[tuple(bad[0])]):#018x} != {int(wb[tuple(bad[0])]):#018x} {msg}"
    )


def assert_close(a, expected, tol=1e-12, msg=""):
    got = arr(a)
    want = np.asarray(expected, dtype=np.float64)
    assert got.shape == want.shape, f"shape {got.shape} != {want.shape} {msg}"
    delta = np.max(np.abs(got - want)) if got.size else 0.0
    assert delta <= tol, f"max |delta| = {delta} > {tol} {msg}"


def max_abs_diff(a, b):
    va, vb = arr(a), arr(b)
    assert va.shape == vb.shape
    return float(np.max(np.abs(va - vb))) if va.size else 0.0
