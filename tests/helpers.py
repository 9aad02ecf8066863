"""Shared assertion helpers for the suite."""

import numpy as np

from matkit import BoolMask, NumArray
from matkit.core import normalize_dims


def arr(a):
    """The nd view of a NumArray or BoolMask (or pass numpy arrays through)."""
    return a.view() if isinstance(a, (NumArray, BoolMask)) else np.asarray(a)


def double(bits: int) -> float:
    """The double whose IEEE-754 bit pattern is the integer bits."""
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


def _entries(x) -> np.ndarray:
    """x's entries as a bool or float64 ndarray of NumArray's shape: rank at
    least 2, trailing singleton extents beyond rank 2 dropped. x is a NumArray,
    a BoolMask, an ndarray or a nested list; only bool stays bool."""
    v = arr(x)
    if v.dtype != np.bool_:
        v = v.astype(np.float64, copy=False)
    return v.reshape(normalize_dims(v.shape))


def assert_bits(a, expected, msg=""):
    """Rule K, kernel against kernel: the same kind (bool or float64), the same
    shape, then the same raw bits, so a NaN must match in sign and payload too."""
    got, want = _entries(a), _entries(expected)
    assert got.dtype == want.dtype, f"{got.dtype} != {want.dtype} {msg}"
    assert got.shape == want.shape, f"shape {got.shape} != {want.shape} {msg}"
    gb, wb = (np.ravel(v, order="F").view(f"u{v.itemsize}") for v in (got, want))
    differs = gb != wb
    n = int(np.count_nonzero(differs))
    if n:
        k = int(np.argmax(differs))
        at = tuple(int(i) + 1 for i in np.unravel_index(k, got.shape, order="F"))
        width = 2 + 2 * got.itemsize
        raise AssertionError(
            f"{n} entries differ; first at {at}: {int(gb[k]):#0{width}x} != {int(wb[k]):#0{width}x} {msg}"
        )


def assert_exact(a, expected, msg=""):
    """Rule L, loop against vectorized: rule K, except that any NaN matches any
    NaN. -0.0 and +0.0 differ; NaN sign and payload are not compared."""
    got, want = _entries(a), _entries(expected)
    if got.dtype == want.dtype == np.float64 and got.shape == want.shape:
        both = np.isnan(got) & np.isnan(want)
        got, want = np.where(both, np.nan, got), np.where(both, np.nan, want)
    assert_bits(got, want, msg)


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


def outcome(call):
    """What a call did: its result's dims and values as uint64 bits, or its
    exception's class, message and byte offset (None where it has none)."""
    try:
        r = call()
    except Exception as exc:  # the class is part of what is compared
        return type(exc), str(exc), getattr(exc, "offset", None)
    return r.dims, r.buf.view(np.uint64).tolist()
