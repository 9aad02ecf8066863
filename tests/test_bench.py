"""PRNG determinism, timing harness, scenario verification, CSV round trip."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import matkit.bench
from matkit import (
    ArgumentError,
    BenchScenario,
    NumArray,
    Prng,
    VerificationError,
    built_in_scenarios,
    emit_csv,
    from_rows,
    ind2sub,
    parse_csv,
    run_scenario,
    time_it,
)
from matkit.bench import CSV_HEADER, format_float


# --- PRNG ---

def test_same_seed_same_sequence():
    a = Prng(123).uniform((1, 1000))
    b = Prng(123).uniform((1, 1000))
    assert np.array_equal(a.buf, b.buf)


def test_different_seeds_differ():
    a = Prng(1).uniform((1, 100))
    b = Prng(2).uniform((1, 100))
    assert not np.array_equal(a.buf, b.buf)


def test_uniform_range_and_order():
    u = Prng(5).uniform((4, 25))
    assert np.all((u.buf >= 0) & (u.buf < 1))
    # drawing in two chunks continues the same stream
    rng = Prng(5)
    first, second = rng.uniform((1, 60)), rng.uniform((1, 40))
    assert np.array_equal(np.concatenate([first.buf, second.buf]), u.buf)


def test_randint_inclusive_range():
    r = Prng(6).randint(1, 100, (1, 100000))
    assert r.buf.min() >= 1 and r.buf.max() <= 100
    assert np.all(r.buf == np.floor(r.buf))
    # both endpoints actually occur at this sample size
    assert np.any(r.buf == 1) and np.any(r.buf == 100)
    with pytest.raises(ArgumentError):
        Prng(6).randint(5, 4, (1, 1))


def test_randint_rejects_spread_beyond_float64_integers():
    # a 2**64 spread made the rejection threshold 0 and never returned;
    # 2**64 - 1 overflowed uint64 with a raw OverflowError
    for hi in (2**64, 2**64 - 1, 2**53):
        with pytest.raises(ArgumentError, match="2\\*\\*53"):
            Prng(6).randint(0, hi, (1, 4))
    r = Prng(6).randint(0, 2**53 - 1, (1, 1000))
    assert np.all(r.buf == np.floor(r.buf)) and r.buf.max() < 2.0**53


def test_randint_bounds_must_be_integers():
    # int(lo) set the spread but float(lo) was added back, so randint(1.5, 3)
    # drew 1.5, 2.5 and 3.5; a string lo leaked a raw TypeError
    with pytest.raises(ArgumentError, match="not an integer"):
        Prng(1).randint(1.5, 3, (1, 6))
    for lo, hi in (("1", 3), (1, "3"), (None, 3), (True, 3), ([1], 3)):
        with pytest.raises(ArgumentError, match="must be a number"):
            Prng(1).randint(lo, hi, (1, 6))
    r = Prng(1).randint(np.float64(1.0), np.int64(3), (1, 100))
    assert np.array_equal(r.buf, Prng(1).randint(1, 3, (1, 100)).buf)


def test_randint_empty_shape_draws_nothing():
    # np.concatenate of no accepted batches used to raise a raw ValueError
    rng = Prng(6)
    r = rng.randint(1, 9, (0, 4))
    assert r.dims == (0, 4) and r.numel == 0
    assert rng.uniform((0, 4)).dims == (0, 4)
    # an empty draw consumes no stream: the next draw matches a fresh stream
    assert np.array_equal(rng.randint(1, 9, (2, 3)).buf, Prng(6).randint(1, 9, (2, 3)).buf)


def test_normal_sample_statistics():
    z = Prng(7).normal((1, 100000))
    assert abs(z.buf.mean()) < 0.02
    assert abs(z.buf.std() - 1.0) < 0.02


# --- timing ---

def test_time_it_positive_and_deterministic():
    x = Prng(8).uniform((1, 2000))
    secs, cs1 = time_it(lambda: x + x, reps=3)
    _, cs2 = time_it(lambda: x + x, reps=3)
    assert secs > 0
    assert cs1 == cs2
    with pytest.raises(ArgumentError):
        time_it(lambda: x, reps=0)


def test_time_it_scales_with_reps(monkeypatch):
    # a fake clock that advances by exactly 1 on each call of work, so the
    # totals do not depend on how busy the host is
    clock = {"now": 0.0, "calls": 0}
    monkeypatch.setattr(matkit.bench, "time", SimpleNamespace(perf_counter=lambda: clock["now"]))
    x = Prng(9).uniform((1, 3))

    def work():
        clock["now"] += 1.0
        clock["calls"] += 1
        return x + x

    t1, _ = time_it(work, reps=10)
    assert clock["calls"] == 11  # reps + 1: the warm-up call stays untimed
    t2, _ = time_it(work, reps=20)
    assert clock["calls"] == 11 + 21
    assert (t1, t2) == (10.0, 20.0)  # doubling reps doubles time


# --- scenarios ---

def test_zigzag_scenario_records():
    s = built_in_scenarios(scan_size=32)["zigzag"]
    records = run_scenario(s, seed=7)
    assert [r.variant for r in records] == ["loop", "vectorized"]
    assert records[0].checksum == records[1].checksum
    assert all(r.total_seconds > 0 for r in records)
    assert all(r.reps == s.reps for r in records)
    assert all(abs(r.seconds_per_rep - r.total_seconds / r.reps) < 1e-15 for r in records)


def test_distance_scenario_three_variants():
    s = built_in_scenarios(distance_n=40)["distance"]
    records = run_scenario(s, seed=3)
    assert [r.variant for r in records] == ["loop3", "rowBroadcast", "fullBroadcast"]
    assert len({r.checksum for r in records}) == 1


def test_checksums_stable_across_runs():
    s = built_in_scenarios(vector_n=20000)["dot-product"]
    first = run_scenario(s, seed=11)
    second = run_scenario(s, seed=11)
    assert [r.checksum for r in first] == [r.checksum for r in second]
    third = run_scenario(s, seed=12)
    assert [r.checksum for r in third] != [r.checksum for r in first]


# Checksums of every built-in scenario at small sizes with seed 42, recorded
# before the broadcasting, guard, DCT and sort paths were consolidated; a
# kernel refactor must reproduce them exactly.
_SMALL_SIZES = dict(vector_n=1000, scan_size=16, distance_n=20, distance_d=3, gray_size=8)
_SEED42_CHECKSUMS = {
    ("vector-add", "loop"): 979.549364570817,
    ("vector-add", "vectorized"): 979.549364570817,
    ("dot-product", "loop"): 253.14172250110178,
    ("dot-product", "vectorized"): 253.14172250110178,
    ("mean-above-50", "loop"): 76.35236220472441,
    ("mean-above-50", "vectorized"): 76.35236220472441,
    ("boustrophedon", "loop"): 13727.0,
    ("boustrophedon", "vectorized"): 13727.0,
    ("zigzag", "loop"): 13727.0,
    ("zigzag", "vectorized"): 13727.0,
    ("distance", "loop3"): 251.11602132924213,
    ("distance", "rowBroadcast"): 251.11602132924213,
    ("distance", "fullBroadcast"): 251.11602132924213,
    ("grayscale", "loop"): 7486.967,
    ("grayscale", "vectorized"): 7486.967,
}


def test_seed42_checksums_match_recorded_values():
    got = {}
    for s in built_in_scenarios(**_SMALL_SIZES).values():
        for r in run_scenario(s, 42):
            got[(r.scenario, r.variant)] = r.checksum
    assert got == _SEED42_CHECKSUMS


def test_bit_exact_scenarios_verify_at_zero_tolerance():
    scen = built_in_scenarios(vector_n=5000, scan_size=16, gray_size=8)
    for name in ("vector-add", "dot-product", "mean-above-50", "boustrophedon", "grayscale"):
        records = run_scenario(scen[name], seed=21)
        checksums = {r.checksum for r in records}
        assert len(checksums) == 1, name


def test_corrupted_variant_aborts_before_timing():
    def setup(rng):
        x = rng.uniform((1, 50))
        return {
            "good": lambda: x + x,
            "bad": lambda: x + x + 1e-3,
        }

    s = BenchScenario("corrupt", 50, 1, setup)
    with pytest.raises(VerificationError, match="good.*bad|bad.*good"):
        run_scenario(s, seed=1)


def test_shape_mismatch_is_a_verification_error():
    def setup(rng):
        x = rng.uniform((1, 50))
        return {
            "row": lambda: x,
            "col": lambda: x.T,
        }

    s = BenchScenario("mismatch", 50, 1, setup)
    with pytest.raises(VerificationError, match="shape"):
        run_scenario(s, seed=1)


def _pair(ref, other):
    """A scenario whose two variants return the given results."""
    return BenchScenario(
        "pair", ref.numel, 1, lambda rng: {"ref": lambda: ref, "other": lambda: other}
    )


def test_variants_agreeing_on_inf_and_nan_verify():
    # x - (x + 0) is NaN at inf and NaN, so max |delta| read nan and the
    # scenario was rejected
    x = from_rows([[1, math.inf, -math.inf, math.nan, -0.0]])
    records = run_scenario(_pair(x, x + 0), seed=1)
    assert [r.variant for r in records] == ["ref", "other"]


def test_mismatch_names_subscript_and_values():
    a = from_rows([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]])
    b = from_rows([[1, 2, 3, 4], [5, 6, 7.5, 8], [9, 10, 11, 12]])
    want = "'ref' vs 'other' differ at (2, 3): 7.0 vs 7.5"
    with pytest.raises(VerificationError, match=re.escape(want)):
        run_scenario(_pair(a, b), seed=1)


_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def _special_arrays(draw):
    dims = draw(st.one_of(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.just(1), st.integers(0, 6)),
        st.tuples(st.integers(0, 6), st.just(1)),
    ))
    n = dims[0] * dims[1]
    return NumArray(dims, draw(st.lists(_VALUES, min_size=n, max_size=n)))


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@_PROPERTY
@given(st.data())
def test_exact_contract_equal_copies_verify_and_any_change_is_named(data):
    a = data.draw(_special_arrays())
    # an equal copy, with the sign of every zero flipped: -0.0 equals 0.0
    copy = NumArray(a.dims, np.where(a.buf == 0, -a.buf, a.buf))
    assert len(run_scenario(_pair(a, copy), seed=1)) == 2
    if not a.numel:
        return
    k = data.draw(st.integers(0, a.numel - 1))
    old = float(a.buf[k])
    changed = a.buf.copy()
    changed[k] = data.draw(_VALUES.filter(lambda v: not _same(v, old)))
    want = f"differ at {ind2sub(a.dims, k + 1)}:"
    with pytest.raises(VerificationError, match=re.escape(want)):
        run_scenario(_pair(a, NumArray(a.dims, changed)), seed=1)


# --- CSV ---

def test_empty_csv_is_header_only():
    assert emit_csv([]) == CSV_HEADER + "\n"


def test_single_record_two_lines():
    s = built_in_scenarios(gray_size=4)["grayscale"]
    records = run_scenario(s, seed=2)[:1]
    text = emit_csv(records)
    assert len(text.strip().splitlines()) == 2


def test_csv_round_trip():
    scen = built_in_scenarios(vector_n=2000, scan_size=8, distance_n=10, gray_size=4)
    records = []
    for s in scen.values():
        records.extend(run_scenario(s, seed=13))
    text = emit_csv(records)
    parsed = parse_csv(text)
    assert emit_csv(parsed) == text
    assert [p.scenario for p in parsed] == [r.scenario for r in records]
    assert [p.variant for p in parsed] == [r.variant for r in records]
    assert [p.n for p in parsed] == [r.n for r in records]


def test_float_format_rules():
    assert format_float(0.18007) == "0.18007"
    assert format_float(123456.78) == "123457"
    assert format_float(0.00021676) == "2.16760e-04"
    assert "e" in format_float(0.0)
