"""PRNG determinism, timing harness, scenario verification, CSV round trip."""

import numpy as np
import pytest

from matkit import (
    ArgumentError,
    BenchScenario,
    NumArray,
    Prng,
    VerificationError,
    built_in_scenarios,
    emit_csv,
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


def test_time_it_scales_with_reps():
    x = Prng(9).uniform((1, 300000))

    def work():
        return x + x

    t1, _ = time_it(work, reps=10)
    t2, _ = time_it(work, reps=20)
    assert 1.0 <= t2 / t1 <= 3.0  # doubling reps roughly doubles time


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
    ref = records[0].checksum
    for r in records[1:]:
        assert abs(r.checksum - ref) <= 1e-6 * abs(ref)


def test_checksums_stable_across_runs():
    s = built_in_scenarios(vector_n=20000)["dot-product"]
    first = run_scenario(s, seed=11)
    second = run_scenario(s, seed=11)
    assert [r.checksum for r in first] == [r.checksum for r in second]
    third = run_scenario(s, seed=12)
    assert [r.checksum for r in third] != [r.checksum for r in first]


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

    s = BenchScenario("corrupt", (50,), 1, 0.0, 0.0, setup)
    with pytest.raises(VerificationError, match="good.*bad|bad.*good"):
        run_scenario(s, seed=1)


def test_shape_mismatch_is_a_verification_error():
    def setup(rng):
        x = rng.uniform((1, 50))
        return {
            "row": lambda: x,
            "col": lambda: x.T,
        }

    s = BenchScenario("mismatch", (50,), 1, 0.0, 0.0, setup)
    with pytest.raises(VerificationError, match="shape"):
        run_scenario(s, seed=1)


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
