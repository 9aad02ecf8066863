"""Deterministic data generation, equivalence-checked timing, CSV reporting.

Every scenario pairs a scalar-loop variant with one or more vectorized
variants over the same generated inputs. Before any timing, every variant's
result must equal the first's exactly: the same dims and the same values,
with NaN matching NaN (and -0.0 matching 0.0). Agreement is exact, never
approximate: the first difference aborts the scenario with a
VerificationError naming its 1-based subscript. That verification call is
each variant's warm-up: timing is then `reps` sequential calls on a
monotonic clock, single-threaded, with no statistical post-processing: the
harness demonstrates relative structure, not rigorous microbenchmarking.

This gate is one of three equality rules, each kept in one place:
- the gate (_verify_equal): IEEE values, NaN matches NaN, -0.0 matches +0.0;
- loop against vectorized in the test suite, rule L (assert_exact in
  tests/helpers.py): raw bits, except that any NaN matches any NaN;
- kernel against kernel in the test suite, rule K (assert_bits there): raw
  bits, NaN sign and payload included.

The generator is splitmix64 in counter mode: draw i of a stream seeded with
s mixes the 64-bit state s + i * 0x9E3779B97F4A7C15 through two
xor-shift-multiply rounds. Uniform doubles take the top 53 bits / 2^53;
normal deviates come from Box-Muller pairs; bounded integers use rejection
sampling to stay exactly uniform. Identical seeds give identical uniforms and
integers on any platform. Normal deviates follow numpy's SIMD dispatch of
log, cos and sin, which need not match the C library's rounding: AVX-512
np.log differed from libm in 695 of 200,000 draws on a 2-vCPU Xeon (numpy
2.4.6), and with dispatch held to X86_V3 (AVX2) in 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from .core import NumArray, _allocated, _integral, _positive, ind2sub, normalize_dims
from .errors import ArgumentError, VerificationError
from .idioms import (
    boustrophedon_scan,
    distance_matrix,
    rgb2gray,
    rgb2gray_loop,
    zigzag_scan,
)
from .indexing import logical_extract
from .linalg import dot
from .ops import compare, reduce_along_dim

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(1 << 53)


class Prng:
    """Counter-mode splitmix64 stream; one seed, one reproducible sequence."""

    def __init__(self, seed: int):
        self.seed = _integral(seed, "Prng seed")
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        # np.full refuses every count it cannot allocate; np.arange returns an
        # empty array for counts near 2**63
        z = _allocated(f"a draw of {n} numbers", np.full, n, self.seed % 2**64, np.uint64)
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z += idx * _GAMMA
            z ^= z >> np.uint64(30)
            z *= _MIX1
            z ^= z >> np.uint64(27)
            z *= _MIX2
            z ^= z >> np.uint64(31)
        return z

    def uniform(self, dims) -> NumArray:
        """Doubles in [0, 1), filled in column-major buffer order."""
        dims = normalize_dims(dims)
        vals = (self._raw(math.prod(dims)) >> np.uint64(11)).astype(np.float64) / _TWO53
        return NumArray(dims, vals)

    def normal(self, dims) -> NumArray:
        """Standard normal deviates via Box-Muller on uniform pairs."""
        dims = normalize_dims(dims)
        n = math.prod(dims)
        pairs = (n + 1) // 2
        u1 = ((self._raw(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53
        u2 = (self._raw(pairs) >> np.uint64(11)).astype(np.float64) / _TWO53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return NumArray(dims, out[:n])

    def randint(self, lo: int, hi: int, dims) -> NumArray:
        """Integers uniform over lo..hi inclusive (rejection sampling).

        lo and hi must be integral numbers within -2**53..2**53, where every
        integer is a double, so lo + draw is exact. The spread hi - lo + 1
        may be at most 2**53, the most consecutive integers a float64
        result holds exactly.
        """
        lo, hi = _integral(lo, "randint lo"), _integral(hi, "randint hi")
        if lo > hi:
            raise ArgumentError(f"randint needs lo <= hi, got {lo} > {hi}")
        if lo < -(1 << 53) or hi > 1 << 53:
            raise ArgumentError(f"randint bounds must lie in -2**53..2**53, got {lo}..{hi}")
        spread = hi - lo + 1
        if spread > 1 << 53:
            raise ArgumentError(f"randint spread {spread} exceeds 2**53")
        dims = normalize_dims(dims)
        n = math.prod(dims)
        remainder = (1 << 64) % spread
        accepted = [np.empty(0, dtype=np.uint64)]
        need = n
        while need > 0:
            raw = self._raw(max(need, 16))
            if remainder:
                raw = raw[raw < np.uint64((1 << 64) - remainder)]
            good = raw[:need]
            accepted.append(good)
            need -= good.size
        vals = np.concatenate(accepted) % np.uint64(spread)
        return NumArray(dims, vals.astype(np.float64) + float(lo))


def checksum(a: NumArray) -> float:
    """Sum of all result elements; consumed after timing so work can't be elided.

    A result holding both inf and -inf sums to NaN, which is recorded as is.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.sum(a.buf))


def time_it(f: Callable[[], NumArray], reps: int):
    """Wall time of exactly reps sequential calls, with no warm-up of its own.

    run_scenario's verification call is each variant's warm-up. Returns
    (total_seconds, checksum-of-last-result).
    """
    reps = _positive(reps, "reps")
    t0 = time.perf_counter()
    for _ in range(reps):
        result = f()
    total = time.perf_counter() - t0
    return total, checksum(result)


@dataclass(frozen=True)
class TimingRecord:
    scenario: str
    variant: str
    n: int
    reps: int
    total_seconds: float
    seconds_per_rep: float
    checksum: float


@dataclass(frozen=True)
class BenchScenario:
    """Named pairing of variants over shared inputs.

    n is the size reported in every record. setup draws the scenario's
    inputs from the stream and returns the variant closures in report order;
    the first is the reference every other variant must equal exactly.
    """

    name: str
    n: int
    reps: int
    setup: Callable[[Prng], Dict[str, Callable[[], NumArray]]]


def _verify_equal(scenario: str, ref: str, other: str, a: NumArray, b: NumArray):
    """Equal dims and equal values, NaN matching NaN; else name the first difference."""
    if a.dims != b.dims:
        raise VerificationError(
            f"{scenario}: variants {ref!r} vs {other!r} disagree on shape "
            f"{a.dims} vs {b.dims}"
        )
    differs = (a.buf != b.buf) & ~(np.isnan(a.buf) & np.isnan(b.buf))
    if differs.any():
        k = int(np.argmax(differs))
        raise VerificationError(
            f"{scenario}: variants {ref!r} vs {other!r} differ at "
            f"{ind2sub(a.dims, k + 1)}: {float(a.buf[k])!r} vs {float(b.buf[k])!r}"
        )


def run_scenario(s: BenchScenario, seed: int) -> List[TimingRecord]:
    """Verify all variants equal the first, then time each; abort if one differs.

    The verification call is each variant's warm-up, so a variant runs
    reps + 1 times in all.
    """
    variants = s.setup(Prng(seed))
    names = list(variants)
    results = {name: variants[name]() for name in names}
    for other in names[1:]:
        _verify_equal(s.name, names[0], other, results[names[0]], results[other])
    records = []
    for name in names:
        total, cs = time_it(variants[name], s.reps)
        records.append(
            TimingRecord(
                scenario=s.name,
                variant=name,
                n=s.n,
                reps=s.reps,
                total_seconds=total,
                seconds_per_rep=total / s.reps,
                checksum=cs,
            )
        )
    return records


# -- the built-in scenarios ---------------------------------------------------

def _setup_vector_add(n):
    def setup(rng: Prng):
        x = rng.uniform((1, n))

        def loop():
            xs = x.to_list()
            out = [0.0] * len(xs)
            for i in range(len(xs)):
                out[i] = xs[i] + xs[i]
            return NumArray((1, n), out)

        def vectorized():
            return x + x

        return {"loop": loop, "vectorized": vectorized}

    return setup


def _setup_dot_product(n):
    def setup(rng: Prng):
        a = rng.uniform((n, 1))
        b = rng.uniform((n, 1))

        def loop():
            av, bv = a.to_list(), b.to_list()
            r = 0.0
            for i in range(len(av)):
                r += av[i] * bv[i]
            return NumArray((1, 1), [r])

        def vectorized():
            return NumArray((1, 1), [dot(a, b)])

        return {"loop": loop, "vectorized": vectorized}

    return setup


def _setup_mean_above_50(n):
    def setup(rng: Prng):
        r = rng.randint(1, 100, (1, n))

        def loop():
            s = 0.0
            c = 0
            for v in r.to_list():
                if v > 50:
                    s += v
                    c += 1
            return NumArray((1, 1), [s / c])

        def vectorized():
            kept = logical_extract(r, compare(">", r, 50))
            return reduce_along_dim("mean", kept, 1)

        return {"loop": loop, "vectorized": vectorized}

    return setup


def _setup_scan(scan, size):
    def setup(rng: Prng):
        m = rng.randint(1, 100, (size, size))
        return {
            "loop": lambda: scan(m, "loop"),
            "vectorized": lambda: scan(m, "vectorized"),
        }

    return setup


def _setup_distance(n_points, dim):
    def setup(rng: Prng):
        p = rng.uniform((n_points, dim))
        return {
            "loop3": lambda: distance_matrix(p, "loop3"),
            "rowBroadcast": lambda: distance_matrix(p, "rowBroadcast"),
            "fullBroadcast": lambda: distance_matrix(p, "fullBroadcast"),
        }

    return setup


def _setup_grayscale(size):
    def setup(rng: Prng):
        img = rng.randint(0, 255, (size, size, 3))
        return {
            "loop": lambda: rgb2gray_loop(img),
            "vectorized": lambda: rgb2gray(img),
        }

    return setup


def built_in_scenarios(
    vector_n: int = 1_000_000,
    scan_size: int = 512,
    distance_n: int = 300,
    distance_d: int = 5,
    gray_size: int = 64,
) -> Dict[str, BenchScenario]:
    """The stock scenarios; sizes are scaled to finish well under a minute."""
    return {
        "vector-add": BenchScenario("vector-add", vector_n, 1, _setup_vector_add(vector_n)),
        "dot-product": BenchScenario("dot-product", vector_n, 1, _setup_dot_product(vector_n)),
        "mean-above-50": BenchScenario(
            "mean-above-50", vector_n, 1, _setup_mean_above_50(vector_n)
        ),
        "boustrophedon": BenchScenario(
            "boustrophedon", scan_size, 1, _setup_scan(boustrophedon_scan, scan_size)
        ),
        "zigzag": BenchScenario("zigzag", scan_size, 1, _setup_scan(zigzag_scan, scan_size)),
        "distance": BenchScenario(
            "distance", distance_n, 1, _setup_distance(distance_n, distance_d)
        ),
        "grayscale": BenchScenario("grayscale", gray_size, 1, _setup_grayscale(gray_size)),
    }


# -- CSV ------------------------------------------------------------------------

CSV_HEADER = "scenario,variant,n,reps,total_seconds,seconds_per_rep,checksum"


def format_float(x: float) -> str:
    """Six significant digits; scientific notation below 1e-3 in magnitude."""
    if abs(x) < 1e-3:
        return "%.5e" % x
    return "%.6g" % x


def emit_csv(records: List[TimingRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    r.scenario,
                    r.variant,
                    str(r.n),
                    str(r.reps),
                    format_float(r.total_seconds),
                    format_float(r.seconds_per_rep),
                    format_float(r.checksum),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> List[TimingRecord]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ArgumentError("unexpected CSV header")
    out = []
    for ln in lines[1:]:
        scenario, variant, n, reps, total, per_rep, cs = ln.split(",")
        out.append(
            TimingRecord(
                scenario=scenario,
                variant=variant,
                n=int(n),
                reps=int(reps),
                total_seconds=float(total),
                seconds_per_rep=float(per_rep),
                checksum=float(cs),
            )
        )
    return out
