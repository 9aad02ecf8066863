#!/usr/bin/env python3
"""matkit benchmark: one workload, one process, one thread, one caller.

    python3 perfbench/run.py --workload idioms-vec --seed 42 --seconds 24 --trace 0

Runs the workload's pass in a closed loop (the next pass starts when the
previous one and its output checks are done) for ``--seconds`` and prints
one JSON line as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced run (see README.md). A fuller record with the
environment stamp is written to ``.perfbench_out/`` in the checkout.
``--seconds`` defaults to ``run_seconds`` in the checkout's BENCHMARK.json.

Must be started from, or located in, a checkout holding ``src/matkit``.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 42
# Never used while writing or tuning a change; re-check claims on it.
HELD_OUT_SEED = 8191
# Set-up is measured this many times per run and reported as the median:
# once in the measuring process and otherwise in child processes (`import
# matkit` happens once per process), started one at a time between passes
# at even intervals of the loop, so the samples span the whole run.
SETUP_SAMPLES = 5
# After each timed pass the loop runs the reference kernel (`reference_unit`)
# for at least this share of the pass's time; see `items_per_ref_s`.
REF_SHARE = 0.25
# One reference second is the time the host takes for this many reference
# units (about one second on a quiet 2-vCPU Xeon host).
REF_UNITS_PER_REF_S = 100


def _fail(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def _quantiles(values):
    """(p50, p90) of the values, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0]
    qs = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), qs[8]


class Tally:
    """Calls attempted and failed; a failure is counted, never retried."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()  # failed call (or raised exception) -> times

    @property
    def failed(self):
        return sum(self.failures.values())

    def add(self, attempted, failed_names):
        self.attempted += attempted
        self.failures.update(failed_names)


def _one_pass(wl, mk, inputs, oracle, tally):
    """Run one pass, then check its outputs; return its wall seconds."""
    out = {}
    t0 = time.perf_counter()
    try:
        wl.run_pass(mk, inputs, out)
    except Exception as exc:  # a raising call is a counted failure, not a crash
        tally.add(1, [f"raised {type(exc).__name__}: {exc}"])
    elapsed = time.perf_counter() - t0
    attempted, failed = wl.check(inputs, oracle, out)
    tally.add(attempted, failed)
    return elapsed


class _RefCell:
    def __init__(self, a, meta):
        self.a = a
        self.meta = meta


_REF_VEC = np.linspace(0.0, 1.0, 4096)
_REF_MAT = np.cos(np.arange(64 * 64, dtype=float)).reshape(64, 64) / 8.0
_REF_TILE = np.sin(np.arange(64, dtype=float)).reshape(8, 8)
_REF_BIG = np.linspace(0.0, 1.0, 1 << 19)


def reference_unit():
    """A fixed piece of work that calls no matkit code: the host's yardstick.

    It mixes the costs a matkit pass is made of (interpreted Python, small
    numpy allocations and ufunc dispatch, objects holding arrays, small and
    mid-size BLAS products, streaming a 4 MiB array), so when the shared
    host runs slower it slows much as a pass does.
    """
    s = 0
    for i in range(25000):
        s += i * i % 7
    y = _REF_VEC
    for _ in range(200):
        y = np.sqrt(y * y + 1.0)
    for _ in range(60):
        _REF_MAT @ _REF_MAT
    cells = []
    for i in range(750):
        b = np.empty((8, 8))
        b[...] = _REF_TILE
        cells.append(_RefCell(b.T @ _REF_TILE, {"k": i, "shape": b.shape}).a.sum())
    for _ in range(2):
        s += float(_REF_BIG.copy().sum())
    return s, y, cells


class Yardstick:
    """Reference units run between passes, and the time they took."""

    def __init__(self):
        reference_unit()  # warm-up, outside every timed span
        self.units = 0
        self.seconds = 0.0

    def measure(self, pass_s):
        """Run units for at least REF_SHARE of `pass_s` (at least one unit)."""
        t0 = time.perf_counter()
        while True:
            reference_unit()
            self.units += 1
            spent = time.perf_counter() - t0
            if spent >= REF_SHARE * pass_s:
                break
        self.seconds += spent

    def ref_seconds(self, seconds):
        """`seconds` of this run's wall time in reference seconds."""
        return seconds / (self.seconds / self.units) / REF_UNITS_PER_REF_S


def _oracle_path(workload, seed):
    return OUT_DIR / f"{workload}-seed{seed}-oracles.pkl"


def set_up(wl, seed, tally, tracer=None):
    """import matkit, draw inputs, load the oracles (untimed), warm-up pass.

    The oracles come from the file `_probe_oracles` wrote, so computing
    them never adds to this process's time or peak memory.
    Returns (mk, inputs, oracle, setup seconds).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    mk = importlib.import_module("matkit")
    importlib.import_module("matkit.cli")  # the package does not import its CLI
    if tracer is not None:
        tracer.install(mk)
    inputs = wl.inputs(mk, seed)
    t1 = time.perf_counter()
    with open(_oracle_path(wl.name, seed), "rb") as fh:
        oracle = pickle.load(fh)
    warm = _one_pass(wl, mk, inputs, oracle, tally)
    return mk, inputs, oracle, (t1 - t0) + warm


def closed_loop(wl, mk, inputs, oracle, seconds, tally, tracer=None, breaks=(),
                yardstick=None):
    """Passes back to back for `seconds` of loop time; {pass id: wall s}.

    Each of `breaks` is called once between two passes, at even intervals
    of loop time; the time they take does not count as loop time. With a
    yardstick, reference units follow each pass and count as loop time.

    With a tracer, odd passes run traced and even passes untraced (wrappers
    detached), so both halves see the same host conditions; the result is
    then the pair (traced walls, untraced walls).
    """
    walls = {}
    todo = list(breaks)
    gap = seconds / (len(todo) + 1)
    start = time.perf_counter()
    paused = 0.0
    p = 1
    while True:
        if tracer is not None:
            tracer.pass_no = p
            tracer.attach() if p % 2 else tracer.detach()
        walls[p] = _one_pass(wl, mk, inputs, oracle, tally)
        if yardstick is not None:
            yardstick.measure(walls[p])
        p += 1
        looped = time.perf_counter() - start - paused
        if todo and looped >= gap * (len(breaks) - len(todo) + 1):
            t = time.perf_counter()
            todo.pop(0)()
            paused += time.perf_counter() - t
        # a traced run needs at least one pass of each kind
        if looped >= seconds and not todo and (tracer is None or p > 2):
            break
    if tracer is None:
        return walls
    tracer.detach()
    return ({k: v for k, v in walls.items() if k % 2},
            {k: v for k, v in walls.items() if not k % 2})


def _probe_setup(args):
    """Child process: one set-up sample, printed as JSON."""
    tally = Tally()
    *_, setup_s = set_up(WORKLOADS[args.workload], args.seed, tally)
    print(json.dumps({"setup_s": setup_s, "attempted": tally.attempted,
                      "failures": tally.failures}))


def _probe_oracles(args):
    """Child process: the workload's reference results, pickled to a file."""
    wl = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    mk = importlib.import_module("matkit")
    oracle = wl.oracles(mk, wl.inputs(mk, args.seed))
    OUT_DIR.mkdir(exist_ok=True)
    with open(_oracle_path(wl.name, args.seed), "wb") as fh:
        pickle.dump(oracle, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _child(args, flag):
    """Run this script with `flag` for the same workload and seed; its stdout."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), flag]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=90, cwd=str(ROOT))
    if proc.returncode != 0:
        _fail(f"{flag} child failed:\n{proc.stderr}")
    return proc.stdout


def _setup_probe(args, tally, samples):
    """A break for the closed loop: one set-up sample from a child process."""
    def probe():
        got = json.loads(_child(args, "--probe-setup").strip().splitlines()[-1])
        samples.append(got["setup_s"])
        tally.attempted += got["attempted"]
        tally.failures.update(got["failures"])
    return probe


def _environment(seed):
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "matkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
    }


def _git_sha():
    """HEAD's commit, or None outside a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30, cwd=str(ROOT))
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _traced(args, wl, tally, record):
    from tracing import Tracer

    tracer = Tracer()
    mk, inputs, oracle, _ = set_up(wl, args.seed, tally, tracer)
    traced, plain = closed_loop(wl, mk, inputs, oracle, args.seconds, tally, tracer)
    metrics, counts = tracer.per_layer(traced)
    metrics["trace.overhead_s"] = {
        "value": metrics["trace.pass_s_p50"]["value"] - statistics.median(plain.values()),
        "unit": "s",
    }
    record["computed_counts"] = counts
    record["computed_counts_note"] = "computed from array sizes; per pass"
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{wl.name}-seed{args.seed}-spans.npz")
    return metrics


def _untraced(args, wl, tally, record):
    mk, inputs, oracle, setup_s = set_up(wl, args.seed, tally)
    setups = [setup_s]
    probes = [_setup_probe(args, tally, setups) for _ in range(SETUP_SAMPLES - 1)]
    yardstick = Yardstick()
    walls = closed_loop(wl, mk, inputs, oracle, args.seconds, tally, breaks=probes,
                        yardstick=yardstick)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = list(walls.values())
    p50, p90 = _quantiles(times)
    items = wl.items_per_pass(inputs) * len(times)
    record.update({
        # end-to-end figures kept out of BENCHMARK.json; README.md says why
        "items_per_s": items / sum(times),
        "pass_s_p50": p50,
        "pass_s_p90": p90,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "pass_s": times,
        "passes_above_p90": sum(t > p90 for t in times),
        "setup_s_samples": setups,
        "items_per_pass": wl.items_per_pass(inputs),
        "reference_units": yardstick.units,
        "reference_unit_s": yardstick.seconds / yardstick.units,
    })
    return {
        "items_per_ref_s": {"value": items / yardstick.ref_seconds(sum(times)),
                            "unit": "items/ref_s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
    }


def measure(args):
    wl = WORKLOADS[args.workload]
    tally = Tally()
    record = {"workload": wl.name, "item": wl.item, "trace": args.trace,
              "seconds": args.seconds}
    oracle_file = _oracle_path(wl.name, args.seed)
    _child(args, "--probe-oracles")
    try:
        if args.trace:
            metrics = _traced(args, wl, tally, record)
        else:
            metrics = _untraced(args, wl, tally, record)
    finally:
        oracle_file.unlink(missing_ok=True)
    record.update({
        "environment": _environment(args.seed),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "metrics": metrics,
    })
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="loop time of the run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-oracles", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "matkit" / "__init__.py").is_file():
        _fail(f"no matkit sources under {SRC}; run from a matkit checkout")
    if args.probe_oracles:
        _probe_oracles(args)
    elif args.probe_setup:
        _probe_setup(args)
    else:
        if args.seconds is None:
            args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        if args.seconds <= 0:
            _fail("--seconds must be positive")
        measure(args)


if __name__ == "__main__":
    main()
