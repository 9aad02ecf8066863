#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py                  # each workload once, default seed
    python3 perfbench/report.py --seeds 10       # seeds 1..10: medians and spreads vs bounds
    python3 perfbench/report.py --trace          # two traced runs per workload, same seed

Each run is its own ``perfbench/run.py`` process, started only after the
previous one has ended. The end-to-end table adds ``items_per_s``,
``pass_s_p50``, ``pass_s_p90`` and ``error_rate``, which run.py records but
BENCHMARK.json does not gate. ``--seeds`` reports, per metric, the median over seeds and
the spread: the distance between the first and third quartile as a share of
the median, next to the metric's bound. ``--trace`` checks that the
computed counts of the two traced runs are identical.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = ROOT / ".perfbench_out"
# end-to-end figures that run.py records but BENCHMARK.json does not gate
UNGATED = {"items_per_s": "items/s", "pass_s_p50": "s", "pass_s_p90": "s",
           "error_rate": "ratio"}
# per-layer metrics that are timings or depend on speed; all others must repeat
UNSTEADY = ("trace.pass_s_p50", "trace.attributed_share")


def run_once(workload, seed, seconds, trace):
    """The run's result line, with the ungated end-to-end figures of its record added."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=str(ROOT))
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        record = json.loads((OUT / f"{workload}-seed{seed}-trace0.json").read_text())
        for name, unit in UNGATED.items():
            result["metrics"][name] = {"value": record[name], "unit": unit}
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def table(workload, result):
    print(f"\n{workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seeds", type=int, default=0, help="run seeds 1..N per workload")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    chosen = args.workloads.split(",")
    seed = args.seed

    if args.trace:
        ok = True
        for w in chosen:
            first = run_once(w, seed, args.seconds, 1)
            second = run_once(w, seed, args.seconds, 1)
            table(w, first)
            counts, again = ({k: v["value"] for k, v in r["metrics"].items()
                              if not k.endswith("_s") and k not in UNSTEADY}
                             for r in (first, second))
            differ = sorted(k for k in counts if counts[k] != again.get(k))
            ok &= not differ and first["correct"] and second["correct"]
            print(f"  counts repeat on a second traced run: {'yes' if not differ else differ}")
        sys.exit(0 if ok else 1)

    if not args.seeds:
        ok = True
        for w in chosen:
            result = run_once(w, seed, args.seconds, 0)
            table(w, result)
            ok &= result["correct"]
        sys.exit(0 if ok else 1)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds.update({name: None for name in UNGATED if name != "error_rate"})
    worst = {}
    for w in chosen:
        results = [run_once(w, s, args.seconds, 0) for s in range(1, args.seeds + 1)]
        print(f"\n{w}: {args.seeds} seeds, all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, s = spread(values)
            worst[name] = max(worst.get(name, 0.0), s)
            if bound is None:
                print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f}  (not gated)")
                continue
            flag = "" if s < bound / 3 else ("  > bound/3" if s <= bound else "  > BOUND")
            print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {bound:6.3f}{flag}")
    print("\nworst spread per metric:", json.dumps({k: round(v, 4) for k, v in worst.items()}))


if __name__ == "__main__":
    main()
