"""Steadiness check: run a workload N times, report each metric's spread.

::

    python3 perfbench/steady.py --workload audit-open --runs 10
    python3 perfbench/steady.py --workload all --runs 5 --first-seed 100

Each run is ``perfbench/run.py`` with its own ``--seed`` (consecutive
from ``--first-seed``) and ``BENCHMARK.json``'s ``run_seconds``.
``all`` runs every workload ``BENCHMARK.json`` lists.  For
every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``.
A spread is ``steady`` below a third of its bound, ``setup_s``
included.

Exits 1 if any run failed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` invocation; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def spread_table(values: dict[str, list[float]], bounds: dict) -> list[dict]:
    rows = []
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds[name]
        rows.append({
            "metric": name,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bound,
            "steady": spread < bound / 3.0,
        })
    return rows


def main(argv=None) -> int:
    spec = load_benchmark()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    selected = names if args.workload == "all" else [args.workload]
    all_correct = True
    for workload in selected:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, spec["run_seconds"])
            all_correct &= bool(result["correct"])
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{name}={m['value']:.6g}"
                             for name, m in result["metrics"].items()),
                  flush=True)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        if any(len(series) != args.runs for series in values.values()):
            print(f"{workload}: some runs reported no metrics")
            continue
        print(f"\n{workload}: {args.runs} runs")
        print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/median':>10s} {'bound':>6s}  steady")
        for row in spread_table(values, bounds):
            print(f"{row['metric']:16s} {row['median']:12.6g} "
                  f"{row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{row['spread']:10.4f} {row['bound']:6.3f}  "
                  f"{'yes' if row['steady'] else 'NO'}")
        print(flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
