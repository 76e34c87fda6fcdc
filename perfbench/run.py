"""perfbench: the repository's benchmark (see README.md in this directory).

One run of one workload::

    python3 perfbench/run.py --workload audit-sla --seed 1 --seconds 10 --trace 0

prints every metric by name with its unit and sample count, checks the
program's outputs against ground truth, writes a run record under
``perfbench/out/records/``, and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same work untraced and traced and reports the per-layer metrics.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("audit-sla", "audit-open", "fleet-contended", "outsource-bulk")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def machine() -> dict:
    """Where the numbers were measured."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def print_result(result) -> None:
    mode = "traced" if result.trace else "untraced"
    print(f"# perfbench {result.workload} seed={result.seed} ({mode})")
    for name, metric in {**result.metrics, **result.extra}.items():
        spread = ""
        if metric.q1 is not None:
            spread = f"  q1={metric.q1:.6g} q3={metric.q3:.6g}"
        print(f"{name:34s} {metric.value:14.6g} {metric.unit:6s}"
              f" n={metric.n}{spread}")
    if result.layers:
        print(f"{'layer':24s} {'calls':>9s} {'self_s':>10s} "
              f"{'self_share':>10s} {'total_s':>10s}")
        for row in result.layers:
            print(f"{row['layer']:24s} {row['calls']:9d} "
                  f"{row['self_s']:10.4f} {row['self_share']:10.4f} "
                  f"{row['total_s']:10.4f}")
        unattributed = result.metrics["trace.unattributed_share"].value
        print(f"layer self times cover {1.0 - unattributed:.1%} of the "
              f"traced wall time; tracing overhead "
              f"{result.metrics['trace.overhead_share'].value:.1%}")
    print(f"checks: attempted={result.attempted} failed={result.failed}"
          f" valid={result.valid}")
    for note in result.notes:
        print(f"note: {note}")


def write_record(result, args) -> Path:
    """One JSON record per run: what ran, where, and every metric."""
    stamp = datetime.datetime.now(datetime.timezone.utc)
    record = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "seconds": args.seconds,
        "commit": commit(),
        "utc": stamp.isoformat(timespec="seconds"),
        "machine": machine(),
        "correct": result.correct,
        "valid": result.valid,
        "attempted": result.attempted,
        "failed": result.failed,
        "notes": result.notes,
        "metrics": {
            name: metric.to_dict()
            for name, metric in {**result.metrics, **result.extra}.items()
        },
        "layers": result.layers,
        "layers_not_called": result.not_called,
    }
    directory = OUT / "records"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"{result.workload}-seed{result.seed}-trace{int(result.trace)}-"
        f"{stamp.strftime('%Y%m%dT%H%M%S%f')}.json"
    )
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    spans_path = None
    if args.trace:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), spans_path)
    print_result(result)
    record_path = write_record(result, args)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
