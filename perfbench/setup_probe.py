"""Time one set-up of an in-process workload in a fresh process.

::

    python3 perfbench/setup_probe.py --workload fleet-contended --seed 1 --seconds 10

Builds what the workload's run would build before its timed phase
(``build_demo_fleet``, or the outsourcing session and inputs) and
prints one JSON line ``{"setup_s": ...}``.  ``harness`` runs it for
the extra set-ups behind ``setup_s``, so that the measured process
itself builds only once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-contended", "outsource-bulk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    _built, setup_s = harness.timed_setup(args.workload, args.seed,
                                           args.seconds)
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
