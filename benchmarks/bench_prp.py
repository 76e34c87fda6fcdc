"""Scalar vs batch Feistel permutation throughput (the setup hot path).

ROADMAP's profiling item: ``crypto.prp.permute_list`` dominated
``setup_file`` (~65 % of outsourcing cost) because every block position
paid its own HMAC chain per Feistel round per cycle-walk step.  The
batch engine evaluates each round once per *distinct* half-value and
walks all positions as a shrinking frontier, so the same permutation
costs ``O(rounds * sqrt(n))`` digests instead of ``O(rounds * n)``.

Runs standalone (no pytest needed) and doubles as the CI smoke bench::

    python benchmarks/bench_prp.py --quick --out BENCH_prp.json

It measures blocks/sec for the legacy scalar path (per-index
``forward`` on a fresh instance, exactly what ``permute_list`` used to
do) against the batch ``permute_list``, asserts the >= 5x acceptance
bar on the 10k-block domain, and writes the numbers as JSON so CI
archives a machine-readable record.

A second gated row times ``permutation_table`` on a 50k-block domain
with the cycle walk as numpy sweeps (the default with numpy) against
the list walk (``HAS_NUMPY`` switched off), checks the two tables are
identical, and asserts the numpy walk is >= 5x faster.  The HMAC round
tables both walks read are built before the clock starts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _gates import Gate, enforce_gates  # noqa: E402

from repro.analysis.reporting import format_table  # noqa: E402
from repro.crypto.prp import BlockPermutation  # noqa: E402
from repro.gf import gf256_vec  # noqa: E402

#: Domain sizes measured by the full run; --quick keeps the first two.
DOMAIN_SIZES = [1_000, 10_000, 50_000]

#: Acceptance bar: batch must beat scalar by at least this factor on
#: the 10k-block domain (ISSUE 2 / ROADMAP hot-path item).
MIN_SPEEDUP_10K = 5.0

#: Domain of the numpy-walk row, and its bar over the list walk.
WALK_DOMAIN = 50_000
MIN_WALK_SPEEDUP_50K = 5.0
WALK_REPEATS = 3

KEY = b"bench-prp-key"


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_scalar(n: int) -> float:
    """Seconds to permute ``n`` items the pre-batch way.

    A fresh instance's ``forward`` never consults a cached table, so
    this is byte-for-byte the legacy ``permute_list`` loop: one cycle
    walk (six HMACs per step) per index.
    """
    perm = BlockPermutation(KEY, n)
    items = list(range(n))

    def run() -> None:
        out = [None] * n
        for i, item in enumerate(items):
            out[perm.forward(i)] = item

    return _time(run)


def bench_batch(n: int) -> float:
    """Seconds for the batch ``permute_list`` (table built per call)."""
    items = list(range(n))

    def run() -> None:
        BlockPermutation(KEY, n).permute_list(items)

    return _time(run)


def _walk_seconds(n: int, *, numpy_walk: bool) -> tuple[float, tuple[int, ...]]:
    """Best-of-``WALK_REPEATS`` seconds of ``permutation_table``.

    Each repeat uses a fresh instance whose HMAC round tables are built
    before the clock starts: both walks read the same tables from the
    same code, so the timed part is the walk itself plus the inverse.
    """
    best = float("inf")
    table: tuple[int, ...] = ()
    gf256_vec.HAS_NUMPY = numpy_walk
    try:
        for _ in range(WALK_REPEATS):
            perm = BlockPermutation(KEY, n)
            for round_index in range(perm._prp._rounds):
                perm._prp._full_table(round_index)
            start = time.perf_counter()
            table = perm.permutation_table()
            best = min(best, time.perf_counter() - start)
    finally:
        gf256_vec.HAS_NUMPY = True
    return best, table


def bench_walks(n: int) -> tuple[float, float, bool]:
    """(list, numpy) walk seconds, and whether the tables agree."""
    list_s, listed = _walk_seconds(n, numpy_walk=False)
    numpy_s, vectorized = _walk_seconds(n, numpy_walk=True)
    return list_s, numpy_s, vectorized == listed


def run_bench(sizes: list[int]) -> list[dict]:
    """Measure both paths per size; sanity-check they agree."""
    rows = []
    for n in sizes:
        check = list(range(n))
        perm = BlockPermutation(KEY, n)
        assert perm.unpermute_list(perm.permute_list(check)) == check
        scalar_perm = BlockPermutation(KEY, n)
        assert perm.forward_many(range(min(n, 64))) == [
            scalar_perm.forward(i) for i in range(min(n, 64))
        ]
        scalar_s = bench_scalar(n)
        batch_s = bench_batch(n)
        rows.append(
            {
                "blocks": n,
                "scalar_blocks_per_sec": n / scalar_s,
                "batch_blocks_per_sec": n / batch_s,
                "speedup": scalar_s / batch_s,
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: only the 1k and 10k domains",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_prp.json"),
        help="where to write the JSON record (default: ./BENCH_prp.json)",
    )
    args = parser.parse_args(argv)
    if not gf256_vec.HAS_NUMPY:
        print(
            "FAIL: bench_prp's numpy-walk gate needs numpy "
            "(pip install repro[fast]); the list walk is covered by the "
            "test suite instead",
            file=sys.stderr,
        )
        return 2
    sizes = DOMAIN_SIZES[:2] if args.quick else DOMAIN_SIZES

    rows = run_bench(sizes)
    print(
        format_table(
            ["blocks", "scalar blk/s", "batch blk/s", "speedup"],
            [
                [
                    r["blocks"],
                    r["scalar_blocks_per_sec"],
                    r["batch_blocks_per_sec"],
                    r["speedup"],
                ]
                for r in rows
            ],
            title="Feistel permutation throughput: scalar vs batch engine",
            decimals=1,
        )
    )

    list_s, numpy_s, identical = bench_walks(WALK_DOMAIN)
    walk_speedup = list_s / numpy_s
    print(
        f"\ncycle walk ({WALK_DOMAIN:,} blocks): {list_s * 1000:.1f} ms list "
        f"-> {numpy_s * 1000:.1f} ms numpy ({walk_speedup:.1f}x)"
    )

    row_10k = next(r for r in rows if r["blocks"] == 10_000)
    gates = [
        Gate(
            name="batch_speedup_10k",
            measured=row_10k["speedup"],
            required=MIN_SPEEDUP_10K,
            detail="batch permute_list vs per-index forward, 10k blocks",
        ),
        Gate(
            name="numpy_walk_speedup_50k",
            measured=walk_speedup,
            required=MIN_WALK_SPEEDUP_50K,
            detail=f"numpy vs list walk, permutation_table, {WALK_DOMAIN:,} blocks",
        ),
        Gate(
            name="numpy_list_walk_equivalence",
            measured=1.0 if identical else 0.0,
            required=1.0,
            detail="numpy and list permutation tables identical",
        ),
    ]

    record = {
        "bench": "prp",
        "unit": "blocks/sec",
        "min_speedup_10k": MIN_SPEEDUP_10K,
        "rows": rows,
        "walk": {
            "blocks": WALK_DOMAIN,
            "list_s": list_s,
            "numpy_s": numpy_s,
            "min_speedup": MIN_WALK_SPEEDUP_50K,
        },
        "gates": [gate.as_dict() for gate in gates],
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    return enforce_gates(gates, bench="prp")


if __name__ == "__main__":
    sys.exit(main())
