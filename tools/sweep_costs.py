#!/usr/bin/env python
"""Print the sweep-cost grid of DESIGN.md "What a sweep costs".

One query against ``rows`` targets, all of ``points`` points (seeded
random walks), through :func:`repro.core.edwp_fast.dp_sweep`: milliseconds
per sweep (best of 5-200 calls), the fixed cost per diagonal of a one-row
sweep, and microseconds per pair.  Before it is timed, every grid point's
output is compared with ``np.array_equal`` to the row-major kernel kept in
``tests/lockstep_oracle.py``; a mismatch exits 1, so the table is
regenerated from a kernel that still gives the same bytes.

Usage:
    python tools/sweep_costs.py                 # the DESIGN.md grid
    python tools/sweep_costs.py --quick         # a 2 x 2 grid (smoke run)
    python tools/sweep_costs.py --rows 256 512 1024 2048   # the cap sweep
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]

from repro.core.edwp_fast import _pack, dp_sweep  # noqa: E402
from lockstep_oracle import dp_sweep_rowmajor  # noqa: E402

POINTS = (5, 10, 20, 60)
ROWS = (1, 10, 26, 64, 128, 256, 512)


def sweep_args(rng, points: int, rows: int):
    """``dp_sweep``'s arguments: one query against ``rows`` targets."""
    def walk():
        return np.cumsum(rng.standard_normal(points)
                         + 1j * rng.standard_normal(points))

    Z2, segs2 = _pack([walk() for _ in range(rows)])
    return walk()[None, :], np.full(rows, points - 1), Z2, segs2


def best_ms(args) -> float:
    """Best of 5-200 calls, as many as fit in about 0.3 s."""
    start = time.perf_counter()
    dp_sweep(*args)
    calls = int(min(200, max(5, 0.3 / (time.perf_counter() - start))))
    best = float("inf")
    for _ in range(calls):
        start = time.perf_counter()
        dp_sweep(*args)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="points 5, 10 x rows 1, 10")
    parser.add_argument("--points", type=int, nargs="+", default=POINTS)
    parser.add_argument("--rows", type=int, nargs="+", default=ROWS)
    args = parser.parse_args(argv)
    points, rows = ((5, 10), (1, 10)) if args.quick else (args.points,
                                                           args.rows)
    rng = np.random.default_rng(0)
    ms = {}
    for p in points:
        for r in rows:
            sweep = sweep_args(rng, p, r)
            if not np.array_equal(dp_sweep(*sweep),
                                  dp_sweep_rowmajor(*sweep)):
                print(f"dp_sweep differs from dp_sweep_rowmajor at "
                      f"{p} points x {r} rows", file=sys.stderr)
                return 1
            ms[p, r] = best_ms(sweep)

    per_diagonal = 1 in rows
    print("ms per sweep (one query against `rows` targets, all of "
          "`points` points)\n")
    print("| points \\ rows | " + " | ".join(map(str, rows))
          + (" | µs / diagonal at 1 row |" if per_diagonal else " |"))
    print("|---" * (len(rows) + 1 + per_diagonal) + "|")
    for p in points:
        cells = [f"{ms[p, r]:.3g}" for r in rows]
        if per_diagonal:
            cells.append(f"{ms[p, 1] * 1e3 / (2 * (p - 1)):.0f}")
        print(f"| {p} | " + " | ".join(cells) + " |")
    print("\nµs per pair\n")
    print("| points \\ rows | " + " | ".join(map(str, rows)) + " |")
    print("|---" * (len(rows) + 1) + "|")
    for p in points:
        print(f"| {p} | " + " | ".join(f"{ms[p, r] * 1e3 / r:.3g}"
                                        for r in rows) + " |")
    print("\noutputs np.array_equal to dp_sweep_rowmajor at every grid point")
    return 0


if __name__ == "__main__":
    sys.exit(main())
