#!/usr/bin/env python
"""Print what an index build costs, for the perf harness's build shapes.

One row per shape — ``tree_knn`` (60 Beijing-like trips), ``build_update``
(40) and ``forest_knn`` (480 tiny random walks in 6 shards), built as
``benchmarks/perf`` builds them: build seconds (best of 5), st-points
bulk-loaded per second, and the share of the build spent growing box
sequences (``TBoxSeq.with_trajectory``, the construction alignment of
Sec. IV-B).  Before anything is timed, one build per shape records every
alignment it runs and replays it through the per-cell DP kept in
``tests/box_dp_oracle.py``; any difference in ``(cost, parents, pos)``
exits 1, so the table is printed only by a DP that gives the same bits.

Usage:
    python tools/build_costs.py             # DESIGN.md's table, seed 0
    python tools/build_costs.py --quick     # smoke-sized shapes, one build
    python tools/build_costs.py --seed 3 --repeats 9

For a parent column, copy this file and ``tests/box_dp_oracle.py`` into a
checkout of the parent commit and run it there.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks" / "perf")]

from repro.datasets.beijing import generate_beijing  # noqa: E402
from repro.index import tboxseq  # noqa: E402
from repro.index.forest import TrajForest  # noqa: E402
from repro.index.trajtree import TrajTree  # noqa: E402
from box_dp_oracle import _box_dp as oracle_box_dp, hex_form  # noqa: E402
from perf_workloads import (BACKEND, BEIJING, FOREST_KWARGS,  # noqa: E402
                            SIZES, forest_extent, tiny_store)


def shapes(sizes: dict, seed: int):
    """``name -> (build, points)``: a zero-argument build of the harness's
    shape and the st-points it bulk-loads."""
    out = {}
    for name, extra in (("tree_knn", ("queries",)),
                        ("build_update", ("inserts", "reads"))):
        sz = sizes[name]
        n = sz["n"]
        db = generate_beijing(n + sum(sz[k] for k in extra), seed=seed,
                              config=BEIJING)[:n]
        out[name] = (lambda db=db: TrajTree(db, normalized=True, num_vps=8,
                                            backend=BACKEND, seed=seed),
                     sum(len(t) for t in db))
    fk = sizes["forest_knn"]
    store = tiny_store(fk["n"], np.random.default_rng(seed),
                       forest_extent(fk["n"]))
    out["forest_knn"] = (lambda: TrajForest.from_store(
        store, num_shards=fk["shards"], seed=seed, min_node_size=fk["leaf"],
        **FOREST_KWARGS), len(store.points))
    return out


def check_alignments(build) -> int:
    """Run ``build`` recording every alignment; the number of alignments,
    or -1 if one differs from the oracle DP's."""
    dp = tboxseq._box_dp
    calls = []

    def record(pts, boxes):
        out = dp(pts, boxes)
        calls.append((list(pts), list(boxes), hex_form(out)))
        return out

    tboxseq._box_dp = record
    try:
        build()
    finally:
        tboxseq._box_dp = dp
    for pts, boxes, got in calls:
        if got != hex_form(oracle_box_dp(pts, boxes)):
            return -1
    return len(calls)


def timed_build(build):
    """``(seconds, seconds inside TBoxSeq.with_trajectory)`` of one build."""
    grow = tboxseq.TBoxSeq.with_trajectory
    inside = 0.0

    def timed(*args, **kwargs):
        nonlocal inside
        start = time.perf_counter()
        try:
            return grow(*args, **kwargs)
        finally:
            inside += time.perf_counter() - start

    tboxseq.TBoxSeq.with_trajectory = timed
    try:
        start = time.perf_counter()
        build()
        total = time.perf_counter() - start
    finally:
        tboxseq.TBoxSeq.with_trajectory = grow
    return total, inside


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="the harness's smoke sizes, one timed build")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sizes = SIZES["smoke" if args.quick else "full"]
    repeats = 1 if args.quick else args.repeats
    rows = []
    for name, (build, points) in shapes(sizes, args.seed).items():
        checked = check_alignments(build)
        if checked < 0:
            print(f"{name}: an alignment differs from the oracle DP "
                  f"(tests/box_dp_oracle.py)", file=sys.stderr)
            return 1
        total, inside = min(timed_build(build) for _ in range(repeats))
        rows.append((name, points, checked, total, inside / total))
    print(f"seed {args.seed}, best of {repeats} builds")
    print(f"{'shape':<13} {'points':>7} {'alignments':>10} {'build s':>8} "
          f"{'points/s':>9} {'with_trajectory':>15}")
    for name, points, checked, total, share in rows:
        print(f"{name:<13} {points:>7} {checked:>10} {total:>8.3f} "
              f"{points / total:>9.0f} {share:>15.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
