#!/usr/bin/env python
"""Print what a range query costs on a tree and on a forest.

Three shapes over harness-like Beijing trips (``benchmarks/perf``'s
``BEIJING`` config, numpy backend, normalized EDwP): a 480-trip tree, a
2,000-trip tree and the 480 trips in a 6-shard forest.  Each shape answers
20 held-out trips of the same generator at the radius of each one's 50th
neighbour.  Per shape: ms per query (the fastest of ``--repeats`` passes
after one warm-up pass), kernel sweeps (``edwp_fast.dp_sweep`` calls) and
box bounds per query, and a check that every answer equals the scan.

Usage:
    python tools/range_costs.py               # all three shapes, seed 0
    python tools/range_costs.py --shape forest-480 --seed 3

It imports the ``src/`` beside it, so for a parent column copy it into a
checkout of the parent commit and run it there, alternating the two.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import edwp_fast  # noqa: E402
from repro.datasets.beijing import BeijingConfig, generate_beijing  # noqa: E402
from repro.index import TrajForest, TrajTree  # noqa: E402
from repro.index.trajtree import TrajTreeStats  # noqa: E402

BEIJING = BeijingConfig(min_hops=8, max_hops=24, sample_low=30.0,
                        sample_high=120.0)
SHAPES = {"tree-480": (480, 1), "tree-2000": (2000, 1),
          "forest-480": (480, 6)}
QUERIES, NEIGHBOUR = 20, 50


def measure(name: str, seed: int, repeats: int) -> str:
    n, shards = SHAPES[name]
    trips = generate_beijing(n + QUERIES, seed=seed, config=BEIJING)
    db, queries = trips[:n], trips[n:]
    params = dict(normalized=True, seed=seed, backend="numpy")
    oracle = TrajTree(db, **params)
    index = (oracle if shards == 1
             else TrajForest(db, num_shards=shards, **params))
    index.warm_caches()
    cases = []
    for q in queries:
        radius = oracle.knn_scan(q, NEIGHBOUR)[-1][1]
        cases.append((q, radius, oracle.range_query_scan(q, radius)))

    sweeps = [0]
    kernel = edwp_fast.dp_sweep

    def counting(*args, **kwargs):
        sweeps[0] += 1
        return kernel(*args, **kwargs)

    edwp_fast.dp_sweep = counting
    stats = TrajTreeStats()
    try:
        for q, radius, want in cases:       # warm-up pass, counted
            if index.range_query(q, radius, stats=stats) != want:
                raise SystemExit(f"{name}: answer differs from the scan")
    finally:
        edwp_fast.dp_sweep = kernel
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for q, radius, _ in cases:
            index.range_query(q, radius)
        best = min(best, time.perf_counter() - start)
    return (f"{name:<10} {1e3 * best / QUERIES:8.2f} ms/query  "
            f"{sweeps[0] / QUERIES:5.2f} sweeps  "
            f"{stats.bound_computations / QUERIES:6.2f} box bounds  "
            f"{stats.exact_computations / QUERIES:7.2f} exact")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    for name in args.shape or SHAPES:
        print(measure(name, args.seed, args.repeats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
