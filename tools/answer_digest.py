#!/usr/bin/env python
"""Digest every answer of a fixed query matrix, to prove a change exact.

The matrix: seeded ``generate_beijing`` trips and queries, each query as
knn (k = 10), range (radius: the median 10th-NN distance) and
subtrajectory_knn (k = 10), on a TrajTree and on a 3-shard TrajForest over
the same trips, on the python and numpy backends, with
``repro.index.trajtree.REFINE_FLUSH`` at 128 (refine whole) and at 4
(traverse).  Each cell prints one JSON line: the sha256 of its answers as
``(id, float.hex(distance))`` lists and its summed ``TrajTreeStats``.  A
cell whose answers differ from the scan oracle's makes the run exit 1.

Usage:
    python tools/answer_digest.py > before.jsonl    # 150 trips x 20 queries
    python tools/answer_digest.py --quick           # 40 x 5, numpy only
    python tools/answer_digest.py --check before.jsonl   # exit 1 on a diff

``--check`` names, per differing cell, what differs: ``answers`` (the
sha256) and each counter as ``name before → after``.

To compare two commits, run it from a checkout of each (it imports the
``src/`` beside it) and ``--check`` the second against the first.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import use_backend  # noqa: E402
from repro.datasets import generate_beijing  # noqa: E402
from repro.index import TrajForest, TrajTree  # noqa: E402
from repro.index import trajtree  # noqa: E402
from repro.index.trajtree import TrajTreeStats  # noqa: E402

K = 10
FLUSHES = (128, 4)


def digest(answers) -> str:
    rows = [[(tid, float(d).hex()) for tid, d in answer]
            for answer in answers]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def differences(before: dict, after: dict) -> list:
    """What changed between two rows of one cell: ``"answers"`` when the
    sha256 differs, then ``"name before → after"`` per counter."""
    out = ["answers"] if before["sha256"] != after["sha256"] else []
    names = dict.fromkeys([*before["stats"], *after["stats"]])
    out += [f"{name} {before['stats'].get(name)} → "
            f"{after['stats'].get(name)}" for name in names
            if before["stats"].get(name) != after["stats"].get(name)]
    return out


def cells(trips: int, queries: int, backends):
    """Yield ``(cell name, answers, stats, answers equal the scan)``."""
    db = generate_beijing(trips, seed=0)
    qs = generate_beijing(queries, seed=1)
    with use_backend("numpy"):
        indexes = {"tree": TrajTree(db, normalized=True, seed=0),
                   "forest": TrajForest(db, num_shards=3, seed=0,
                                        normalized=True)}
        scan = indexes["tree"]
        radius = statistics.median(scan.knn_scan(q, K)[-1][1] for q in qs)
    for backend in backends:
        with use_backend(backend):
            oracle = {
                "knn": [scan.knn_scan(q, K) for q in qs],
                "range": [scan.range_query_scan(q, radius) for q in qs],
                "subtrajectory_knn": [scan.subtrajectory_knn_scan(q, K)
                                      for q in qs],
            }
            for name, index in indexes.items():
                for flush in FLUSHES:
                    trajtree.REFINE_FLUSH = flush
                    for kind, method, param in (
                            ("knn", index.knn, K),
                            ("range", index.range_query, radius),
                            ("subtrajectory_knn", index.subtrajectory_knn,
                             K)):
                        stats = TrajTreeStats()
                        answers = [method(q, param, stats=stats) for q in qs]
                        yield (f"{name}/{kind}/{backend}/{flush}", answers,
                               stats, answers == oracle[kind])
    trajtree.REFINE_FLUSH = FLUSHES[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="40 trips x 5 queries, numpy only")
    parser.add_argument("--check", type=Path,
                        help="a saved run to compare every cell against")
    args = parser.parse_args(argv)
    trips, queries, backends = ((40, 5, ("numpy",)) if args.quick
                                else (150, 20, ("python", "numpy")))
    saved = {}
    if args.check is not None:
        for line in args.check.read_text().splitlines():
            row = json.loads(line)
            saved[row["cell"]] = row
    failed = 0
    for cell, answers, stats, exact in cells(trips, queries, backends):
        row = {"cell": cell, "sha256": digest(answers),
               "stats": dataclasses.asdict(stats)}
        print(json.dumps(row), flush=True)
        if not exact:
            print(f"{cell}: answers differ from the scan", file=sys.stderr)
            failed += 1
        if args.check is not None:
            before = saved.pop(cell, None)
            if before is None:
                print(f"{cell}: not in {args.check}", file=sys.stderr)
                failed += 1
            elif before != row:
                print(f"{cell}: {', '.join(differences(before, row))}",
                      file=sys.stderr)
                failed += 1
    for cell in saved:
        print(f"{cell}: in {args.check} but not run", file=sys.stderr)
        failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
