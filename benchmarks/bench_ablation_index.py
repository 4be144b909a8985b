"""Ablations of TrajTree's design choices (DESIGN.md call-outs).

Not paper figures: these quantify the contribution of each pruning
mechanism — the VP upper bound, the cheap rectangle pre-filter, and the box
budget — by toggling one at a time and counting exact EDwP evaluations per
query (the machine-independent cost unit).
"""

import time

import pytest

from conftest import emit

from repro.datasets import generate_beijing
from repro.index import TrajTree
from repro.index.trajtree import TrajTreeStats

DB_SIZE = 120
K = 10
NUM_QUERIES = 3


@pytest.fixture(scope="module")
def db():
    return generate_beijing(DB_SIZE, seed=7)


@pytest.fixture(scope="module")
def queries():
    return generate_beijing(NUM_QUERIES, seed=1007)


def _evals_per_query(tree, queries, k=K):
    total = 0
    for q in queries:
        stats = TrajTreeStats()
        tree.knn(q, k, stats=stats)
        total += stats.exact_computations
    return total / len(queries)


def test_ablation_pruning_mechanisms(benchmark, results_dir, db, queries):
    """Toggle VP refinement and the quick rectangle bound."""

    def run():
        rows = {}
        for label, kwargs in [
            ("full", dict(vp_levels=1, use_quick_bound=True)),
            ("no-VPs", dict(vp_levels=0, use_quick_bound=True)),
            ("no-quick-bound", dict(vp_levels=1, use_quick_bound=False)),
            ("bounds-only", dict(vp_levels=0, use_quick_bound=False)),
        ]:
            tree = TrajTree(db, num_vps=40, normalized=True, seed=0,
                            **kwargs)
            start = time.perf_counter()
            evals = _evals_per_query(tree, queries)
            secs = time.perf_counter() - start
            rows[label] = (evals, secs)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    body = "\n".join(
        f"  {label:<16} exact-evals/query {evals:7.1f}   "
        f"query secs {secs:6.2f}"
        for label, (evals, secs) in rows.items()
    )
    emit(results_dir, "ablation_pruning",
         f"Pruning ablation (Beijing-like n={DB_SIZE}, k={K}; scan = "
         f"{DB_SIZE} evals/query)",
         body)

    # every configuration must stay exact AND below a full scan
    for label, (evals, _) in rows.items():
        assert evals <= DB_SIZE, label


def test_ablation_box_budget(benchmark, results_dir, db, queries):
    """Box budget: pruning power vs bound cost.  The node bound costs one
    rectangle-to-segment distance per (box, query segment), and
    construction aligns against every box; more boxes hug the members
    more tightly."""

    def run():
        rows = {}
        for max_boxes in (4, 8, 12, 24):
            tree = TrajTree(db, num_vps=40, normalized=True, seed=0,
                            max_boxes=max_boxes)
            start = time.perf_counter()
            evals = _evals_per_query(tree, queries)
            secs = time.perf_counter() - start
            rows[max_boxes] = (evals, secs)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    body = "\n".join(
        f"  max_boxes={mb:<4d} exact-evals/query {evals:7.1f}   "
        f"query secs {secs:6.2f}"
        for mb, (evals, secs) in rows.items()
    )
    emit(results_dir, "ablation_boxes",
         f"Box-budget ablation (Beijing-like n={DB_SIZE}, k={K})",
         body)
    for mb, (evals, _) in rows.items():
        assert evals <= DB_SIZE


def test_ablation_exactness_all_configs(db, queries):
    """Whatever the configuration, answers must equal the scan oracle."""
    for kwargs in (
        dict(vp_levels=0, use_quick_bound=False),
        dict(vp_levels=2, use_quick_bound=True, max_boxes=6),
        dict(max_branching=4),
    ):
        tree = TrajTree(db[:60], num_vps=15, normalized=True, seed=0,
                        **kwargs)
        for q in queries:
            got = [t for t, _ in tree.knn(q, 5)]
            want = [t for t, _ in tree.knn_scan(q, 5)]
            assert got == want, kwargs
