"""``range_query`` is the best-first search of ``knn`` with its k-th
distance pinned at the radius (DESIGN.md, "TrajTree leaf refinement").

So the budget's bound allowance clamps a range query's batched box-bound
calls as it does a k-NN query's, and the branches a pinned answer heap
skips — the flush before each descent and at ``REFINE_FLUSH`` deferred
members, the rows' upper bounds, ``epsilon`` — key on the query kind, not
on the radius being finite.
"""

import math

import pytest

from repro.datasets import generate_beijing
from repro.index import TrajForest, TrajTree, trajtree
from repro.index.budget import QueryBudget
from repro.index.trajtree import TrajTreeStats


@pytest.fixture(scope="module")
def indexes():
    trips = generate_beijing(150, seed=0)
    params = dict(normalized=True, seed=0)
    return {"tree": TrajTree(trips, **params),
            "forest": TrajForest(trips, num_shards=3, **params)}


@pytest.fixture(scope="module")
def cases(indexes):
    """``(query, radius of its 20th neighbour, in-radius answer)``."""
    oracle = indexes["tree"]
    out = []
    for q in generate_beijing(5, seed=1):
        radius = oracle.knn_scan(q, 20)[-1][1]
        out.append((q, radius, oracle.range_query_scan(q, radius)))
    return out


@pytest.mark.usefixtures("small_refine_flush")
@pytest.mark.parametrize("kind", ["tree", "forest"])
@pytest.mark.parametrize("max_bounds", [1, 2, 3, 5, 8])
def test_bound_allowance_is_a_hard_ceiling(indexes, cases, kind,
                                           max_bounds):
    """On a traversing tree the box bounds a budgeted range query runs
    never pass ``max_bounds``: an over-budget batch is clamped.  A forest
    splits the allowance over its ``n`` shards, ``ceil(max_bounds / n)``
    each (``BudgetTracker.split``), so that is its ceiling per shard."""
    index = indexes[kind]
    shards = getattr(index, "num_shards", 1)
    ceiling = shards * -(-max_bounds // shards)
    for q, radius, want in cases:
        stats = TrajTreeStats()
        got = index.range_query(q, radius, stats=stats,
                                budget=QueryBudget(max_bounds=max_bounds))
        assert stats.bound_computations <= ceiling
        assert set(got) <= set(want)


@pytest.mark.parametrize("flush", [128, 4])
@pytest.mark.parametrize("kind", ["tree", "forest"])
def test_epsilon_and_an_infinite_radius_change_nothing(
        indexes, cases, kind, flush, monkeypatch):
    """An infinite radius is still a range query (every member is within
    it), and ``epsilon``, which a range query ignores, leaves the answer
    exact at any radius."""
    monkeypatch.setattr(trajtree, "REFINE_FLUSH", flush)
    index, oracle = indexes[kind], indexes["tree"]
    for q, radius, want in cases:
        everything = oracle.range_query_scan(q, math.inf)
        assert len(everything) == len(index)
        for r, expected in ((radius, want), (math.inf, everything)):
            assert index.range_query(q, r) == expected
            got = index.range_query(q, r, budget=QueryBudget(epsilon=0.5))
            assert got.exact and got == expected
