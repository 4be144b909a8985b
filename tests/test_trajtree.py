"""TrajTree integration tests: exactness (Alg. 2), structure, updates."""

import numpy as np
import pytest

from repro.core import Trajectory
from repro.index import TrajTree
from repro.index.trajtree import TrajTreeStats

from helpers import random_walk_trajectory


@pytest.fixture(scope="module")
def database():
    rng = np.random.default_rng(11)
    return [
        random_walk_trajectory(rng, int(rng.integers(4, 12)))
        for _ in range(80)
    ]


@pytest.fixture(scope="module")
def tree(database):
    return TrajTree(database, num_vps=12, min_node_size=6, seed=3)


class TestConstruction:
    def test_rejects_empty_db(self):
        with pytest.raises(ValueError):
            TrajTree([])

    def test_rejects_segmentless_trajectory(self):
        with pytest.raises(ValueError):
            TrajTree([Trajectory([(0, 0, 0)])])

    def test_len(self, tree, database):
        assert len(tree) == len(database)

    def test_structure_sane(self, tree):
        assert tree.height() >= 2
        assert tree.node_count() > 1
        for bf in tree.branching_factors():
            assert 2 <= bf <= tree.max_branching

    def test_ids_and_get(self, tree, database):
        ids = tree.ids()
        assert sorted(ids) == list(range(len(database)))
        assert tree.get(ids[0]) is not None

    def test_deterministic_builds(self, database):
        t1 = TrajTree(database[:30], num_vps=8, seed=5)
        t2 = TrajTree(database[:30], num_vps=8, seed=5)
        assert t1.branching_factors() == t2.branching_factors()

    def test_respects_traj_ids(self, database):
        relabelled = [
            Trajectory(t.data, traj_id=100 + i, validate=False)
            for i, t in enumerate(database[:15])
        ]
        tree = TrajTree(relabelled, num_vps=8, seed=0)
        assert sorted(tree.ids()) == list(range(100, 115))


class TestExactness:
    """The headline guarantee: index answers == sequential scan answers."""

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_knn_matches_scan(self, tree, k):
        rng = np.random.default_rng(77)
        for _ in range(8):
            q = random_walk_trajectory(rng, int(rng.integers(4, 12)))
            got = tree.knn(q, k)
            want = tree.knn_scan(q, k)
            assert [tid for tid, _ in got] == [tid for tid, _ in want]
            for (_, d1), (_, d2) in zip(got, want):
                assert d1 == pytest.approx(d2)

    def test_knn_distances_sorted(self, tree):
        rng = np.random.default_rng(5)
        q = random_walk_trajectory(rng, 8)
        result = tree.knn(q, 10)
        dists = [d for _, d in result]
        assert dists == sorted(dists)

    def test_normalized_mode_exact(self, database):
        tree = TrajTree(database[:40], num_vps=10, normalized=True, seed=1)
        rng = np.random.default_rng(9)
        for _ in range(5):
            q = random_walk_trajectory(rng, 8)
            got = [tid for tid, _ in tree.knn(q, 5)]
            want = [tid for tid, _ in tree.knn_scan(q, 5)]
            assert got == want

    def test_query_of_member_returns_itself_first(self, tree, database):
        got = tree.knn(database[7], 3)
        assert got[0][0] == 7
        assert got[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_k_larger_than_db(self, database):
        tree = TrajTree(database[:12], num_vps=6, seed=2)
        rng = np.random.default_rng(1)
        q = random_walk_trajectory(rng, 6)
        assert len(tree.knn(q, 50)) == 12

    def test_invalid_queries(self, tree):
        rng = np.random.default_rng(2)
        q = random_walk_trajectory(rng, 6)
        with pytest.raises(ValueError):
            tree.knn(q, 0)
        with pytest.raises(ValueError):
            tree.knn(Trajectory([(0, 0, 0)]), 5)


class TestPruning:
    def test_stats_recorded(self, tree):
        rng = np.random.default_rng(3)
        q = random_walk_trajectory(rng, 8)
        stats = TrajTreeStats()
        tree.knn(q, 5, stats=stats)
        assert stats.nodes_visited > 0
        assert stats.exact_computations > 0

    def test_prunes_on_clustered_data(self, small_refine_flush):
        """With clearly clustered data the tree must avoid computing exact
        distances for most of the far clusters."""
        rng = np.random.default_rng(4)
        db = []
        for c in range(4):
            origin = np.array([c * 500.0, 0.0])
            for _ in range(20):
                db.append(random_walk_trajectory(rng, 8, origin=origin))
        tree = TrajTree(db, num_vps=10, min_node_size=6, seed=0)
        q = random_walk_trajectory(rng, 8, origin=np.array([0.0, 0.0]))
        stats = TrajTreeStats()
        got = tree.knn(q, 5, stats=stats)
        assert [t for t, _ in got] == [t for t, _ in tree.knn_scan(q, 5)]
        assert stats.exact_computations < len(db) * 0.7


class TestUpdates:
    def test_insert_then_query_finds_it(self, database):
        tree = TrajTree(database[:30], num_vps=8, seed=6)
        rng = np.random.default_rng(8)
        new = random_walk_trajectory(rng, 8)
        tid = tree.insert(new)
        assert tid in tree
        got = tree.knn(new, 1)
        assert got[0][0] == tid

    def test_insert_preserves_exactness(self, database):
        tree = TrajTree(database[:30], num_vps=8, seed=6)
        rng = np.random.default_rng(8)
        for _ in range(5):
            tree.insert(random_walk_trajectory(rng, int(rng.integers(4, 10))))
        for _ in range(5):
            q = random_walk_trajectory(rng, 8)
            assert [t for t, _ in tree.knn(q, 5)] == [
                t for t, _ in tree.knn_scan(q, 5)
            ]

    def test_insert_duplicate_id_raises(self, database):
        tree = TrajTree(database[:15], num_vps=8, seed=6)
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            tree.insert(random_walk_trajectory(rng, 6), traj_id=0)

    def test_delete_removes_from_answers(self, database):
        tree = TrajTree(database[:30], num_vps=8, seed=6)
        victim = tree.knn(database[0], 1)[0][0]
        tree.delete(victim)
        assert victim not in tree
        for tid, _ in tree.knn(database[0], 10):
            assert tid != victim

    def test_delete_missing_raises(self, database):
        tree = TrajTree(database[:15], num_vps=8, seed=6)
        with pytest.raises(KeyError):
            tree.delete(999)

    def test_delete_preserves_exactness(self, database):
        tree = TrajTree(database[:30], num_vps=8, seed=6)
        for victim in (3, 11, 19):
            tree.delete(victim)
        rng = np.random.default_rng(10)
        for _ in range(5):
            q = random_walk_trajectory(rng, 8)
            assert [t for t, _ in tree.knn(q, 5)] == [
                t for t, _ in tree.knn_scan(q, 5)
            ]

    def test_needs_rebuild_after_many_updates(self, database):
        tree = TrajTree(database[:20], num_vps=8, seed=6,
                        rebuild_ratio=0.2)
        assert not tree.needs_rebuild()
        rng = np.random.default_rng(12)
        for _ in range(6):
            tree.insert(random_walk_trajectory(rng, 6))
        assert tree.needs_rebuild()
        tree.rebuild()
        assert not tree.needs_rebuild()

    def test_rebuild_preserves_database(self, database):
        tree = TrajTree(database[:20], num_vps=8, seed=6)
        before = sorted(tree.ids())
        tree.rebuild()
        assert sorted(tree.ids()) == before
        rng = np.random.default_rng(13)
        q = random_walk_trajectory(rng, 8)
        assert [t for t, _ in tree.knn(q, 5)] == [
            t for t, _ in tree.knn_scan(q, 5)
        ]


# ---------------------------------------------------------------------- #
# the same properties on a tree that traverses
# ---------------------------------------------------------------------- #
#
# The fixtures above hold fewer trajectories than REFINE_FLUSH, so their
# trees are refined whole at the root.  These subclasses re-run the
# index == scan properties with the crossover at 4 (conftest's
# ``small_refine_flush``), where the frontier heap and both bounds decide.


@pytest.mark.usefixtures("small_refine_flush")
class TestExactnessTraversing(TestExactness):
    pass


@pytest.mark.usefixtures("small_refine_flush")
class TestPruningTraversing(TestPruning):
    pass


@pytest.mark.usefixtures("small_refine_flush")
class TestUpdatesTraversing(TestUpdates):
    pass


def resampled_copy(rng, traj):
    """``traj``'s path at another sampling rate: a vertex inserted on every
    segment, then every vertex jittered by 1e-3."""
    xy = traj.coords()
    mids = xy[:-1] + rng.uniform(0, 1, (len(xy) - 1, 1)) * np.diff(xy, axis=0)
    dense = np.empty((2 * len(xy) - 1, 2))
    dense[0::2] = xy
    dense[1::2] = mids
    return Trajectory.from_xy(dense + rng.normal(0, 1e-3, dense.shape))


@pytest.mark.usefixtures("small_refine_flush")
def test_node_bound_census():
    """Every (query, node) box bound is at most the true minimum over the
    node's subtree — EDwP raw and normalized, EDwPsub raw — on a database
    holding re-sampled copies of the queries; and the traversing searches
    still equal their scans there."""
    from repro.core import use_backend
    from repro.core.edwp import edwp_many
    from repro.core.edwp_sub import edwp_sub_many
    from repro.index.tboxseq import edwp_sub_box_many

    rng = np.random.default_rng(29)
    queries = [random_walk_trajectory(rng, int(rng.integers(3, 8)))
               for _ in range(10)]
    db = [resampled_copy(rng, q) for q in queries for _ in range(2)]
    db += [random_walk_trajectory(rng, int(rng.integers(3, 10)))
           for _ in range(60)]
    tree = TrajTree(db, normalized=True, num_vps=4, min_node_size=4,
                    seed=0, backend="numpy")
    nodes, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    with use_backend("numpy"):
        for q in queries:
            full = np.array(edwp_many(q, db))
            sub = np.array(edwp_sub_many(q, db))
            avg = np.array(edwp_many(q, db, normalized=True))
            bounds = edwp_sub_box_many(q, [n.boxseq for n in nodes])
            for node, lb in zip(nodes, bounds):
                ids = list(node.subtree_ids)
                assert lb <= full[ids].min()
                assert lb <= sub[ids].min()
                assert TrajTree._normalize_bound(
                    q, node.max_length, lb, True) <= avg[ids].min()
            assert tree.knn(q, 3) == tree.knn_scan(q, 3)
            assert tree.subtrajectory_knn(q, 3) == \
                tree.subtrajectory_knn_scan(q, 3)
            radius = tree.knn_scan(q, 5)[-1][1]
            assert tree.range_query(q, radius) == \
                tree.range_query_scan(q, radius)
