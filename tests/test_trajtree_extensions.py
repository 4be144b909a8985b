"""Tests for the TrajTree extensions: range queries and sub-trajectory
similarity search (Sec. VI's 'other trajectory operations')."""

import numpy as np
import pytest

from repro.core import Trajectory
from repro.core.edwp_sub import edwp_sub
from repro.index import TrajTree, edwp_sub_box
from repro.index.trajtree import TrajTreeStats

from helpers import random_walk_trajectory


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(55)
    out = []
    for c in range(5):
        origin = np.array([c * 120.0, 0.0])
        for _ in range(12):
            out.append(random_walk_trajectory(rng, int(rng.integers(4, 10)),
                                              origin=origin))
    return out


@pytest.fixture(scope="module")
def tree(db):
    return TrajTree(db, num_vps=10, min_node_size=6, seed=2)


class TestRangeQuery:
    def test_matches_scan(self, tree):
        rng = np.random.default_rng(1)
        for _ in range(6):
            q = random_walk_trajectory(rng, 7,
                                       origin=np.array([120.0, 0.0]))
            for radius_scale in (0.5, 1.0, 2.0):
                radius = radius_scale * tree.knn_scan(q, 5)[-1][1]
                got = tree.range_query(q, radius)
                want = tree.range_query_scan(q, radius)
                assert got == want

    def test_zero_radius(self, tree, db):
        member = db[3]
        got = tree.range_query(member, 0.0)
        assert (3, 0.0) in [(t, round(d, 9)) for t, d in got]

    def test_prunes_far_clusters(self, tree, small_refine_flush):
        rng = np.random.default_rng(2)
        q = random_walk_trajectory(rng, 7, origin=np.array([0.0, 0.0]))
        radius = tree.knn_scan(q, 3)[-1][1]
        stats = TrajTreeStats()
        tree.range_query(q, radius, stats=stats)
        assert stats.exact_computations < len(tree)
        assert stats.nodes_pruned > 0

    def test_negative_radius_raises(self, tree):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            tree.range_query(random_walk_trajectory(rng, 5), -1.0)

    def test_nan_radius_raises(self, tree):
        """``nan < 0`` is false and so is every later comparison: a NaN
        radius used to come back as an empty answer."""
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="radius must be non-negative"):
            tree.range_query(random_walk_trajectory(rng, 5), float("nan"))

    def test_results_sorted(self, tree):
        rng = np.random.default_rng(4)
        q = random_walk_trajectory(rng, 7)
        result = tree.range_query(q, 1e12)
        dists = [d for _, d in result]
        assert dists == sorted(dists)
        assert len(result) == len(tree)


class TestSubtrajectoryKnn:
    def test_matches_scan(self, tree):
        rng = np.random.default_rng(5)
        for _ in range(6):
            q = random_walk_trajectory(rng, 5,
                                       origin=np.array([240.0, 0.0]))
            got = [t for t, _ in tree.subtrajectory_knn(q, 5)]
            want = [t for t, _ in tree.subtrajectory_knn_scan(q, 5)]
            assert got == want

    def test_embedded_query_found_first(self, tree, db):
        """A piece cut out of a database trajectory finds its source."""
        source = db[7]
        if source.num_segments >= 3:
            piece = source.subtrajectory(1, len(source) - 1)
            result = tree.subtrajectory_knn(piece, 1)
            assert result[0][0] == 7
            assert result[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_box_bound_underestimates_subdistance(self, tree, db):
        """The search's pruning premise, checked directly."""
        rng = np.random.default_rng(6)
        for _ in range(8):
            q = random_walk_trajectory(rng, 6)
            for child in tree.root.children:
                lb = edwp_sub_box(q, child.boxseq)
                for tid in child.subtree_ids:
                    assert lb <= edwp_sub(q, tree.get(tid)) + 1e-6

    def test_invalid_k(self, tree):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            tree.subtrajectory_knn(random_walk_trajectory(rng, 5), 0)


@pytest.mark.usefixtures("small_refine_flush")
class TestSubtrajectoryKnnTraversing(TestSubtrajectoryKnn):
    """The same properties with the crossover at 4: the sub-trajectory
    search descends instead of refining the 90-member tree whole."""
