"""Tests for TrajTree's auxiliary features: storage accounting, pruning
configuration, and the cheap rectangle pre-filter bound."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import Trajectory, edwp, edwp_avg
from repro.core.edwp_sub import edwp_sub
from repro.core.geometry import polyline_rect_distance, point_rect_distance
from repro.index import TrajTree

from helpers import random_walk_trajectory
from test_backend_matrix import trajectories


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(31)
    return [
        random_walk_trajectory(rng, int(rng.integers(4, 10)))
        for _ in range(50)
    ]


class TestPolylineRectDistance:
    def test_single_point(self):
        assert polyline_rect_distance([(15, 10)], 0, 0, 10, 10) == 5.0

    def test_crossing_is_zero(self):
        assert polyline_rect_distance([(-5, 5), (15, 5)], 0, 0, 10, 10) == 0.0

    def test_matches_per_segment_scan(self, rng):
        from repro.core.geometry import segment_rect_distance

        for _ in range(100):
            pts = rng.uniform(-5, 5, (int(rng.integers(2, 7)), 2))
            x0, y0 = rng.uniform(-5, 5, 2)
            w, h = rng.uniform(0.1, 4, 2)
            rect = (x0, y0, x0 + w, y0 + h)
            got = polyline_rect_distance(pts, *rect)
            want = min(
                segment_rect_distance(pts[i], pts[i + 1], *rect)
                for i in range(len(pts) - 1)
            )
            assert got == pytest.approx(want, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            polyline_rect_distance(np.empty((0, 2)), 0, 0, 1, 1)


class TestQuickBound:
    def test_quick_bound_underestimates_edwp(self, db):
        """2 * dist(polyline, union rect) * len(Q) <= EDwP(Q, T) for every
        subtree member — the pre-filter's soundness requirement."""
        tree = TrajTree(db, num_vps=10, seed=0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = random_walk_trajectory(rng, 7)
            children = tree.root.children
            quicks = tree._quick_bounds_many_raw(
                q, [child.union_rect for child in children])
            fulls = tree._bounds_many_raw(q, children)
            for child, quick, full in zip(children, quicks, fulls):
                quick = tree._normalize_bound(q, child.max_length, quick,
                                              tree.normalized)
                full = tree._normalize_bound(q, child.max_length, full,
                                             tree.normalized)
                for tid in child.subtree_ids:
                    assert quick <= edwp(q, tree.get(tid)) + 1e-6
                # the pre-filter must never exceed the DP bound's role:
                # both underestimate, so max() in the query loop is sound
                assert quick >= 0.0
                assert full >= 0.0

    def test_disabling_quick_bound_keeps_exactness(self, db):
        tree = TrajTree(db, num_vps=10, seed=0, use_quick_bound=False)
        rng = np.random.default_rng(6)
        for _ in range(5):
            q = random_walk_trajectory(rng, 7)
            assert [t for t, _ in tree.knn(q, 5)] == [
                t for t, _ in tree.knn_scan(q, 5)
            ]

    def test_vp_levels_zero_keeps_exactness(self, db):
        tree = TrajTree(db, num_vps=10, seed=0, vp_levels=0)
        rng = np.random.default_rng(7)
        for _ in range(5):
            q = random_walk_trajectory(rng, 7)
            assert [t for t, _ in tree.knn(q, 5)] == [
                t for t, _ in tree.knn_scan(q, 5)
            ]

    def test_deep_vp_levels_keeps_exactness(self, db):
        """``num_vps`` and ``vp_levels`` are accepted and change nothing:
        the same pickled bytes and the same answers as without them."""
        tree = TrajTree(db, num_vps=10, seed=0, vp_levels=99,
                        min_node_size=6)
        plain = TrajTree(db, num_vps=1, seed=0, vp_levels=0,
                         min_node_size=6)
        assert pickle.dumps(tree) == pickle.dumps(plain)
        rng = np.random.default_rng(8)
        for _ in range(5):
            q = random_walk_trajectory(rng, 7)
            assert tree.knn(q, 5) == plain.knn(q, 5)
            assert [t for t, _ in tree.knn(q, 5)] == [
                t for t, _ in tree.knn_scan(q, 5)
            ]


@settings(max_examples=150, deadline=None)
@given(q=trajectories(min_len=1), t=trajectories(min_len=1))
def test_member_rectangle_bound_underestimates(q, t):
    """The per-member bound of whole-subtree refinement: the quick
    bound of a trajectory's *own* bounding rectangle is a lower bound
    of EDwP and of raw EDwPsub, and divided by ``len(Q) + len(T)`` of
    EDwPavg — on ragged, single-point, duplicate-point and zero-length
    inputs alike."""
    raw, = TrajTree._quick_bounds_many_raw(q, [t.bounding_rect()])
    assert 0.0 <= raw <= edwp(q, t) * (1 + 1e-9) + 1e-9
    assert raw <= edwp_sub(q, t) * (1 + 1e-9) + 1e-9
    denom = q.length + t.length
    if denom > 0.0:
        assert raw / denom <= edwp_avg(q, t) * (1 + 1e-9) + 1e-9


class TestStorageSummary:
    def test_counts(self, db):
        tree = TrajTree(db, num_vps=10, seed=0, min_node_size=8)
        summary = tree.storage_summary()
        assert summary["trajectories"] == len(db)
        assert summary["nodes"] == tree.node_count()
        assert summary["leaves"] >= 1
        assert summary["boxes"] >= summary["nodes"]
        # no vantage descriptors are stored
        assert set(summary) == {"trajectories", "nodes", "leaves", "boxes"}

    def test_updates_reflected(self, db):
        tree = TrajTree(db[:20], num_vps=8, seed=0)
        before = tree.storage_summary()["trajectories"]
        rng = np.random.default_rng(9)
        tree.insert(random_walk_trajectory(rng, 6))
        assert tree.storage_summary()["trajectories"] == before + 1


@pytest.mark.usefixtures("small_refine_flush")
class TestQuickBoundTraversing(TestQuickBound):
    """The pruning-configuration properties with the crossover at 4, where
    ``use_quick_bound`` / ``vp_levels`` actually steer a traversal."""
