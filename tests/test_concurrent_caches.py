"""Concurrent first-access on lazy caches (ISSUE 6, satellite).

The service dispatches batches on an executor thread, so a tree's lazy
per-object caches — ``Trajectory.coords()`` / ``Trajectory.length``, read
by every node bound and box summary — can see their *first* access from
several threads at once.  The fills are written to be idempotent (read
the slot once into a local, compute from immutable data, publish with a
single assignment), which makes racing fills harmless under the GIL.  These are
the regression tests pinning that contract, plus coverage for
:meth:`TrajTree.warm_caches`, the eager pre-population the service runs
before serving.
"""

import threading

import numpy as np
import pytest

from repro.core import Trajectory
from repro.datasets import generate_beijing
from repro.index import TrajTree
from repro.index.tboxseq import TBoxSeq

THREADS = 8
ROUNDS = 25


def hammer(make_target):
    """Run ``fn`` from THREADS threads released by a barrier, ROUNDS times.

    ``make_target`` returns a fresh ``fn`` per round (so every round is a
    genuine cold first access).  Returns the per-thread results of every
    round for equality checks.
    """
    all_rounds = []
    for _ in range(ROUNDS):
        fn = make_target()
        barrier = threading.Barrier(THREADS)
        results = [None] * THREADS
        errors = []

        def worker(slot):
            try:
                barrier.wait()
                results[slot] = fn()
            except Exception as exc:            # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        all_rounds.append(results)
    return all_rounds


@pytest.fixture(scope="module")
def points():
    return [(float(i), float(i % 7), float(i)) for i in range(40)]


class TestTrajectoryLazyFills:
    def test_concurrent_first_coords_access(self, points):
        expected = Trajectory(points).coords()
        trajs = []

        def make_target():
            traj = Trajectory(points)
            assert traj._coords is None          # genuinely cold
            trajs.append(traj)
            return traj.coords

        for results in hammer(make_target):
            for got in results:
                np.testing.assert_array_equal(got, expected)
        # the slots ended up populated and stable
        assert all(t._coords is not None for t in trajs)

    def test_concurrent_first_length_access(self, points):
        expected = Trajectory(points).length

        def make_target():
            traj = Trajectory(points)
            assert traj._length is None
            return lambda: traj.length

        for results in hammer(make_target):
            assert all(got == expected for got in results)

    def test_concurrent_first_geometry_access(self, points):
        """A trajectory's box summary, first built from several threads
        at once: each reads the cold coordinate cache."""
        expected = TBoxSeq.from_trajectory(Trajectory(points), 4)

        def make_target():
            traj = Trajectory(points)
            assert traj._coords is None
            return lambda: TBoxSeq.from_trajectory(traj, 4)

        for results in hammer(make_target):
            for got in results:
                np.testing.assert_array_equal(got.rects, expected.rects)
                np.testing.assert_array_equal(got.min_len, expected.min_len)


class TestColdTreeFromThreads:
    def test_concurrent_knn_on_cold_tree_matches_serial(self):
        """Threaded kNN on a tree whose lazy caches are all cold agrees
        with the serial oracle — the path the service's executor dispatch
        exercises when ``warm=False``."""
        db = generate_beijing(20, seed=7)
        queries = generate_beijing(THREADS, seed=1007)
        oracle_tree = TrajTree(db, normalized=True, num_vps=4, seed=7,
                               backend="numpy")
        expected = [oracle_tree.knn(q, 3) for q in queries]

        cold_tree = TrajTree(generate_beijing(20, seed=7), normalized=True,
                             num_vps=4, seed=7, backend="numpy")
        barrier = threading.Barrier(THREADS)
        results = [None] * THREADS

        def worker(i):
            barrier.wait()
            results[i] = cold_tree.knn(queries[i], 3)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == expected


class TestWarmCaches:
    def test_warm_caches_populates_every_lazy_slot(self):
        tree = TrajTree(generate_beijing(12, seed=7), normalized=True,
                        num_vps=4, seed=7, backend="numpy")
        tree.warm_caches()
        for traj in tree._db.values():
            assert traj._coords is not None
            assert traj._length is not None
        # 12 members: the root is refined whole, from its member block
        assert tree.root.block is not None
