"""The index's array paths: box geometry, the node bound, the pivot kernel.

Covers the box arrays a ``TBoxSeq`` is made of and their compaction; the node
bound ``edwp_sub_box``/``edwp_sub_box_many`` against its scalar
definition ``2 · Σ_s |s| · min_b segment_rect_distance(s, b)`` on random,
single-segment, duplicate-point and empty-ish inputs; the Theorem-2
invariant ``bound <= exact`` under every distance backend; TrajTree
``knn``/``knn_scan`` results identical across backends; and the
batch-first pivot-selection kernel bit-for-bit against its per-pair form.
"""

import numpy as np
import pytest

from repro.core import Trajectory, edwp, use_backend
from repro.core.edwp import BACKENDS
from repro.core.edwp_sub import edwp_sub, edwp_sub_fast, edwp_sub_fast_queries
from repro.index import TBoxSeq, TrajTree, edwp_sub_box, edwp_sub_box_many

from helpers import assert_bound_matches, boxseq, random_walk_trajectory


def _random_seq(rng, num_trajs=3, points=8):
    trajs = [random_walk_trajectory(rng, points) for _ in range(num_trajs)]
    return TBoxSeq.from_trajectories(trajs), trajs


class TestGeometryCache:
    """The box geometry a sequence is made of: two read-only arrays, the
    only copy of its boxes."""

    def test_geometry_matches_boxes(self, rng):
        seq, trajs = _random_seq(rng)
        assert seq.rects.dtype == seq.min_len.dtype == np.float64
        assert seq.rects.shape == (len(seq), 4)
        assert seq.min_len.shape == (len(seq),)
        xy = np.concatenate([t.coords() for t in trajs])
        assert (seq.rects[:, :2].min(axis=0) == xy.min(axis=0)).all()
        assert (seq.rects[:, 2:].max(axis=0) == xy.max(axis=0)).all()

    def test_geometry_is_cached(self, rng):
        """Read-only: nothing can change a sequence's boxes in place."""
        seq, _ = _random_seq(rng)
        with pytest.raises(ValueError):
            seq.rects[0, 0] = -1.0
        with pytest.raises(ValueError):
            seq.min_len[0] = 0.0

    def test_construction_returns_fresh_cache(self, rng):
        """with_trajectory/compacted return new sequences and leave the
        original's arrays as they were."""
        seq, _ = _random_seq(rng)
        before = seq.rects.copy(), seq.min_len.copy()
        grown = seq.with_trajectory(random_walk_trajectory(rng, 6))
        assert grown is not seq
        triple = TBoxSeq(np.tile(grown.rects, (3, 1)),
                         np.tile(grown.min_len, 3))
        compact = triple.compacted(4)
        assert compact is not triple and len(compact) == 4
        assert np.array_equal(seq.rects, before[0])
        assert np.array_equal(seq.min_len, before[1])
        assert len(triple) == 3 * len(grown)

    def test_pickle_drops_cache_and_rebuilds(self, rng):
        """A pickle is the two arrays, loaded back through the
        constructor's checks."""
        import pickle

        seq, _ = _random_seq(rng)
        clone = pickle.loads(pickle.dumps(seq))
        assert np.array_equal(clone.rects, seq.rects)
        assert np.array_equal(clone.min_len, seq.min_len)
        assert not clone.rects.flags.writeable
        state = TBoxSeq.__new__(TBoxSeq)
        state.rects, state.min_len = seq.rects[:, ::-1], seq.min_len
        with pytest.raises(ValueError, match="degenerate"):
            pickle.loads(pickle.dumps(state))

    def test_volume_matches_box_sum(self, rng):
        seq, _ = _random_seq(rng)
        assert seq.volume == pytest.approx(
            sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in seq.rects),
            abs=1e-12
        )


class TestCompactionEquivalence:
    """The array compaction must mirror the scalar box formulation."""

    @staticmethod
    def _segment_boxes(t):
        """One tight ``(xmin, ymin, xmax, ymax, minL)`` per segment."""
        return [(min(s.s1.x, s.s2.x), min(s.s1.y, s.s2.y),
                 max(s.s1.x, s.s2.x), max(s.s1.y, s.s2.y), s.length)
                for s in t.segments()]

    @staticmethod
    def _scalar_compact(boxes, max_boxes):
        import math

        def area(b):
            return (b[2] - b[0]) * (b[3] - b[1])

        def union(a, b):
            return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]),
                    max(a[3], b[3]), min(a[4], b[4]))

        boxes = list(boxes)
        while len(boxes) > max_boxes:
            best_i = 0
            best_growth = math.inf
            for i in range(len(boxes) - 1):
                growth = (area(union(boxes[i], boxes[i + 1]))
                          - area(boxes[i]) - area(boxes[i + 1]))
                if growth < best_growth:
                    best_growth = growth
                    best_i = i
            boxes[best_i: best_i + 2] = [
                union(boxes[best_i], boxes[best_i + 1])
            ]
        return boxes

    def test_matches_scalar_sweep(self, rng):
        for _ in range(10):
            t = random_walk_trajectory(rng, int(rng.integers(4, 30)))
            raw = self._segment_boxes(t)
            for budget in (2, 5, 12):
                want = self._scalar_compact(raw, budget)
                got = boxseq(raw).compacted(budget)
                assert got.rects.tolist() == [list(b[:4]) for b in want]
                assert got.min_len.tolist() == [b[4] for b in want]

    def test_from_trajectory_matches_box_path(self, rng):
        for _ in range(5):
            t = random_walk_trajectory(rng, int(rng.integers(3, 25)))
            via_boxes = boxseq(self._segment_boxes(t)).compacted(12)
            via_arrays = TBoxSeq.from_trajectory(t, max_boxes=12)
            assert np.array_equal(via_arrays.rects, via_boxes.rects)
            assert np.array_equal(via_arrays.min_len, via_boxes.min_len)


class TestBoxDpEquivalence:
    """The vectorized node bound == its scalar definition on every input
    shape."""

    def _assert_matches(self, traj, seqs):
        assert_bound_matches(traj, seqs)

    def test_random(self, rng):
        for _ in range(8):
            q = random_walk_trajectory(rng, int(rng.integers(3, 20)))
            seqs = [
                _random_seq(rng, num_trajs=int(rng.integers(1, 4)),
                            points=int(rng.integers(2, 10)))[0]
                for _ in range(5)
            ]
            self._assert_matches(q, seqs)

    def test_single_segment_query(self, rng):
        q = Trajectory.from_xy([(0.0, 0.0), (1.0, 2.0)])
        seqs = [_random_seq(rng)[0] for _ in range(3)]
        self._assert_matches(q, seqs)

    def test_single_box_sequences(self, rng):
        q = random_walk_trajectory(rng, 7)
        seqs = [
            boxseq([(0.0, 0.0, 1.0, 1.0, 0.5)]),
            boxseq([(-3.0, 2.0, -1.0, 4.0, 1.0)]),
        ]
        self._assert_matches(q, seqs)

    def test_duplicate_point_query(self, rng):
        q = Trajectory.from_xy([(1.0, 1.0), (1.0, 1.0), (2.0, 3.0),
                                (2.0, 3.0)])
        seqs = [_random_seq(rng)[0] for _ in range(3)]
        self._assert_matches(q, seqs)

    def test_degenerate_point_boxes(self, rng):
        """Zero-area boxes (from zero-length segments) still match."""
        q = random_walk_trajectory(rng, 6)
        seqs = [boxseq([(1.0, 1.0, 1.0, 1.0, 0.0),
                        (2.0, 2.0, 5.0, 5.0, 1.0)])]
        self._assert_matches(q, seqs)

    def test_subnormal_distances_do_not_tie(self):
        """Candidates 1e-200 from a box square to 0: the bound must still
        match the scalar hypot-based definition."""
        q = Trajectory.from_xy([(46.814642891768614, 1.0),
                                (-38.77353271420918, 0.0)])
        seq = TBoxSeq.from_trajectory(
            Trajectory.from_xy([
                (32.53741809216267, 50.0), (1e-200, 2.2e-308),
                (-50.0, -9.734766108902889),
                (8.100079331535227, 45.172126886951744),
                (35.30290175679053, 1e-200),
            ]),
            max_boxes=4,
        )
        self._assert_matches(q, [seq])

    def test_empty_query_and_empty_batch(self, rng):
        empty = Trajectory([(1.0, 2.0, 0.0)])
        seq = _random_seq(rng)[0]
        assert edwp_sub_box(empty, seq) == 0.0
        assert edwp_sub_box_many(empty, [seq]) == [0.0]
        assert edwp_sub_box_many(random_walk_trajectory(rng, 5), []) == []

    def test_variable_length_padding_exact(self, rng):
        """Mixed box counts in one batch: no box leaks into a neighbour's
        per-sequence minimum."""
        q = random_walk_trajectory(rng, 10)
        seqs = [
            TBoxSeq.from_trajectory(
                random_walk_trajectory(rng, int(rng.integers(2, 26))),
                max_boxes=int(rng.integers(1, 13)),
            )
            for _ in range(12)
        ]
        assert len({len(s) for s in seqs}) > 1  # genuinely mixed
        self._assert_matches(q, seqs)

    def test_batch_matches_single_bitwise(self, rng):
        q = random_walk_trajectory(rng, 9)
        seqs = [_random_seq(rng, points=int(rng.integers(2, 12)))[0]
                for _ in range(7)]
        singles = [edwp_sub_box(q, s) for s in seqs]
        assert edwp_sub_box_many(q, seqs) == singles
        assert edwp_sub_box_many(q, seqs[::-1]) == singles[::-1]


class TestTheorem2Invariant:
    """``bound <= exact`` under every distance backend (the soundness
    contract; the bound itself is one pass on every backend)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_below_edwp_and_edwp_sub(self, rng, backend):
        for _ in range(6):
            members = [
                random_walk_trajectory(rng, int(rng.integers(3, 14)))
                for _ in range(3)
            ]
            seq = TBoxSeq.from_trajectories(members)
            q = random_walk_trajectory(rng, int(rng.integers(3, 14)))
            lb = edwp_sub_box(q, seq)
            for t in members:
                assert lb <= edwp_sub(q, t, backend=backend) + 1e-6
                assert lb <= edwp(q, t, backend=backend) + 1e-6


class TestKnnBackendEquivalence:
    @pytest.fixture(scope="class")
    def database(self):
        rng = np.random.default_rng(5)
        return [
            random_walk_trajectory(rng, int(rng.integers(4, 16)))
            for _ in range(60)
        ]

    @pytest.fixture(scope="class")
    def queries(self):
        rng = np.random.default_rng(17)
        return [random_walk_trajectory(rng, 8) for _ in range(3)]

    def test_knn_identical_across_backends(self, database, queries):
        tree = TrajTree(database, theta=0.8, num_vps=8, normalized=True,
                        seed=3, backend="python")
        for q in queries:
            tree.backend = "python"
            ref = tree.knn(q, 5)
            scan = tree.knn_scan(q, 5)
            tree.backend = "numpy"
            fast = tree.knn(q, 5)
            assert [tid for tid, _ in ref] == [tid for tid, _ in fast]
            assert [tid for tid, _ in ref] == [tid for tid, _ in scan]
            for (_, a), (_, b) in zip(ref, fast):
                assert a == pytest.approx(b, abs=1e-9)

    def test_trees_built_per_backend_agree(self, database, queries):
        """Building under either backend gives the same neighbor sets."""
        trees = {
            be: TrajTree(database, theta=0.8, num_vps=8, normalized=True,
                         seed=3, backend=be)
            for be in BACKENDS
        }
        for q in queries:
            answers = {
                be: [tid for tid, _ in tree.knn(q, 5)]
                for be, tree in trees.items()
            }
            assert answers["python"] == answers["numpy"]

    def test_range_and_subtrajectory_equivalence(self, database, queries):
        tree = TrajTree(database, theta=0.8, num_vps=8, normalized=True,
                        seed=3)
        q = queries[0]
        tree.backend = "python"
        radius = tree.knn(q, 8)[-1][1] * 1.001
        r_ref = tree.range_query(q, radius)
        s_ref = tree.subtrajectory_knn(q, 5)
        oracle = tree.subtrajectory_knn_scan(q, 5)
        tree.backend = "numpy"
        r_fast = tree.range_query(q, radius)
        s_fast = tree.subtrajectory_knn(q, 5)
        assert [tid for tid, _ in r_ref] == [tid for tid, _ in r_fast]
        assert [tid for tid, _ in s_ref] == [tid for tid, _ in s_fast]
        assert [tid for tid, _ in s_ref] == [tid for tid, _ in oracle]


class TestBatchFirstPivotKernel:
    def test_matches_per_pair_bitwise(self, rng):
        trajs = [
            random_walk_trajectory(rng, int(rng.integers(2, 20)))
            for _ in range(20)
        ]
        pivot = trajs[3]
        batched = edwp_sub_fast_queries(trajs, pivot, backend="numpy")
        singles = [
            edwp_sub_fast(t, pivot, backend="numpy") for t in trajs
        ]
        assert batched == singles

    def test_matches_python_to_tolerance(self, rng):
        trajs = [
            random_walk_trajectory(rng, int(rng.integers(2, 14)))
            for _ in range(10)
        ]
        pivot = trajs[0]
        batched = edwp_sub_fast_queries(trajs, pivot, backend="numpy")
        ref = [edwp_sub_fast(t, pivot, backend="python") for t in trajs]
        for b, r in zip(batched, ref):
            assert b == pytest.approx(r, abs=1e-9 * max(1.0, r))

    def test_empty_query_and_empty_target(self, rng):
        import math

        empty = Trajectory([(0.0, 0.0, 0.0)])
        full = random_walk_trajectory(rng, 5)
        for backend in BACKENDS:
            with use_backend(backend):
                assert edwp_sub_fast_queries([empty, full], full)[0] == 0.0
                vals = edwp_sub_fast_queries([empty, full], empty)
                assert vals[0] == 0.0
                assert vals[1] == math.inf

    def test_build_identical_across_batched_and_loop(self, rng):
        """Pivot columns feed tree construction: the numpy tree must be
        built from bit-identical diversity distances whether or not the
        batched column evaluator is available (it is the same kernel)."""
        db = [
            random_walk_trajectory(rng, int(rng.integers(4, 12)))
            for _ in range(30)
        ]
        t1 = TrajTree(db, theta=0.8, num_vps=4, seed=11, backend="numpy")
        t2 = TrajTree(db, theta=0.8, num_vps=4, seed=11, backend="numpy")
        assert t1.root.subtree_ids == t2.root.subtree_ids
        assert [len(c.subtree_ids) for c in t1.root.children] == [
            len(c.subtree_ids) for c in t2.root.children
        ]
