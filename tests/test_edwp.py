"""EDwP unit tests: paper anchors, base cases, invariants, alignment."""

import math

import numpy as np
import pytest

from repro.core import BACKENDS, Trajectory, edwp, edwp_alignment, edwp_avg
from repro.core import edwp_many
from repro.core.edwp import coverage, rep_cost


class TestPaperAnchors:
    """Every fully-specified EDwP number printed in the paper."""

    def test_appendix_a_counterexample(self, paper_appendix_trajectories):
        t1, t2, t3 = paper_appendix_trajectories
        assert edwp(t1, t2) == pytest.approx(1.0)
        assert edwp(t2, t3) == pytest.approx(1.0)
        assert edwp(t1, t3) == pytest.approx(4.0)

    def test_triangle_inequality_violated(self, paper_appendix_trajectories):
        """Theorem 1: EDwP(T1,T2) + EDwP(T2,T3) < EDwP(T1,T3)."""
        t1, t2, t3 = paper_appendix_trajectories
        assert edwp(t1, t2) + edwp(t2, t3) < edwp(t1, t3)

    def test_example1_insert_and_rep_cost(self, fig2_trajectories):
        """Example 1: ins(T1,T2) projects (2,7) to (0,7) on T1.e1 and the
        following rep costs 4 (unweighted), 4 x 14 = 56 weighted."""
        t1, t2 = fig2_trajectories
        result = edwp_alignment(t1, t2)
        first = result.edits[0]
        assert first.op == "ins1"
        assert first.piece1[1] == pytest.approx((0.0, 7.0))
        assert first.piece2 == ((2.0, 0.0), (2.0, 7.0))
        assert first.cost == pytest.approx(56.0)

    def test_rep_cost_eq2(self):
        """Eq. 2 on the Example-1 segments: 2 + 2 = 4."""
        assert rep_cost((0, 0), (0, 7), (2, 0), (2, 7)) == pytest.approx(4.0)

    def test_coverage_eq3(self):
        """Eq. 3 on the Example-1 segments: 7 + 7 = 14."""
        assert coverage((0, 0), (0, 7), (2, 0), (2, 7)) == pytest.approx(14.0)


class TestBaseCases:
    def test_both_empty(self):
        assert edwp(Trajectory([]), Trajectory([])) == 0.0

    def test_one_empty(self):
        t = Trajectory.from_xy([(0, 0), (1, 1)])
        assert edwp(Trajectory([]), t) == math.inf
        assert edwp(t, Trajectory([])) == math.inf

    def test_single_points_have_no_segments(self):
        """|T| counts segments: two single-point trajectories are both
        'empty' under the recursion and get distance 0."""
        a = Trajectory([(5, 5, 0)])
        b = Trajectory([(9, 9, 0)])
        assert edwp(a, b) == 0.0

    def test_single_point_vs_segments_is_inf(self):
        a = Trajectory([(5, 5, 0)])
        b = Trajectory.from_xy([(0, 0), (1, 1)])
        assert edwp(a, b) == math.inf


class TestInvariants:
    def test_identity(self, rng):
        for _ in range(10):
            t = Trajectory.from_xy(rng.uniform(0, 10, (6, 2)))
            assert edwp(t, t) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 8)), 2)))
            b = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 8)), 2)))
            assert edwp(a, b) == pytest.approx(edwp(b, a), rel=1e-9)

    def test_non_negative(self, rng):
        for _ in range(20):
            a = Trajectory.from_xy(rng.uniform(0, 10, (5, 2)))
            b = Trajectory.from_xy(rng.uniform(0, 10, (7, 2)))
            assert edwp(a, b) >= 0.0

    def test_timestamps_do_not_affect_distance(self, rng):
        xy_a = rng.uniform(0, 10, (5, 2))
        xy_b = rng.uniform(0, 10, (6, 2))
        a1 = Trajectory.from_xy(xy_a, dt=1.0)
        a2 = Trajectory.from_xy(xy_a, dt=37.0)
        b = Trajectory.from_xy(xy_b, dt=5.0)
        assert edwp(a1, b) == pytest.approx(edwp(a2, b))

    def test_translation_invariance(self, rng):
        a = Trajectory.from_xy(rng.uniform(0, 10, (5, 2)))
        b = Trajectory.from_xy(rng.uniform(0, 10, (6, 2)))
        assert edwp(a.translated(100, -50), b.translated(100, -50)) == (
            pytest.approx(edwp(a, b), rel=1e-9)
        )

    def test_separated_trajectories_cost_scales(self):
        """Parallel lines at distance d cost ~ 2d x 2L (one rep)."""
        a = Trajectory.from_xy([(0, 0), (0, 10)])
        b = Trajectory.from_xy([(3, 0), (3, 10)])
        assert edwp(a, b) == pytest.approx((3 + 3) * (10 + 10))


class TestDynamicInterpolationRobustness:
    """The core claim: EDwP is insensitive to re-sampling of the same path."""

    def test_densified_copy_is_near_zero(self, rng):
        base = Trajectory.from_xy([(0, 0), (10, 0), (10, 10), (20, 10)])
        dense = base
        for seg in (2, 0, 1):
            dense = dense.with_point_inserted(seg, 0.37)
        assert edwp(base, dense) == pytest.approx(0.0, abs=1e-9)

    def test_inserting_point_rarely_hurts(self, rng):
        """Lemma 3's direction: refining one side should not increase the
        distance.  The Viterbi DP (DESIGN.md) is a heuristic, so the test
        tolerates rare small regressions but fails on systematic ones."""
        regressions = 0
        for _ in range(40):
            a = Trajectory.from_xy(rng.uniform(0, 10, (5, 2)))
            b = Trajectory.from_xy(rng.uniform(0, 10, (5, 2)))
            base = edwp(a, b)
            seg = int(rng.integers(0, b.num_segments))
            refined = edwp(a, b.with_point_inserted(seg, float(rng.uniform(0.1, 0.9))))
            if refined > base * 1.10 + 1e-9:
                regressions += 1
        assert regressions <= 3


class TestEdwpAvg:
    def test_eq4_normalization(self, fig2_trajectories):
        t1, t2 = fig2_trajectories
        assert edwp_avg(t1, t2) == pytest.approx(
            edwp(t1, t2) / (t1.length + t2.length)
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")
    def test_degenerate_lengths(self):
        a = Trajectory([(1, 1, 0), (1, 1, 5)])  # zero length, one segment
        assert edwp_avg(a, a) == 0.0
        # lengths and the raw distance overflow: inf, never inf / inf
        far = Trajectory.from_xy([(0, 0), (1e200, 0)])
        other = Trajectory.from_xy([(0, 1e200), (1e200, 1e200)])
        assert far.length == math.inf
        for backend in BACKENDS:
            assert edwp_avg(far, other, backend=backend) == math.inf
            assert edwp_many(far, [other], normalized=True,
                             backend=backend) == [math.inf]
            # raw, too: the numpy kernel's NaN is inf at every entry point
            assert edwp(far, other, backend=backend) == math.inf
            assert edwp_many(far, [other], backend=backend) == [math.inf]
        # the one divergence left: a pair that overflows against itself
        assert edwp(far, far, backend="python") == 0.0
        assert edwp(far, far, backend="numpy") == math.inf

    def test_identity_zero(self):
        t = Trajectory.from_xy([(0, 0), (5, 5), (10, 0)])
        assert edwp_avg(t, t) == pytest.approx(0.0, abs=1e-12)


class TestAlignment:
    def test_edit_costs_sum_to_distance(self, rng):
        for _ in range(15):
            a = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 7)), 2)))
            b = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 7)), 2)))
            result = edwp_alignment(a, b)
            assert sum(e.cost for e in result.edits) == pytest.approx(
                result.distance, rel=1e-9, abs=1e-9
            )
            assert result.distance == pytest.approx(edwp(a, b))

    def test_alignment_pieces_are_contiguous(self, rng):
        a = Trajectory.from_xy(rng.uniform(0, 10, (5, 2)))
        b = Trajectory.from_xy(rng.uniform(0, 10, (6, 2)))
        edits = edwp_alignment(a, b).edits
        for prev, cur in zip(edits[:-1], edits[1:]):
            assert prev.piece1[1] == pytest.approx(cur.piece1[0])
            assert prev.piece2[1] == pytest.approx(cur.piece2[0])

    def test_alignment_spans_both_trajectories(self, rng):
        a = Trajectory.from_xy(rng.uniform(0, 10, (4, 2)))
        b = Trajectory.from_xy(rng.uniform(0, 10, (5, 2)))
        edits = edwp_alignment(a, b).edits
        assert edits[0].piece1[0] == pytest.approx(tuple(a.data[0, :2]))
        assert edits[0].piece2[0] == pytest.approx(tuple(b.data[0, :2]))
        assert edits[-1].piece1[1] == pytest.approx(tuple(a.data[-1, :2]))
        assert edits[-1].piece2[1] == pytest.approx(tuple(b.data[-1, :2]))

    def test_empty_alignment(self):
        result = edwp_alignment(Trajectory([]), Trajectory([]))
        assert result.distance == 0.0
        assert result.edits == []
