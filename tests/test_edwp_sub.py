"""EDwPsub / PrefixDist unit tests (Eq. 5-6)."""

import math

import numpy as np
import pytest

from repro.core import BACKENDS, Trajectory, edwp
from repro.core.edwp_sub import (edwp_sub, edwp_sub_alignment, edwp_sub_many,
                                 prefix_dist)


class TestPaperAnchors:
    def test_example4_edwpsub(self, fig2_trajectories):
        """Example 4: EDwPsub(T2, T1) = 80 (edits 56 + 24, suffix skipped)."""
        t1, t2 = fig2_trajectories
        assert edwp_sub(t2, t1) == pytest.approx(80.0)

    def test_example4_edit_structure(self, fig2_trajectories):
        t1, t2 = fig2_trajectories
        result = edwp_sub_alignment(t2, t1)
        assert result.distance == pytest.approx(80.0)
        costs = sorted(e.cost for e in result.edits)
        assert costs == pytest.approx([24.0, 56.0])

    def test_asymmetry(self, fig2_trajectories):
        """EDwPsub is asymmetric (Sec. IV-B): the Example-4 pair differs."""
        t1, t2 = fig2_trajectories
        assert edwp_sub(t2, t1) != pytest.approx(edwp_sub(t1, t2))


class TestBaseCases:
    def test_empty_query_is_zero(self):
        s = Trajectory.from_xy([(0, 0), (1, 1)])
        assert edwp_sub(Trajectory([]), s) == 0.0
        assert prefix_dist(Trajectory([]), s) == 0.0

    def test_empty_target_is_inf(self):
        t = Trajectory.from_xy([(0, 0), (1, 1)])
        assert edwp_sub(t, Trajectory([])) == math.inf
        assert prefix_dist(t, Trajectory([])) == math.inf

    def test_both_empty(self):
        assert edwp_sub(Trajectory([]), Trajectory([])) == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_overflowing_pair_is_inf(self, backend):
        """The numpy kernel's NaN at overflow is ``inf`` on every entry
        point, as in the reference DP; ``subtrajectory_knn`` refinement
        reads ``edwp_sub_many``."""
        far = Trajectory.from_xy([(0, 0), (1e200, 0)])
        other = Trajectory.from_xy([(0, 1e200), (1e200, 1e200)])
        assert edwp_sub(far, other, backend=backend) == math.inf
        assert edwp_sub_many(far, [other, far], backend=backend) == [
            math.inf, 0.0 if backend == "python" else math.inf]


class TestSkipping:
    def test_exact_subtrajectory_costs_zero(self):
        """A query that is literally a sub-trajectory of S matches free."""
        s = Trajectory.from_xy([(0, 0), (10, 0), (10, 10), (20, 10), (20, 20)])
        q = s.subtrajectory(1, 4)
        assert edwp_sub(q, s) == pytest.approx(0.0, abs=1e-9)

    def test_prefix_dist_skips_suffix_only(self):
        """PrefixDist anchors at the start: a mid-S query pays for the
        prefix, while EDwPsub does not."""
        s = Trajectory.from_xy([(0, 0), (10, 0), (10, 10), (20, 10)])
        q = s.subtrajectory(2, 4)  # a suffix portion
        assert edwp_sub(q, s) == pytest.approx(0.0, abs=1e-9)
        assert prefix_dist(q, s) > 1.0

    def test_prefix_of_s_is_free_under_prefix_dist(self):
        s = Trajectory.from_xy([(0, 0), (10, 0), (10, 10), (20, 10)])
        q = s.subtrajectory(0, 2)
        assert prefix_dist(q, s) == pytest.approx(0.0, abs=1e-9)


class TestBoundRelations:
    def test_sub_le_full(self, rng):
        """EDwPsub(T, S) <= EDwP(T, S): skipping is never worse (Lemma 2
        with Ts = S)."""
        violations = 0
        for _ in range(50):
            t = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 7)), 2)))
            s = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 9)), 2)))
            if edwp_sub(t, s) > edwp(t, s) + 1e-9:
                violations += 1
        # The Viterbi DP realization is documented (DESIGN.md) as a
        # heuristic: rare violations are tolerated, frequent ones are a bug.
        assert violations <= 2

    def test_sub_le_prefix_dist(self, rng):
        """EDwPsub adds prefix skipping on top of PrefixDist (Eq. 6)."""
        for _ in range(30):
            t = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 6)), 2)))
            s = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 8)), 2)))
            assert edwp_sub(t, s) <= prefix_dist(t, s) + 1e-9

    def test_nonnegative(self, rng):
        for _ in range(20):
            t = Trajectory.from_xy(rng.uniform(0, 10, (4, 2)))
            s = Trajectory.from_xy(rng.uniform(0, 10, (6, 2)))
            assert edwp_sub(t, s) >= 0.0


class TestAlignment:
    def test_costs_sum_to_distance(self, rng):
        for _ in range(15):
            t = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 6)), 2)))
            s = Trajectory.from_xy(rng.uniform(0, 10, (int(rng.integers(2, 8)), 2)))
            result = edwp_sub_alignment(t, s)
            assert sum(e.cost for e in result.edits) == pytest.approx(
                result.distance, rel=1e-9, abs=1e-9
            )

    def test_alignment_covers_whole_query(self, rng):
        t = Trajectory.from_xy(rng.uniform(0, 10, (5, 2)))
        s = Trajectory.from_xy(rng.uniform(0, 10, (7, 2)))
        edits = edwp_sub_alignment(t, s).edits
        assert edits[0].piece1[0] == pytest.approx(tuple(t.data[0, :2]))
        assert edits[-1].piece1[1] == pytest.approx(tuple(t.data[-1, :2]))
