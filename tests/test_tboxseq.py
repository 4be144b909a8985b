"""tBoxSeq construction and the Theorem-2 lower bound."""

import pytest

from repro.core import Trajectory, edwp
from repro.core.geometry import point_rect_distance
from repro.index import TBoxSeq, edwp_sub_box
from repro.index.tboxseq import edwp_sub_box_alignment

from helpers import boxseq, random_walk_trajectory


class TestConstruction:
    def test_from_trajectory_one_box_per_segment(self):
        t = Trajectory.from_xy([(0, 0), (5, 0), (5, 5)])
        seq = TBoxSeq.from_trajectory(t)
        assert len(seq) == 2
        assert seq.min_len[0] == pytest.approx(5.0)

    def test_from_trajectory_respects_max_boxes(self):
        t = Trajectory.from_xy([(i, (i % 2) * 3.0) for i in range(40)])
        seq = TBoxSeq.from_trajectory(t, max_boxes=8)
        assert len(seq) <= 8

    def test_empty_trajectory_raises(self):
        with pytest.raises(ValueError):
            TBoxSeq.from_trajectory(Trajectory([(1, 1, 0)]))

    def test_from_trajectories_empty_raises(self):
        with pytest.raises(ValueError):
            TBoxSeq.from_trajectories([])

    def test_volume_is_sum_of_areas(self):
        t = Trajectory.from_xy([(0, 0), (5, 1), (6, 4)])
        seq = TBoxSeq.from_trajectory(t)
        assert seq.volume == pytest.approx(
            sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in seq.rects))

    def test_with_trajectory_only_grows_boxes(self, rng):
        base = random_walk_trajectory(rng, 8)
        other = random_walk_trajectory(rng, 6)
        seq = TBoxSeq.from_trajectory(base)
        grown = seq.with_trajectory(other)
        assert grown.volume >= seq.volume - 1e-9

    def test_with_trajectory_covers_added_points(self, rng):
        """Every point of an added trajectory ends up inside some box."""
        for _ in range(10):
            base = random_walk_trajectory(rng, 8)
            other = random_walk_trajectory(rng, 6)
            grown = TBoxSeq.from_trajectory(base).with_trajectory(other)
            for row in other.data:
                assert any(
                    point_rect_distance((row[0], row[1]), *rect) < 1e-6
                    for rect in grown.rects.tolist()
                )

    def test_volume_increase_matches(self, rng):
        base = random_walk_trajectory(rng, 8)
        other = random_walk_trajectory(rng, 6)
        seq = TBoxSeq.from_trajectory(base)
        assert seq.volume_increase(other) == pytest.approx(
            seq.with_trajectory(other).volume - seq.volume
        )

    def test_compacted_reduces_count(self):
        seq = boxseq([(i, 0, i + 1, 1, 1.0) for i in range(20)]).compacted(5)
        assert len(seq) == 5

    def test_compacted_noop_when_under_budget(self):
        seq = boxseq([(0, 0, 1, 1, 1.0)])
        assert seq.compacted(5) is seq


class TestLowerBound:
    def test_theorem2_on_random_groups(self, rng):
        """EDwPsub(Q, tBoxSeq(T)) <= EDwP(Q, T) for every T in the group."""
        violations = 0
        total = 0
        for _ in range(60):
            group = [
                random_walk_trajectory(rng, int(rng.integers(3, 10)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            seq = TBoxSeq.from_trajectories(group)
            query = random_walk_trajectory(rng, int(rng.integers(3, 10)))
            lb = edwp_sub_box(query, seq)
            for t in group:
                total += 1
                if lb > edwp(query, t) + 1e-9:
                    violations += 1
        assert violations == 0, f"{violations}/{total} Theorem-2 violations"

    def test_member_query_bound_is_zero_ish(self, rng):
        """A trajectory of the summarized set lies inside the boxes, so its
        own lower bound must be (near) zero."""
        group = [random_walk_trajectory(rng, 8) for _ in range(3)]
        seq = TBoxSeq.from_trajectories(group)
        for t in group:
            assert edwp_sub_box(t, seq) <= edwp(t, t) + 1e-9

    def test_empty_query_is_zero(self):
        seq = TBoxSeq.from_trajectory(Trajectory.from_xy([(0, 0), (1, 1)]))
        assert edwp_sub_box(Trajectory([(1, 1, 0)]), seq) == 0.0

    def test_far_query_has_positive_bound(self):
        seq = TBoxSeq.from_trajectory(Trajectory.from_xy([(0, 0), (1, 0)]))
        far = Trajectory.from_xy([(100, 100), (101, 100)])
        assert edwp_sub_box(far, seq) > 100.0

    def test_bound_scales_with_distance(self):
        seq = TBoxSeq.from_trajectory(Trajectory.from_xy([(0, 0), (10, 0)]))
        near = Trajectory.from_xy([(0, 5), (10, 5)])
        far = Trajectory.from_xy([(0, 50), (10, 50)])
        assert edwp_sub_box(far, seq) > edwp_sub_box(near, seq)


class TestAlignment:
    def test_alignment_costs_sum_to_value(self, rng):
        for _ in range(10):
            group = [random_walk_trajectory(rng, 7) for _ in range(2)]
            seq = TBoxSeq.from_trajectories(group)
            q = random_walk_trajectory(rng, 6)
            value, edits = edwp_sub_box_alignment(q, seq)
            assert sum(e.cost for e in edits) == pytest.approx(value)

    def test_alignment_box_indices_valid(self, rng):
        group = [random_walk_trajectory(rng, 7) for _ in range(2)]
        seq = TBoxSeq.from_trajectories(group)
        q = random_walk_trajectory(rng, 6)
        _, edits = edwp_sub_box_alignment(q, seq)
        for e in edits:
            assert 0 <= e.box_index < len(seq)

    def test_alignment_box_indices_monotone(self, rng):
        """Edits consume boxes in travel order."""
        group = [random_walk_trajectory(rng, 7) for _ in range(2)]
        seq = TBoxSeq.from_trajectories(group)
        q = random_walk_trajectory(rng, 6)
        _, edits = edwp_sub_box_alignment(q, seq)
        indices = [e.box_index for e in edits]
        assert indices == sorted(indices)
