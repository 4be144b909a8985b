"""St-boxes (Definition 4) as the rows of a tBoxSeq.

Box ``i`` of a :class:`~repro.index.TBoxSeq` is ``rects[i]``, its spatial
rectangle ``(xmin, ymin, xmax, ymax)``, and ``min_len[i]``, its ``minL``.
The box-level geometry is :mod:`repro.core.geometry`'s rectangle
functions applied to a row; growth is :meth:`TBoxSeq.with_trajectory`
and union is :meth:`TBoxSeq.compacted`.
"""

import numpy as np
import pytest

from repro.core import Trajectory
from repro.core.geometry import (point_rect_distance, project_point_on_rect,
                                 xy_rect_segment_nearest)
from repro.index import TBoxSeq
from repro.index.tboxseq import edwp_sub_box_alignment

from helpers import boxseq


def box(xmin=0.0, ymin=0.0, xmax=10.0, ymax=10.0, min_len=1.0):
    return boxseq([(xmin, ymin, xmax, ymax, min_len)])


def grown(seq, *points):
    return seq.with_trajectory(Trajectory.from_xy(points))


class TestConstruction:
    def test_from_segment_is_tight(self):
        seq = TBoxSeq.from_trajectory(Trajectory.from_xy([(3, 8), (1, 2)]))
        assert seq.rects.tolist() == [[1.0, 2.0, 3.0, 8.0]]
        assert seq.min_len[0] == pytest.approx(np.hypot(2, 6))

    def test_from_points(self):
        """Compacted to one box, a trajectory's summary is the tight box
        around its points; ``minL`` is its shortest segment."""
        t = Trajectory.from_xy([(0, 0), (5, 2), (3, 7)])
        seq = TBoxSeq.from_trajectory(t, max_boxes=1)
        assert seq.rects.tolist() == [[0.0, 0.0, 5.0, 7.0]]
        assert seq.min_len[0] == pytest.approx(np.hypot(2, 5))

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError, match="at least one box"):
            TBoxSeq(np.empty((0, 4)), np.empty(0))

    def test_invalid_extent_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            box(5, 0, 0, 10)
        with pytest.raises(ValueError, match="degenerate"):
            box(0, 10, 1, 0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="degenerate"):
                box(xmin=bad)
            with pytest.raises(ValueError, match="degenerate"):
                box(ymax=bad)

    def test_negative_min_len_raises(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="min_len"):
                box(min_len=bad)


class TestGeometry:
    def test_area(self):
        assert box(0, 0, 4, 5).volume == 20.0

    def test_contains_point(self):
        """A box is closed: a point on its border is at distance 0."""
        rect = box().rects[0].tolist()
        assert point_rect_distance((5, 5), *rect) == 0.0
        assert point_rect_distance((0, 10), *rect) == 0.0
        assert point_rect_distance((11, 5), *rect) == 1.0

    def test_contains_segment(self):
        """``e ∈ b``: every piece the alignment matches to a box lies
        inside the grown box, both ends."""
        seq = TBoxSeq.from_trajectory(
            Trajectory.from_xy([(0, 0), (4, 1), (9, 3), (12, 9)]))
        other = Trajectory.from_xy([(1, 2), (5, 6), (13, 4)])
        after = seq.with_trajectory(other, max_boxes=len(seq))
        _, edits = edwp_sub_box_alignment(other, seq)
        for edit in edits:
            rect = after.rects[edit.box_index].tolist()
            for end in edit.piece:
                assert point_rect_distance(end, *rect) == 0.0

    def test_dist_point_definition(self):
        """dist(s, b) = min over the box (0 inside, rect distance outside)."""
        rect = box().rects[0].tolist()
        assert point_rect_distance((5, 5), *rect) == 0.0
        assert point_rect_distance((13, 14), *rect) == 5.0

    def test_project_point(self):
        rect = box().rects[0].tolist()
        assert project_point_on_rect((15, 5), *rect) == (10.0, 5.0)
        assert project_point_on_rect((5, 5), *rect) == (5.0, 5.0)

    def test_project_on_segment(self):
        """The point of a segment nearest a box row, as the construction
        alignment reads it: ``(x, y, fraction, distance)``."""
        px, py, _, d = xy_rect_segment_nearest(20, 0, 20, 20,
                                               *box().rects[0].tolist())
        assert px == 20.0
        assert d == pytest.approx(10.0)
        assert point_rect_distance((px, py), *box().rects[0]) == d


class TestExpansion:
    def test_expanded_by_piece_grows(self):
        b = grown(box(), (12, 5), (12, 8))
        assert b.rects.tolist() == [[0.0, 0.0, 12.0, 10.0]]
        assert b.min_len[0] == 1.0  # piece length 3 > min_len 1

    def test_expanded_by_short_piece_lowers_min_len(self):
        """Growth keeps ``minL`` the shortest thing enclosed."""
        b = grown(box(), (1, 1), (1.2, 1.0))
        assert b.rects.tolist() == box().rects.tolist()
        assert b.min_len[0] == pytest.approx(0.2)

    def test_expansion_is_monotone(self):
        b = box()
        g = grown(b, (-5, -5), (20, 25))
        assert (g.rects[:, :2] <= b.rects[:, :2]).all()
        assert (g.rects[:, 2:] >= b.rects[:, 2:]).all()
        assert g.volume >= b.volume

    def test_union(self):
        u = boxseq([(0, 0, 5, 5, 2.0), (3, 3, 10, 12, 1.0)]).compacted(1)
        assert u.rects.tolist() == [[0.0, 0.0, 10.0, 12.0]]
        assert u.min_len.tolist() == [1.0]

    def test_union_area_increase(self):
        b = box(0, 0, 10, 10)
        inside = Trajectory.from_xy([(5, 5), (6, 6)])
        beside = Trajectory.from_xy([(20, 0), (20, 10)])
        assert b.volume_increase(inside) == 0.0
        assert b.volume_increase(beside) == pytest.approx(100.0)
