"""Unit tests for the planar geometry substrate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.geometry import (
    clamp,
    interpolate,
    point_distance,
    point_rect_distance,
    point_segment_distance,
    polyline_length,
    polyline_rects_distance,
    project_point_on_rect,
    project_point_on_segment,
    project_rect_on_segment,
    segment_length,
    segment_rect_distance,
    segments_rects_distance,
    squared_point_distance,
)
from repro.index.tboxseq import TBoxSeq

from test_backend_matrix import (SUBNORMAL_BASE, SUBNORMAL_DELTA_QUERY,
                                 SUBNORMAL_DIST_QUERY, trajectories)


class TestPointDistance:
    def test_pythagorean(self):
        assert point_distance((0, 0), (3, 4)) == 5.0

    def test_zero(self):
        assert point_distance((1.5, -2.5), (1.5, -2.5)) == 0.0

    def test_symmetric(self):
        assert point_distance((1, 2), (4, 6)) == point_distance((4, 6), (1, 2))

    def test_squared_matches(self):
        d = point_distance((1, 2), (-3, 5))
        assert squared_point_distance((1, 2), (-3, 5)) == pytest.approx(d * d)


class TestInterpolate:
    def test_endpoints(self):
        assert interpolate((0, 0), (10, 20), 0.0) == (0.0, 0.0)
        assert interpolate((0, 0), (10, 20), 1.0) == (10.0, 20.0)

    def test_midpoint(self):
        assert interpolate((0, 0), (10, 20), 0.5) == (5.0, 10.0)


class TestProjectPointOnSegment:
    def test_interior_projection(self):
        p, t = project_point_on_segment((0, 0), (10, 0), (4, 3))
        assert p == (4.0, 0.0)
        assert t == pytest.approx(0.4)

    def test_clamps_before_start(self):
        p, t = project_point_on_segment((0, 0), (10, 0), (-5, 2))
        assert p == (0.0, 0.0)
        assert t == 0.0

    def test_clamps_after_end(self):
        p, t = project_point_on_segment((0, 0), (10, 0), (15, 2))
        assert p == (10.0, 0.0)
        assert t == 1.0

    def test_degenerate_segment(self):
        p, t = project_point_on_segment((3, 3), (3, 3), (7, 7))
        assert p == (3.0, 3.0)
        assert t == 0.0

    def test_paper_example1_projection(self):
        """Projection of (2,7) onto the segment (0,0)-(0,10) is (0,7) —
        the insert point of the paper's Example 1."""
        p, t = project_point_on_segment((0, 0), (0, 10), (2, 7))
        assert p == (0.0, 7.0)
        assert t == pytest.approx(0.7)


class TestPointSegmentDistance:
    def test_perpendicular(self):
        assert point_segment_distance((0, 0), (10, 0), (5, 3)) == 3.0

    def test_beyond_endpoint(self):
        assert point_segment_distance((0, 0), (10, 0), (13, 4)) == 5.0


class TestClamp:
    def test_inside(self):
        assert clamp(5.0, 0.0, 10.0) == 5.0

    def test_low(self):
        assert clamp(-1.0, 0.0, 10.0) == 0.0

    def test_high(self):
        assert clamp(11.0, 0.0, 10.0) == 10.0


class TestPointRectDistance:
    def test_inside_is_zero(self):
        assert point_rect_distance((5, 5), 0, 0, 10, 10) == 0.0

    def test_border_is_zero(self):
        assert point_rect_distance((0, 5), 0, 0, 10, 10) == 0.0

    def test_axis_aligned_outside(self):
        assert point_rect_distance((15, 5), 0, 0, 10, 10) == 5.0
        assert point_rect_distance((5, -3), 0, 0, 10, 10) == 3.0

    def test_corner_distance(self):
        assert point_rect_distance((13, 14), 0, 0, 10, 10) == 5.0

    def test_projection_consistency(self):
        p = (17.0, -4.0)
        rect = (0.0, 0.0, 10.0, 10.0)
        proj = project_point_on_rect(p, *rect)
        assert point_distance(p, proj) == pytest.approx(
            point_rect_distance(p, *rect)
        )


class TestProjectRectOnSegment:
    def test_intersecting_segment_distance_zero(self):
        (px, py), t = project_rect_on_segment((-5, 5), (15, 5), 0, 0, 10, 10)
        assert point_rect_distance((px, py), 0, 0, 10, 10) == pytest.approx(0.0)

    def test_parallel_segment(self):
        (px, py), t = project_rect_on_segment((0, 20), (10, 20), 0, 0, 10, 10)
        assert py == pytest.approx(20.0)
        assert point_rect_distance((px, py), 0, 0, 10, 10) == pytest.approx(10.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = rng.uniform(-5, 5, 2)
            b = rng.uniform(-5, 5, 2)
            x0, y0 = rng.uniform(-5, 5, 2)
            w, h = rng.uniform(0.01, 4, 2)
            rect = (x0, y0, x0 + w, y0 + h)
            (px, py), _ = project_rect_on_segment(a, b, *rect)
            got = point_rect_distance((px, py), *rect)
            ts = np.linspace(0, 1, 501)
            pts = a[None, :] + ts[:, None] * (b - a)[None, :]
            dx = np.maximum(np.maximum(rect[0] - pts[:, 0],
                                       pts[:, 0] - rect[2]), 0)
            dy = np.maximum(np.maximum(rect[1] - pts[:, 1],
                                       pts[:, 1] - rect[3]), 0)
            brute = float(np.sqrt(dx ** 2 + dy ** 2).min())
            assert got <= brute + 1e-9

    def test_segment_rect_distance_wrapper(self):
        assert segment_rect_distance((0, 20), (10, 20), 0, 0, 10, 10) == (
            pytest.approx(10.0)
        )


class TestPolylineLength:
    def test_straight(self):
        assert polyline_length([(0, 0), (3, 4), (6, 8)]) == pytest.approx(10.0)

    def test_single_point(self):
        assert polyline_length([(1, 1)]) == 0.0

    def test_segment_length(self):
        assert segment_length((0, 0), (0, 7)) == 7.0


class TestSegmentsRectsDistance:
    """The ten-candidate pass behind the quick bound, Rule 2 and the box
    bound, entry by entry against the scalar ``segment_rect_distance``."""

    @staticmethod
    def _check(points, rects):
        got = segments_rects_distance(points, rects)
        assert got.shape == (len(rects), len(points) - 1)
        pts = points.tolist()
        for i, r in enumerate(rects.tolist()):
            for j in range(len(pts) - 1):
                want = segment_rect_distance(pts[j], pts[j + 1], *r)
                # sqrt(dx*dx + dy*dy) against the scalar hypot: a few ulps,
                # plus what squaring loses below ~1e-154
                assert abs(got[i, j] - want) <= 8e-16 * want + 1e-160
        assert np.array_equal(polyline_rects_distance(points, rects),
                              got.min(axis=1))

    @settings(max_examples=40, deadline=None)
    @given(q=trajectories(min_len=2), base=trajectories(min_len=2),
           scale=st.sampled_from([1.0, 1e-300, 1e-150, 1e150]))
    @example(q=SUBNORMAL_DIST_QUERY, base=SUBNORMAL_BASE, scale=1.0)
    @example(q=SUBNORMAL_DELTA_QUERY, base=SUBNORMAL_BASE, scale=1.0)
    def test_matches_scalar_loop(self, q, base, scale):
        rects = TBoxSeq.from_trajectory(base, max_boxes=4).rects
        self._check(q.coords() * scale, rects * scale)
