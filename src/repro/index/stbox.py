"""Spatio-temporal boxes (paper Definition 4).

An st-box ``b = (s1, s2, minL)`` is an axis-aligned spatial rectangle
bounding a set of st-segments, plus ``minL`` — the minimum length of any
segment enclosed.  ``minL`` feeds the generalized Coverage
(``Coverage(T.e, B.b) = length(e) + b.minL``), which is what lets a box
sequence lower-bound EDwP: the box never claims more coverage than the
shortest thing inside it.

Boxes only ever *grow* (inserting trajectories into a TrajTree node expands
boxes), so the class is immutable and expansion returns new instances.

The scalar geometry here (``dist_point``, ``project_on_segment``) is what
the construction alignment (``repro.index.tboxseq._box_dp``) consumes; the
node bound reads whole box sequences as arrays instead
(``TBoxSeq.geometry()`` — see DESIGN.md, "Index bound kernels").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from ..core.geometry import (
    Point,
    point_distance,
    point_rect_distance,
    project_point_on_rect,
    project_rect_on_segment,
)
from ..core.trajectory import Segment

__all__ = ["STBox"]


@dataclass(frozen=True)
class STBox:
    """Axis-aligned spatial bounding box over st-segments (Definition 4).

    Attributes
    ----------
    xmin, ymin, xmax, ymax:
        The spatial diagonal corners ``s1``/``s2`` of the paper's definition.
    min_len:
        ``minL`` — minimum spatial length among all segments enclosed.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    min_len: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"degenerate box: ({self.xmin},{self.ymin})..({self.xmax},{self.ymax})"
            )
        if self.min_len < 0 or not math.isfinite(self.min_len):
            raise ValueError(f"min_len must be finite and non-negative: {self.min_len}")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_segment(segment: Segment) -> "STBox":
        """Tight box around a single st-segment; ``minL`` is its length."""
        x1, y1 = segment.s1.x, segment.s1.y
        x2, y2 = segment.s2.x, segment.s2.y
        return STBox(
            xmin=min(x1, x2),
            ymin=min(y1, y2),
            xmax=max(x1, x2),
            ymax=max(y1, y2),
            min_len=segment.length,
        )

    @staticmethod
    def from_points(points: Iterable[Sequence[float]], min_len: float) -> "STBox":
        """Tight box around a point cloud with an explicit ``minL``."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build a box from zero points")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        return STBox(min(xs), min(ys), max(xs), max(ys), min_len)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    @property
    def area(self) -> float:
        """Spatial area — ``Vol(b)`` in 2-D (Definition 5)."""
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    @property
    def center(self) -> Point:
        """Geometric center of the rectangle."""
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def contains_point(self, p: Sequence[float]) -> bool:
        """Whether spatial point ``p`` lies inside (or on the border of) the box."""
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def contains_segment(self, segment: Segment) -> bool:
        """``e ∈ b``: both endpoints inside (straight segments stay inside)."""
        return self.contains_point(segment.s1.xy) and self.contains_point(segment.s2.xy)

    def dist_point(self, p: Sequence[float]) -> float:
        """``dist(s, b) = min_{p' in b} dist(s, p')`` (Sec. IV-A)."""
        return point_rect_distance(p, self.xmin, self.ymin, self.xmax, self.ymax)

    def project_point(self, p: Sequence[float]) -> Point:
        """``p^{ins(b, s)}``: the point of the box closest to ``p``."""
        return project_point_on_rect(p, self.xmin, self.ymin, self.xmax, self.ymax)

    def project_on_segment(
        self, a: Sequence[float], b: Sequence[float]
    ) -> Tuple[Point, float]:
        """Reverse projection ``p^{ins(e, b)}``: the point of segment
        ``[a, b]`` closest to the box, as ``(point, fraction)``."""
        return project_rect_on_segment(
            a, b, self.xmin, self.ymin, self.xmax, self.ymax
        )

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #

    def expanded_by_piece(self, start: Point, end: Point) -> "STBox":
        """Box grown to enclose a matched trajectory piece.

        ``minL`` drops to the piece length if it is shorter than anything
        previously enclosed, preserving the Definition-4 invariant.
        """
        return STBox(
            xmin=min(self.xmin, start[0], end[0]),
            ymin=min(self.ymin, start[1], end[1]),
            xmax=max(self.xmax, start[0], end[0]),
            ymax=max(self.ymax, start[1], end[1]),
            min_len=min(self.min_len, point_distance(start, end)),
        )

    def union(self, other: "STBox") -> "STBox":
        """Smallest box enclosing both boxes; ``minL`` is the smaller one."""
        return STBox(
            xmin=min(self.xmin, other.xmin),
            ymin=min(self.ymin, other.ymin),
            xmax=max(self.xmax, other.xmax),
            ymax=max(self.ymax, other.ymax),
            min_len=min(self.min_len, other.min_len),
        )

    def union_area_increase(self, start: Point, end: Point) -> float:
        """Area growth if the piece ``[start, end]`` were absorbed."""
        xmin = min(self.xmin, start[0], end[0])
        ymin = min(self.ymin, start[1], end[1])
        xmax = max(self.xmax, start[0], end[0])
        ymax = max(self.ymax, start[1], end[1])
        return (xmax - xmin) * (ymax - ymin) - self.area

    def __repr__(self) -> str:
        return (
            f"STBox(({self.xmin:g},{self.ymin:g})..({self.xmax:g},{self.ymax:g}),"
            f" minL={self.min_len:g})"
        )
