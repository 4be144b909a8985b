"""Planar geometry substrate used throughout the reproduction.

Every distance in the paper reduces to a handful of planar primitives:
Euclidean point distance, the projection of a point onto a segment
(Sec. III-A, the ``ins`` edit), the distance between a point and an
axis-aligned rectangle, and the projection of a rectangle onto a segment
(Sec. IV-A, generalized projections).  Keeping them in one module makes the
dynamic programs in :mod:`repro.core.edwp` and :mod:`repro.index.tboxseq`
easy to audit against the paper's equations.

All functions accept plain ``(x, y)`` tuples (or any 2-sequences of floats)
and return plain floats/tuples so they can be used from tight DP loops
without numpy boxing overhead.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

Point = Tuple[float, float]

__all__ = [
    "Point",
    "point_distance",
    "squared_point_distance",
    "interpolate",
    "project_point_on_segment",
    "point_segment_distance",
    "clamp",
    "point_rect_distance",
    "project_point_on_rect",
    "project_rect_on_segment",
    "polyline_rect_distance",
    "polyline_rects_distance",
    "polyline_rects_distance_bounds",
    "BOUND_SHRINK",
    "margined_distances",
    "segments_rects_distance",
    "segment_rect_distance",
    "segment_length",
    "polyline_length",
]


def point_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two planar points."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.hypot(dx, dy)


def squared_point_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Squared Euclidean distance (cheaper when only comparisons matter)."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def interpolate(p: Sequence[float], q: Sequence[float], fraction: float) -> Point:
    """Point at ``fraction`` of the way from ``p`` to ``q`` (0 -> p, 1 -> q)."""
    return (p[0] + (q[0] - p[0]) * fraction, p[1] + (q[1] - p[1]) * fraction)


def project_point_on_segment(
    a: Sequence[float], b: Sequence[float], s: Sequence[float]
) -> Tuple[Point, float]:
    """Project point ``s`` onto segment ``[a, b]``.

    Returns ``(closest_point, fraction)`` where ``fraction`` in ``[0, 1]`` is
    the position of the closest point along the segment.  This realizes the
    paper's projection operator ``p^{ins(e, s)} = argmin_{p in e} dist(p, s)``.
    Degenerate (zero-length) segments project everything onto ``a``.
    """
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    dx = bx - ax
    dy = by - ay
    norm_sq = dx * dx + dy * dy
    if norm_sq <= 0.0:
        return (ax, ay), 0.0
    t = ((s[0] - ax) * dx + (s[1] - ay) * dy) / norm_sq
    if t <= 0.0:
        return (ax, ay), 0.0
    if t >= 1.0:
        return (bx, by), 1.0
    return (ax + t * dx, ay + t * dy), t


def point_segment_distance(
    a: Sequence[float], b: Sequence[float], s: Sequence[float]
) -> float:
    """Distance from point ``s`` to segment ``[a, b]``."""
    closest, _ = project_point_on_segment(a, b, s)
    return point_distance(closest, s)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval ``[low, high]``."""
    if value < low:
        return low
    if value > high:
        return high
    return value


def point_rect_distance(
    p: Sequence[float], xmin: float, ymin: float, xmax: float, ymax: float
) -> float:
    """Distance from a point to an axis-aligned rectangle (0 if inside).

    This is ``dist(s, b)`` from Sec. IV-A: the minimum distance between an
    st-point and any point bounded by the st-box.
    """
    dx = 0.0
    if p[0] < xmin:
        dx = xmin - p[0]
    elif p[0] > xmax:
        dx = p[0] - xmax
    dy = 0.0
    if p[1] < ymin:
        dy = ymin - p[1]
    elif p[1] > ymax:
        dy = p[1] - ymax
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    return math.hypot(dx, dy)


def project_point_on_rect(
    p: Sequence[float], xmin: float, ymin: float, xmax: float, ymax: float
) -> Point:
    """Closest point of the rectangle to ``p`` (the projection onto the box)."""
    return (clamp(p[0], xmin, xmax), clamp(p[1], ymin, ymax))


def project_rect_on_segment(
    a: Sequence[float],
    b: Sequence[float],
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
) -> Tuple[Point, float]:
    """Point of segment ``[a, b]`` closest to the rectangle — exactly.

    Realizes the paper's reverse projection ``p^{ins(e, b)}``: the point on a
    trajectory segment that is spatially closest to an st-box.  The distance
    profile ``t -> dist(lerp(a, b, t), rect)`` is convex and piecewise smooth
    with breakpoints only where the segment crosses the four supporting lines
    of the rectangle; within a smooth region the closest rectangle feature is
    either an edge (profile affine in ``t``, minimized at a region boundary)
    or a corner (profile is distance to a fixed point, minimized at the
    corner's projection).  The exact minimum is therefore attained at one of
    at most ten candidates: the endpoints, the four line crossings, and the
    four corner projections.

    Returns ``(closest_point, fraction)``.
    """
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    dx = bx - ax
    dy = by - ay

    candidates = [0.0, 1.0]
    if dx != 0.0:
        candidates.append((xmin - ax) / dx)
        candidates.append((xmax - ax) / dx)
    if dy != 0.0:
        candidates.append((ymin - ay) / dy)
        candidates.append((ymax - ay) / dy)
    norm_sq = dx * dx + dy * dy
    if norm_sq > 0.0:
        for cx, cy in ((xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax)):
            candidates.append(((cx - ax) * dx + (cy - ay) * dy) / norm_sq)

    best_t = 0.0
    best_d = math.inf
    for t in candidates:
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        d = point_rect_distance(
            (ax + dx * t, ay + dy * t), xmin, ymin, xmax, ymax
        )
        if d < best_d:
            best_d = d
            best_t = t
            if d == 0.0:
                break
    return (ax + dx * best_t, ay + dy * best_t), best_t


def segment_rect_distance(
    a: Sequence[float],
    b: Sequence[float],
    xmin: float,
    ymin: float,
    xmax: float,
    ymax: float,
) -> float:
    """Minimum distance between segment ``[a, b]`` and a rectangle."""
    closest, _ = project_rect_on_segment(a, b, xmin, ymin, xmax, ymax)
    return point_rect_distance(closest, xmin, ymin, xmax, ymax)


def polyline_rect_distance(
    points, xmin: float, ymin: float, xmax: float, ymax: float
) -> float:
    """Exact minimum distance from a polyline to a rectangle, vectorized.

    ``points`` is an ``(n, 2)`` array of polyline vertices.  The
    batch-of-one form of :func:`polyline_rects_distance`, which TrajTree's
    frontier batching calls with all children's rectangles at once.
    """
    return float(
        polyline_rects_distance(points, [[xmin, ymin, xmax, ymax]])[0]
    )


def polyline_rects_distance(points, rects) -> "object":
    """Exact minimum polyline-to-rectangle distance for *many* rectangles.

    ``points`` is an ``(n, 2)`` array of polyline vertices and ``rects`` an
    ``(r, 4)`` array of ``(xmin, ymin, xmax, ymax)`` rows.  Returns an
    ``(r,)`` float64 array: per rectangle, the minimum over the polyline's
    segments of :func:`segments_rects_distance` (a single vertex is its
    own point-to-rectangle distance).  This is TrajTree's quick-bound
    pre-filter and Rule 2's exact pass; the box bound reads the same
    per-segment matrix before taking the minimum.
    """
    import numpy as np

    pts = np.asarray(points, dtype=np.float64)
    R = np.asarray(rects, dtype=np.float64)
    if R.ndim != 2 or R.shape[1] != 4:
        raise ValueError(f"rects must be an (r, 4) array, got shape {R.shape}")
    if pts.shape[0] == 0:
        raise ValueError("empty polyline has no distance")
    if pts.shape[0] == 1:
        px = pts[0, 0]
        py = pts[0, 1]
        dx = np.maximum(np.maximum(R[:, 0] - px, px - R[:, 2]), 0.0)
        dy = np.maximum(np.maximum(R[:, 1] - py, py - R[:, 3]), 0.0)
        return np.hypot(dx, dy)
    return segments_rects_distance(pts, R).min(axis=1)


def segments_rects_distance(points, rects) -> "object":
    """Per-segment distances: an ``(r, n)`` matrix whose entry ``[i, s]``
    is the distance from segment ``s`` of the polyline ``points`` (``n +
    1 >= 2`` vertices) to rectangle ``i`` of the ``(r, 4)`` array
    ``rects``.

    Per segment the minimum is attained at one of the ten candidates of
    :func:`project_rect_on_segment` — an endpoint, a crossing of one of
    the rectangle's four supporting lines, or a corner projection — and
    all candidates for every (rectangle, segment) pair are evaluated in
    one numpy pass.
    """
    import numpy as np

    pts = np.asarray(points, dtype=np.float64)
    R = np.asarray(rects, dtype=np.float64)
    xmin = R[:, 0][:, None, None]
    ymin = R[:, 1][:, None, None]
    xmax = R[:, 2][:, None, None]
    ymax = R[:, 3][:, None, None]

    a = pts[:-1]                          # (n, 2)
    d = pts[1:] - a                       # (n, 2)
    norm_sq = (d * d).sum(axis=1)         # (n,)
    safe = np.where(norm_sq > 0.0, norm_sq, 1.0)
    ax = a[:, 0][None, :, None]
    ay = a[:, 1][None, :, None]
    dx = d[:, 0][None, :, None]
    dy = d[:, 1][None, :, None]

    n = a.shape[0]
    r = R.shape[0]
    zeros = np.zeros((1, n, 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_x = np.where(dx != 0.0, dx, np.inf)
        inv_y = np.where(dy != 0.0, dy, np.inf)
        cand = [
            zeros,
            np.ones((1, n, 1)),
            (xmin - ax) / inv_x,
            (xmax - ax) / inv_x,
            (ymin - ay) / inv_y,
            (ymax - ay) / inv_y,
        ]
        for cx, cy in ((xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax)):
            cand.append(
                ((cx - ax) * dx + (cy - ay) * dy) / safe[None, :, None]
            )
    ts = np.concatenate(
        [np.broadcast_to(c, (r, n, 1)) for c in cand], axis=2
    )                                      # (r, n, 10)
    np.clip(ts, 0.0, 1.0, out=ts)
    px = ax + ts * dx
    py = ay + ts * dy
    ddx = np.maximum(np.maximum(xmin - px, px - xmax), 0.0)
    ddy = np.maximum(np.maximum(ymin - py, py - ymax), 0.0)
    return np.sqrt(ddx * ddx + ddy * ddy).min(axis=2)


#: Relative rounding margin of every lower bound the index builds from
#: computed distances: covers the summation error of the bound and of the
#: distance it is compared with while query and member together have fewer
#: than ~4 million points (DESIGN.md, "Index bound kernels").
BOUND_SHRINK = 1.0 - 2.0 ** -30


def margined_distances(d, scale):
    """What computed point-to-rectangle distances ``d`` may contribute to
    a lower bound: each less the rounding band ``32 ε · scale + 1e-300``
    and floored at 0 (a NaN too), or 0 where ``scale`` — the largest
    coordinate magnitude involved, broadcast against ``d`` — passes 1e150,
    where the ten-candidate pass's squares can overflow (DESIGN.md, "Index
    bound kernels").  Monotone in ``d``: applied alike to two bounds on a
    computed distance and to the distance, it keeps their order.
    """
    import numpy as np

    band = 32 * np.finfo(np.float64).eps * scale + 1e-300
    with np.errstate(invalid="ignore"):
        return np.where(scale <= 1e150, np.fmax(d - band, 0.0), 0.0)


def polyline_rects_distance_bounds(points, rects):
    """``(lower, upper)`` around :func:`polyline_rects_distance`'s *computed*
    value per rectangle, for a polyline of >= 2 vertices (DESIGN.md,
    "Batched leaf refinement").  ``upper`` is the nearest vertex, in the
    ten-candidate pass's own expressions at ``t = 0, 1``; ``lower`` is the
    gap between bounding rectangles, each axis passed through
    :func:`margined_distances` for rounded candidates (so 0 past 1e150,
    where the candidates can overflow to NaN).
    """
    import numpy as np

    pts = np.asarray(points, dtype=np.float64)
    R = np.asarray(rects, dtype=np.float64)
    a = pts[:-1]
    d = pts[1:] - a
    ends = np.concatenate([a + 0.0 * d, a + 1.0 * d])      # (c, 2) vertices
    with np.errstate(over="ignore", invalid="ignore"):
        dd = np.maximum(np.maximum(R[:, None, :2] - ends,
                                   ends - R[:, None, 2:]), 0.0)
        sq = dd * dd
        upper = np.sqrt(sq[..., 0] + sq[..., 1]).min(axis=1)
    scale = np.maximum(np.abs(R).max(axis=1), np.abs(pts).max())
    g = margined_distances(np.maximum(R[:, :2] - pts.max(axis=0),
                                      pts.min(axis=0) - R[:, 2:]),
                           scale[:, None])
    lower = np.sqrt(g[:, 0] * g[:, 0] + g[:, 1] * g[:, 1])
    return lower, upper


def segment_length(a: Sequence[float], b: Sequence[float]) -> float:
    """Length of segment ``[a, b]`` (paper Eq. 1 building block)."""
    return point_distance(a, b)


def polyline_length(points: Sequence[Sequence[float]]) -> float:
    """Total length of a polyline given its vertex list."""
    total = 0.0
    for i in range(1, len(points)):
        total += point_distance(points[i - 1], points[i])
    return total
