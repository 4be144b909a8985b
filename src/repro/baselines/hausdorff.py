"""Hausdorff distance between trajectories as planar polylines.

A purely spatial, order-free measure: the largest distance from any point
of one polyline to the other polyline.  Included as the classical shape
comparator — it ignores travel direction and time entirely, which makes it
a useful control in experiments about what EDwP's *sequencing* buys (e.g.
the Fig. 1(d) out-of-order scenario, which Hausdorff cannot distinguish at
all).

Complexity ``O(|T1| * |T2|)`` (every point against every segment).
Dual-backend: the segment loop below is the ``"python"`` reference and
test oracle; the ``"numpy"`` backend computes the whole point-to-segment
distance matrix in one broadcast pass (:mod:`repro.baselines.fast`) — a
closed form, no DP needed (see DESIGN.md, "Baseline kernels").
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..core.backend import tier_kernel
from ..core.geometry import point_segment_distance
from ..core.trajectory import Trajectory

__all__ = ["hausdorff", "directed_hausdorff"]


def _point_to_polyline(p: Tuple[float, float], pts: np.ndarray) -> float:
    if pts.shape[0] == 1:
        return math.hypot(p[0] - pts[0, 0], p[1] - pts[0, 1])
    best = math.inf
    for i in range(pts.shape[0] - 1):
        d = point_segment_distance(pts[i], pts[i + 1], p)
        if d < best:
            best = d
    return best


def directed_hausdorff(t1: Trajectory, t2: Trajectory,
                       backend: Optional[str] = None) -> float:
    """``max over sampled points of T1 of dist(point, polyline(T2))``.

    Sampled points of T1 against the *continuous* polyline of T2 — exact
    for the polyline-to-polyline directed Hausdorff, because on each
    segment of T1 the distance-to-polyline function attains its maximum at
    a vertex or at a crossing of Voronoi boundaries; using the sampled
    vertices is the standard tight surrogate.  ``backend`` overrides the
    global :func:`repro.core.set_backend` choice.
    """
    if len(t1) == 0 or len(t2) == 0:
        return math.inf if len(t1) != len(t2) else 0.0
    kernel = tier_kernel("directed_hausdorff", backend)
    if kernel is not None:
        return kernel(t1, t2)
    pts2 = t2.spatial()
    best = 0.0
    for row in t1.data:
        d = _point_to_polyline((row[0], row[1]), pts2)
        if d > best:
            best = d
    return best


def hausdorff(t1: Trajectory, t2: Trajectory,
              backend: Optional[str] = None) -> float:
    """Symmetric Hausdorff distance ``max(h(T1, T2), h(T2, T1))``."""
    if len(t1) == 0 and len(t2) == 0:
        return 0.0
    if len(t1) == 0 or len(t2) == 0:
        return math.inf
    return max(directed_hausdorff(t1, t2, backend=backend),
               directed_hausdorff(t2, t1, backend=backend))
