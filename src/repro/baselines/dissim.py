"""DISSIM (Frentzos, Gratsias & Theodoridis, ICDE 2007; paper ref [7]).

DISSIM integrates the Euclidean distance between the two *time-synchronized*
interpolated positions over the common time interval:

    DISSIM(T1, T2) = ∫ dist(T1(t), T2(t)) dt

It therefore compares non-sampled regions (unlike point-based measures) but
cannot absorb local time shifts: trajectories must move at similar speeds to
appear similar — exactly the weakness Table I records.

The integral is evaluated with the trapezoidal rule over the union of both
timestamp sets (the distance is piecewise smooth between those breakpoints),
optionally refined with extra midpoints.

Complexity ``O((|T1| + |T2|) * refine)``.  Dual-backend: the per-breakpoint
:meth:`~repro.core.trajectory.Trajectory.point_at_time` loop below is the
``"python"`` reference and test oracle; the ``"numpy"`` backend evaluates
every breakpoint position in one vectorized interpolation pass
(:mod:`repro.baselines.fast`) — a closed form, no DP (see DESIGN.md,
"Baseline kernels").
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..core.backend import tier_kernel
from ..core.geometry import point_distance
from ..core.trajectory import Trajectory

__all__ = ["dissim"]


def dissim(t1: Trajectory, t2: Trajectory, refine: int = 1,
           backend: Optional[str] = None) -> float:
    """DISSIM distance over the common time span of the trajectories.

    ``refine`` adds that many evenly spaced evaluation points inside every
    breakpoint interval (1 by default: the interval midpoint), improving the
    trapezoid accuracy where the distance curve bends.  ``backend``
    overrides the global :func:`repro.core.set_backend` choice.

    Returns ``inf`` if either trajectory is empty; 0 if the common time span
    is a single instant and the positions coincide.
    """
    if len(t1) == 0 or len(t2) == 0:
        return math.inf

    start = max(float(t1.data[0, 2]), float(t2.data[0, 2]))
    end = min(float(t1.data[-1, 2]), float(t2.data[-1, 2]))
    if end < start:
        # Disjoint observation windows: compare at clamped endpoints over
        # the gap-free span (degenerate but well-defined).
        p1 = t1.point_at_time(start)
        p2 = t2.point_at_time(start)
        return point_distance(p1.xy, p2.xy)

    kernel = tier_kernel("dissim", backend)
    if kernel is not None:
        return kernel(t1, t2, refine)

    breaks = np.union1d(t1.times(), t2.times())
    breaks = breaks[(breaks >= start) & (breaks <= end)]
    if breaks.size == 0 or breaks[0] > start:
        breaks = np.insert(breaks, 0, start)
    if breaks[-1] < end:
        breaks = np.append(breaks, end)

    if refine > 0 and breaks.size >= 2:
        extra: List[float] = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            for r in range(1, refine + 1):
                extra.append(a + (b - a) * r / (refine + 1))
        breaks = np.union1d(breaks, np.asarray(extra))

    if breaks.size == 1:
        p1 = t1.point_at_time(float(breaks[0]))
        p2 = t2.point_at_time(float(breaks[0]))
        return point_distance(p1.xy, p2.xy)

    dists = np.empty(breaks.size)
    for i, t in enumerate(breaks):
        p1 = t1.point_at_time(float(t))
        p2 = t2.point_at_time(float(t))
        dists[i] = point_distance(p1.xy, p2.xy)
    return float(np.trapezoid(dists, breaks))
