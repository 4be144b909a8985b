"""Discrete Fréchet distance (Eiter & Mannila, TR 1994 formulation).

Not one of the paper's Table-I comparators, but the standard "dog-leash"
trajectory measure that much follow-on work (and any practitioner
evaluating EDwP) reaches for.  The discrete variant couples the two sampled
point sequences with monotone traversals and reports the smallest possible
*maximum* pair distance — a bottleneck measure, so a single outlier sample
dominates it (in contrast to EDwP's cumulative, coverage-weighted cost).

Complexity ``O(|T1| * |T2|)``.  Dual-backend: the cell DP below is the
``"python"`` reference and test oracle; the ``"numpy"`` backend runs the
anti-diagonal lockstep kernel (:mod:`repro.baselines.fast`) — the max/min
recurrence vectorizes on anti-diagonals exactly like the edit DPs.
:func:`frechet_many` batches one query against many targets (see
DESIGN.md, "Baseline kernels").
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..core.backend import tier_kernel
from ..core.geometry import point_distance
from ..core.trajectory import Trajectory

__all__ = ["discrete_frechet", "frechet_many"]


def discrete_frechet(t1: Trajectory, t2: Trajectory,
                     backend: Optional[str] = None) -> float:
    """Discrete Fréchet distance over sampled st-points.

    0 when both are empty, ``inf`` when exactly one is.  Classic quadratic
    DP: ``c(i, j) = max(d(p_i, q_j), min(c(i-1, j), c(i, j-1),
    c(i-1, j-1)))``.  ``backend`` overrides the global
    :func:`repro.core.set_backend` choice.
    """
    n, m = len(t1), len(t2)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return math.inf
    kernel = tier_kernel("frechet", backend)
    if kernel is not None:
        return kernel(t1, t2)

    p1 = [(row[0], row[1]) for row in t1.data]
    p2 = [(row[0], row[1]) for row in t2.data]
    inf = math.inf
    prev: List[float] = [inf] * m
    for i in range(n):
        cur = [inf] * m
        a = p1[i]
        for j in range(m):
            d = point_distance(a, p2[j])
            if i == 0 and j == 0:
                best = d
            elif i == 0:
                best = max(cur[j - 1], d)
            elif j == 0:
                best = max(prev[j], d)
            else:
                reach = prev[j - 1]
                if prev[j] < reach:
                    reach = prev[j]
                if cur[j - 1] < reach:
                    reach = cur[j - 1]
                best = max(reach, d)
            cur[j] = best
        prev = cur
    return prev[m - 1]


def frechet_many(query: Trajectory, trajectories: Sequence[Trajectory],
                 backend: Optional[str] = None) -> List[float]:
    """Discrete Fréchet of one query against many trajectories, batched on
    the ``"numpy"`` backend through the lockstep kernel."""
    kernel = tier_kernel("frechet_many", backend)
    trajectories = list(trajectories)
    if kernel is not None and len(query) > 0 and trajectories:
        return kernel(query, trajectories)
    return [discrete_frechet(query, t, backend=backend)
            for t in trajectories]
