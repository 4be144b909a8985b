"""Edit distance with Real Penalty (Chen & Ng, VLDB 2004; paper ref [4]).

ERP marries Lp-norms with edit distance: a matched pair costs their real
Euclidean distance, and a gap costs the distance to a fixed *gap point*
``g``.  Unlike DTW it is a metric (triangle inequality holds), but like all
point-based measures it assumes consistent sampling.

Complexity ``O(|T1| * |T2|)``.  Dual-backend: the cell DP below is the
``"python"`` reference and test oracle; the ``"numpy"`` backend runs the
anti-diagonal lockstep kernel (:mod:`repro.baselines.fast`) with the gap
prefix sums accumulated in the reference's order.  :func:`erp_many`
batches one query against many targets (see DESIGN.md, "Baseline
kernels").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.backend import tier_kernel
from ..core.geometry import point_distance
from ..core.trajectory import Trajectory

__all__ = ["erp", "erp_many"]


def erp(
    t1: Trajectory,
    t2: Trajectory,
    gap: Optional[Sequence[float]] = None,
    backend: Optional[str] = None,
) -> float:
    """ERP distance over sampled points.

    ``gap`` is the reference gap point ``g``; the original paper uses the
    origin, which is the default.  Empty-vs-empty is 0; a single empty side
    costs the sum of gap distances of the other side (the ERP base case).
    ``backend`` overrides the global :func:`repro.core.set_backend` choice.
    """
    n, m = len(t1), len(t2)
    g: Tuple[float, float] = (0.0, 0.0) if gap is None else (gap[0], gap[1])
    if n == 0 and m == 0:
        return 0.0
    if n > 0 and m > 0:
        kernel = tier_kernel("erp", backend)
        if kernel is not None:
            return kernel(t1, t2, g)

    p1 = [(row[0], row[1]) for row in t1.data]
    p2 = [(row[0], row[1]) for row in t2.data]
    gap1 = [point_distance(p, g) for p in p1]
    gap2 = [point_distance(p, g) for p in p2]

    if n == 0:
        return float(sum(gap2))
    if m == 0:
        return float(sum(gap1))

    prev: List[float] = [0.0] * (m + 1)
    for j in range(1, m + 1):
        prev[j] = prev[j - 1] + gap2[j - 1]
    for i in range(1, n + 1):
        cur = [0.0] * (m + 1)
        cur[0] = prev[0] + gap1[i - 1]
        a = p1[i - 1]
        ga = gap1[i - 1]
        for j in range(1, m + 1):
            match = prev[j - 1] + point_distance(a, p2[j - 1])
            gap_t1 = prev[j] + ga
            gap_t2 = cur[j - 1] + gap2[j - 1]
            best = match
            if gap_t1 < best:
                best = gap_t1
            if gap_t2 < best:
                best = gap_t2
            cur[j] = best
        prev = cur
    return prev[m]


def erp_many(query: Trajectory, trajectories: Sequence[Trajectory],
             gap: Optional[Sequence[float]] = None,
             backend: Optional[str] = None) -> List[float]:
    """ERP of one query against many trajectories, batched on the
    ``"numpy"`` backend through the lockstep kernel."""
    kernel = tier_kernel("erp_many", backend)
    trajectories = list(trajectories)
    g: Tuple[float, float] = (0.0, 0.0) if gap is None else (gap[0], gap[1])
    if kernel is not None and len(query) > 0 and trajectories:
        return kernel(query, trajectories, g)
    return [erp(query, t, gap=gap, backend=backend) for t in trajectories]
