"""Dynamic Time Warping (Yi, Jagadish & Faloutsos, ICDE 1998; paper ref [6]).

DTW aligns the sampled points of two trajectories with a many-to-one,
monotone mapping and sums the Euclidean distances of matched pairs.  It
handles local time shifts (Table I) but is threshold-free only in the sense
of having no matching tolerance: every point must be matched, so it is
sensitive to sampling-rate variation — the weakness the paper's EDwP fixes.

Complexity ``O(|T1| * |T2|)`` (``O(window * max(|T1|, |T2|))`` banded).
Dual-backend: the cell loop below is the ``"python"`` reference and test
oracle; the ``"numpy"`` backend runs the anti-diagonal lockstep kernel
(:mod:`repro.baselines.fast`), identical to float tolerance.  Use
:func:`dtw_many` for one-query-vs-many batches — that is where the
vectorized backend pays off (see DESIGN.md, "Baseline kernels").
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..core.backend import tier_kernel
from ..core.geometry import point_distance
from ..core.trajectory import Trajectory

__all__ = ["dtw", "dtw_many"]


def dtw(t1: Trajectory, t2: Trajectory, window: int = 0,
        backend: Optional[str] = None) -> float:
    """DTW distance over the sampled st-points.

    Parameters
    ----------
    window:
        Sakoe-Chiba band half-width; 0 (default) means unconstrained.
    backend:
        ``"python"`` / ``"numpy"`` override of the global
        :func:`repro.core.set_backend` choice.

    Returns ``inf`` when exactly one trajectory is empty and 0 when both are.
    """
    n, m = len(t1), len(t2)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return math.inf
    kernel = tier_kernel("dtw", backend)
    if kernel is not None:
        return kernel(t1, t2, window)

    p1 = [(row[0], row[1]) for row in t1.data]
    p2 = [(row[0], row[1]) for row in t2.data]
    inf = math.inf
    prev: List[float] = [inf] * (m + 1)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = [inf] * (m + 1)
        lo, hi = 1, m
        if window > 0:
            lo = max(1, i - window)
            hi = min(m, i + window)
        a = p1[i - 1]
        for j in range(lo, hi + 1):
            d = point_distance(a, p2[j - 1])
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = d + best
        prev = cur
    return prev[m]


def dtw_many(query: Trajectory, trajectories: Sequence[Trajectory],
             window: int = 0, backend: Optional[str] = None) -> List[float]:
    """DTW of one query against many trajectories.

    On the ``"numpy"`` backend the whole batch runs through the lockstep
    anti-diagonal kernel (targets chunked length-sorted, answers read at
    each pair's own corner cell); on ``"python"`` it is a plain loop.
    Feeds the batched matrix engine (:mod:`repro.baselines.matrix`).
    """
    kernel = tier_kernel("dtw_many", backend)
    trajectories = list(trajectories)
    if kernel is not None and len(query) > 0 and trajectories:
        return kernel(query, trajectories, window)
    return [dtw(query, t, window=window, backend=backend)
            for t in trajectories]
