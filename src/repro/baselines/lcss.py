"""Longest Common SubSequence similarity (Vlachos et al., ICDE 2002; ref [3]).

Two sampled points *match* when each spatial coordinate differs by
**strictly less than** ``eps`` (the ICDE paper's per-dimension threshold;
contrast EDR's inclusive ``<= eps``) and, optionally, their sample indices
differ by at most ``delta``.  The LCSS length counts the best monotone
chain of matches; the associated distance normalizes it away from 1.
LCSS tolerates noise and local time shifts but is threshold-dependent —
the sensitivity the paper's Sec. II-4 demonstrates.

Complexity ``O(|T1| * |T2|)``.  Dual-backend: the cell DP below is the
``"python"`` reference and test oracle; the ``"numpy"`` backend runs the
anti-diagonal lockstep kernel (:mod:`repro.baselines.fast`), exact for
match counts.  The temporal band ``delta > 0`` is python-only — the
vectorized kernel covers the unconstrained form every harness uses, and
banded calls fall back to the reference (see DESIGN.md, "Baseline
kernels").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.backend import tier_kernel
from ..core.trajectory import Trajectory

__all__ = ["lcss_length", "lcss", "lcss_distance", "lcss_distance_many"]


def lcss_length(t1: Trajectory, t2: Trajectory, eps: float,
                delta: int = 0, backend: Optional[str] = None) -> int:
    """Length of the longest common subsequence under tolerance ``eps``.

    ``delta = 0`` (default) disables the temporal-index constraint (and is
    the only form the ``"numpy"`` backend vectorizes; ``delta > 0`` always
    runs the reference DP).  ``backend`` overrides the global
    :func:`repro.core.set_backend` choice.
    """
    n, m = len(t1), len(t2)
    if n == 0 or m == 0:
        return 0
    kernel = tier_kernel("lcss_length", backend) if delta == 0 else None
    if kernel is not None:
        return kernel(t1, t2, eps)
    d1 = t1.data
    d2 = t2.data
    prev: List[int] = [0] * (m + 1)
    for i in range(1, n + 1):
        cur = [0] * (m + 1)
        x1 = d1[i - 1, 0]
        y1 = d1[i - 1, 1]
        lo, hi = 1, m
        if delta > 0:
            lo = max(1, i - delta)
            hi = min(m, i + delta)
        for j in range(lo, hi + 1):
            if abs(x1 - d2[j - 1, 0]) < eps and abs(y1 - d2[j - 1, 1]) < eps:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        if delta > 0:
            # outside the band, carry the running best forward
            for j in range(1, lo):
                cur[j] = max(cur[j], cur[j - 1], prev[j])
            for j in range(hi + 1, m + 1):
                cur[j] = max(cur[j], cur[j - 1], prev[j])
        prev = cur
    return prev[m]


def lcss(t1: Trajectory, t2: Trajectory, eps: float, delta: int = 0,
         backend: Optional[str] = None) -> float:
    """LCSS *similarity* in [0, 1]: ``LCSS / min(|T1|, |T2|)``."""
    n, m = len(t1), len(t2)
    if n == 0 or m == 0:
        return 0.0
    return lcss_length(t1, t2, eps, delta, backend=backend) / min(n, m)


def lcss_distance(t1: Trajectory, t2: Trajectory, eps: float,
                  delta: int = 0, backend: Optional[str] = None) -> float:
    """LCSS distance ``1 - similarity`` (used for ranking/k-NN)."""
    n, m = len(t1), len(t2)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return 1.0
    return 1.0 - lcss(t1, t2, eps, delta, backend=backend)


def lcss_distance_many(query: Trajectory, trajectories: Sequence[Trajectory],
                       eps: float,
                       backend: Optional[str] = None) -> List[float]:
    """LCSS distance of one query against many trajectories (``delta = 0``),
    batched on the ``"numpy"`` backend through the lockstep kernel."""
    kernel = tier_kernel("lcss_length_many", backend)
    trajectories = list(trajectories)
    n = len(query)
    if kernel is not None and n > 0 and trajectories:
        lengths = kernel(query, trajectories, eps)
        out = []
        for length, t in zip(lengths, trajectories):
            m = len(t)
            out.append(1.0 if m == 0 else 1.0 - length / min(n, m))
        return out
    return [lcss_distance(query, t, eps, backend=backend)
            for t in trajectories]
