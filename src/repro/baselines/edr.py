"""Edit Distance on Real sequence (Chen, Özsu & Oria, SIGMOD 2005; ref [5]).

EDR counts the minimum number of point insertions, deletions and
substitutions needed to make the two point sequences *match*, where two
points match when each spatial coordinate differs by at most ``eps``
(**inclusive** — ``<= eps``, the SIGMOD paper's convention; contrast LCSS's
strict ``< eps``).  It is the paper's primary accuracy comparator (Figs. 1
and 5) and — applied after uniform re-interpolation — the "EDR-I" variant.

Complexity ``O(|T1| * |T2|)``.  Dual-backend: the integer cell DP below is
the ``"python"`` reference and test oracle; the ``"numpy"`` backend runs
the anti-diagonal lockstep kernel (:mod:`repro.baselines.fast`), exact for
edit counts.  :func:`edr_many` batches one query against many targets (see
DESIGN.md, "Baseline kernels").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.backend import tier_kernel
from ..core.trajectory import Trajectory

__all__ = ["edr", "edr_normalized", "edr_many", "edr_normalized_many",
           "points_match"]


def points_match(x1: float, y1: float, x2: float, y2: float, eps: float) -> bool:
    """EDR match predicate: both coordinate deltas within ``eps``."""
    return abs(x1 - x2) <= eps and abs(y1 - y2) <= eps


def edr(t1: Trajectory, t2: Trajectory, eps: float,
        backend: Optional[str] = None) -> int:
    """EDR distance (integer edit count) under tolerance ``eps``.

    Reproduces the paper's Fig. 1 workings: e.g. the Fig. 1(c) phase-shift
    scenario yields the maximum distance at ``eps = 2`` but 0 at ``eps = 3``.
    ``backend`` overrides the global :func:`repro.core.set_backend` choice.
    """
    n, m = len(t1), len(t2)
    if n == 0:
        return m
    if m == 0:
        return n
    kernel = tier_kernel("edr", backend)
    if kernel is not None:
        return kernel(t1, t2, eps)
    d1 = t1.data
    d2 = t2.data
    prev: List[int] = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        x1 = d1[i - 1, 0]
        y1 = d1[i - 1, 1]
        for j in range(1, m + 1):
            sub = 0 if points_match(x1, y1, d2[j - 1, 0], d2[j - 1, 1], eps) else 1
            best = prev[j - 1] + sub
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            cur[j] = best
        prev = cur
    return prev[m]


def edr_normalized(t1: Trajectory, t2: Trajectory, eps: float,
                   backend: Optional[str] = None) -> float:
    """EDR normalized by the longer length — in [0, 1], rank-equivalent for
    same-length comparisons, better behaved across lengths."""
    n, m = len(t1), len(t2)
    if n == 0 and m == 0:
        return 0.0
    return edr(t1, t2, eps, backend=backend) / max(n, m)


def edr_many(query: Trajectory, trajectories: Sequence[Trajectory],
             eps: float, backend: Optional[str] = None) -> List[int]:
    """EDR edit counts of one query against many trajectories, batched on
    the ``"numpy"`` backend through the lockstep kernel."""
    kernel = tier_kernel("edr_many", backend)
    trajectories = list(trajectories)
    if kernel is not None and len(query) > 0 and trajectories:
        return kernel(query, trajectories, eps)
    return [edr(query, t, eps, backend=backend) for t in trajectories]


def edr_normalized_many(query: Trajectory, trajectories: Sequence[Trajectory],
                        eps: float,
                        backend: Optional[str] = None) -> List[float]:
    """Length-normalized :func:`edr_many` (the registry's batched form)."""
    trajectories = list(trajectories)
    counts = edr_many(query, trajectories, eps, backend=backend)
    n = len(query)
    return [
        0.0 if n == 0 and len(t) == 0 else c / max(n, len(t))
        for c, t in zip(counts, trajectories)
    ]
