"""Model-driven Assignment (Sankararaman et al., SIGSPATIAL 2013; ref [8]).

MA aligns the *sampled points* of one trajectory to points of the other that
may be **non-sampled**: while aligning a point ``p1`` of T1 toward a sampled
point ``p2`` of T2, MA also considers interpolated points on the line
connecting ``p2`` to the previously aligned position on T2 (the paper's
Sec. II description and Fig. 1(d)).  Unmatched points become *gap points*
with a fixed penalty.  The model carries four parameters (Sec. II-4 calls
this out): the gap penalty, a match distance threshold, and the two score
weights for matches and gaps.

This is a faithful re-implementation of the *behaviour the reproduced paper
evaluates* — semi-continuous interpolated matching with gap/match trade-offs
(the original system additionally fits kinematic models we do not need):
the Fig. 1(d) pathology (assignments moving backward in time) is reproduced
because the interpolated target is chosen per cell by spatial proximity.

The value returned is a *distance* (lower = more similar): the assignment
cost of the optimal alignment, averaged over the aligned points.

Complexity ``O(|T1| * |T2|)``.  MA is the one comparator with a single
(pure-Python) implementation — its per-cell projection-and-threshold logic
is not worth a vectorized twin — and the one *asymmetric* registry metric
(T1's samples align onto T2's interpolations, not vice versa; the batched
matrix engine consults ``DistanceSpec.symmetric`` accordingly).  See
DESIGN.md, "Baseline kernels".
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.geometry import point_distance, project_point_on_segment
from ..core.trajectory import Trajectory

__all__ = ["ma", "MAParams"]


class MAParams:
    """The four MA parameters (defaults follow the reproduction's tuning).

    Attributes
    ----------
    gap_penalty:
        Cost of declaring a point of either trajectory a gap point.
    match_threshold:
        Distances above this count as poor matches and are additionally
        penalized (distance is doubled beyond the threshold).
    w_match / w_gap:
        Relative weights of match cost and gap cost in the objective.
    """

    __slots__ = ("gap_penalty", "match_threshold", "w_match", "w_gap")

    def __init__(
        self,
        gap_penalty: float = 1.0,
        match_threshold: float = 5.0,
        w_match: float = 1.0,
        w_gap: float = 1.0,
    ):
        self.gap_penalty = gap_penalty
        self.match_threshold = match_threshold
        self.w_match = w_match
        self.w_gap = w_gap


def _interp_match_cost(
    p: Tuple[float, float],
    seg_start: Tuple[float, float],
    seg_end: Tuple[float, float],
    params: MAParams,
) -> float:
    """Cost of matching ``p`` to the best interpolated point on a segment."""
    q, _ = project_point_on_segment(seg_start, seg_end, p)
    d = point_distance(p, q)
    if d > params.match_threshold:
        d = params.match_threshold + 2.0 * (d - params.match_threshold)
    return params.w_match * d


def ma(t1: Trajectory, t2: Trajectory, params: MAParams | None = None) -> float:
    """MA distance between two trajectories.

    DP over sampled point indices ``(i, j)``; transitions: match ``p1_i``
    to an interpolated point near ``p2_j`` (diagonal), or declare either
    point a gap (the paper's 'gap points').  The result is normalized by the
    total number of aligned points so that it behaves as an average
    assignment cost.
    """
    if params is None:
        params = MAParams()
    n, m = len(t1), len(t2)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return params.w_gap * params.gap_penalty

    p1 = [(row[0], row[1]) for row in t1.data]
    p2 = [(row[0], row[1]) for row in t2.data]
    gap = params.w_gap * params.gap_penalty

    prev: List[float] = [j * gap for j in range(m + 1)]
    for i in range(1, n + 1):
        cur = [i * gap] + [0.0] * m
        a = p1[i - 1]
        for j in range(1, m + 1):
            # semi-continuous match: p1_i against the line from the previous
            # T2 sample to p2_j (interpolated target, Fig. 1(d) behaviour)
            seg_start = p2[j - 2] if j >= 2 else p2[j - 1]
            match = prev[j - 1] + _interp_match_cost(a, seg_start, p2[j - 1],
                                                     params)
            gap1 = prev[j] + gap
            gap2 = cur[j - 1] + gap
            best = match
            if gap1 < best:
                best = gap1
            if gap2 < best:
                best = gap2
            cur[j] = best
        prev = cur
    return prev[m] / (n + m)
