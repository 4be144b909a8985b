"""Sub-trajectory distance EDwPsub between two trajectories (Eq. 5-6).

``edwp_sub(T, S)`` finds the contiguous portion of ``S`` most similar to the
whole of ``T``: the PrefixDist recursion (Eq. 5) lets any *suffix* of ``S``
be skipped for free (its ``|T| = 0`` base case returns 0 with ``S`` left
over), and the outer minimum over suffixes of ``S`` (Eq. 6) skips any
*prefix* for free.  In DP terms this is a local alignment along the ``S``
axis: row 0 is all zeros and the answer is the minimum of the last row.

EDwPsub is asymmetric: the first argument must be fully matched.  It is the
workhorse of TrajTree — pivot selection (Alg. 1) measures trajectory
diversity with it, and tBoxSeq construction aligns trajectories against
box sequences with the generalized box form in :mod:`repro.index.tboxseq`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .backend import tier_kernel
from .edwp import (EdwpResult, _backtrack, _edwp_dp, _spatial_points,
                   overflow_to_inf)
from .trajectory import Trajectory, TrajectoryBatch

__all__ = [
    "edwp_sub",
    "edwp_sub_many",
    "edwp_sub_fast",
    "edwp_sub_fast_queries",
    "edwp_sub_alignment",
    "prefix_dist",
]


def _sub_trivial(n_t: int, n_s: int) -> float | None:
    """Base cases: empty query matches trivially; empty target never does."""
    if n_t <= 0:
        return 0.0
    if n_s <= 0:
        return math.inf
    return None


def edwp_sub(t: Trajectory, s: Trajectory, backend: Optional[str] = None) -> float:
    """``EDwPsub(T, S)``: cost of aligning all of ``T`` to the best
    contiguous sub-trajectory of ``S`` (Eq. 6).

    Satisfies ``edwp_sub(T, S) <= edwp(T, Ts)`` for every contiguous
    sub-trajectory ``Ts`` of ``S`` (paper Lemma 2), in particular
    ``edwp_sub(T, S) <= edwp(T, S)`` — up to the documented tolerance of
    the Viterbi DP realization (DESIGN.md).

    Implementation note: Eq. 6 is the minimum of PrefixDist over all
    suffixes of ``S``.  The free-start-row DP folds all suffix starts into
    one pass, but its zero-cost row can shadow a PrefixDist path whose
    positions are better downstream, so the value is taken as the minimum
    of both passes — which also guarantees
    ``edwp_sub(T, S) <= prefix_dist(T, S)`` structurally.
    """
    trivial = _sub_trivial(t.num_segments, s.num_segments)
    if trivial is not None:
        return trivial
    kernel = tier_kernel("edwp_sub", backend)
    if kernel is not None:
        return overflow_to_inf(kernel(t, s))
    p1 = _spatial_points(t)
    p2 = _spatial_points(s)
    free, _, _ = _edwp_dp(p1, p2, keep_parents=False, free_start_row=True)
    anchored, _, _ = _edwp_dp(p1, p2, keep_parents=False, free_start_row=False)
    return min(min(free[len(p1) - 1]), min(anchored[len(p1) - 1]))


def edwp_sub_many(
    t: Trajectory,
    trajectories: Sequence[Trajectory],
    backend: Optional[str] = None,
) -> List[float]:
    """``EDwPsub(T, S)`` of one query against many targets.

    The batched entry point of the sub-trajectory distance: on the
    ``"numpy"`` backend the whole batch runs through the lockstep kernel
    (:func:`repro.core.edwp_fast.edwp_sub_many_numpy`, both DP passes in
    one sweep);
    on ``"python"`` it is a plain loop.  TrajTree's ``subtrajectory_knn``
    leaf refinement and scan oracle route through this.

    Returns one distance per target, in order, with the same base-case
    semantics as :func:`edwp_sub` per pair; a pair whose DP overflowed is
    ``inf`` on both backends, never NaN.
    """
    kernel = tier_kernel("edwp_sub_many", backend)
    trajectories = TrajectoryBatch.of(trajectories)
    if t.num_segments <= 0:
        return [0.0] * len(trajectories)
    if kernel is not None and trajectories:
        return [overflow_to_inf(v) for v in kernel(t, trajectories)]
    return [edwp_sub(t, s, backend=backend) for s in trajectories]


def edwp_sub_fast(t: Trajectory, s: Trajectory, backend: Optional[str] = None) -> float:
    """Single-pass EDwPsub (free-start DP only).

    Half the cost of :func:`edwp_sub`; the value can exceed the two-pass
    result when the free row shadows a better-positioned anchored path.
    Used where EDwPsub is a *heuristic* rather than a reported value —
    pivot-diversity estimation in Alg. 1 and tBoxSeq construction.  An
    overflowed DP is ``inf`` on both backends, never NaN (:func:`edwp`'s
    limits apply: past the ``1e150`` scale a trajectory against itself
    can be ``inf`` on ``"numpy"``).
    """
    trivial = _sub_trivial(t.num_segments, s.num_segments)
    if trivial is not None:
        return trivial
    kernel = tier_kernel("edwp_sub_fast", backend)
    if kernel is not None:
        return overflow_to_inf(kernel(t, s))
    p1 = _spatial_points(t)
    p2 = _spatial_points(s)
    free, _, _ = _edwp_dp(p1, p2, keep_parents=False, free_start_row=True)
    return min(free[len(p1) - 1])


def edwp_sub_fast_queries(
    queries: Sequence[Trajectory],
    s: Trajectory,
    backend: Optional[str] = None,
) -> List[float]:
    """:func:`edwp_sub_fast` of many first arguments against one target.

    The batch-*first* counterpart of :func:`edwp_sub_many` (which batches
    over the second argument): Alg. 1 pivot selection measures every node
    trajectory against one shared pivot, so on the ``"numpy"`` backend the
    whole column runs through the batch-first lockstep kernel
    (:func:`repro.core.edwp_fast.edwp_sub_fast_queries_numpy`); on
    ``"python"`` it is a plain loop.  Returns one value per query, in
    order, with the same base-case and overflow semantics as
    :func:`edwp_sub_fast`.
    """
    kernel = tier_kernel("edwp_sub_fast_queries", backend)
    queries = list(queries)
    if s.num_segments <= 0:
        return [_sub_trivial(q.num_segments, 0) for q in queries]
    if kernel is not None and queries:
        return [overflow_to_inf(v) for v in kernel(queries, s)]
    return [edwp_sub_fast(q, s, backend=backend) for q in queries]


def prefix_dist(t: Trajectory, s: Trajectory, backend: Optional[str] = None) -> float:
    """``PrefixDist(T, S)`` (Eq. 5): align all of ``T`` with a *prefix* of
    ``S``, skipping any suffix of ``S`` for free.  Overflow as in
    :func:`edwp_sub_fast`: ``inf``, never NaN."""
    trivial = _sub_trivial(t.num_segments, s.num_segments)
    if trivial is not None:
        return trivial
    kernel = tier_kernel("prefix_dist", backend)
    if kernel is not None:
        return overflow_to_inf(kernel(t, s))
    p1 = _spatial_points(t)
    p2 = _spatial_points(s)
    cost, _, _ = _edwp_dp(p1, p2, keep_parents=False, free_start_row=False)
    return min(cost[len(p1) - 1])


def edwp_sub_alignment(t: Trajectory, s: Trajectory) -> EdwpResult:
    """``EDwPsub(T, S)`` plus the optimal edit script.

    The edit script covers all of ``T``; ``S`` pieces touched by no edit were
    skipped.  Each :class:`~repro.core.edwp.EditOp` records the original
    segment index of ``S`` it consumed (``seg2``), which tBoxSeq construction
    uses to decide which boxes to grow (Sec. IV-B).
    """
    trivial = _sub_trivial(t.num_segments, s.num_segments)
    if trivial is not None:
        return EdwpResult(distance=trivial, edits=[])
    p1 = _spatial_points(t)
    p2 = _spatial_points(s)
    free, fp, fpos = _edwp_dp(p1, p2, keep_parents=True, free_start_row=True)
    anch, ap, apos = _edwp_dp(p1, p2, keep_parents=True, free_start_row=False)
    assert fp is not None and ap is not None
    n = len(p1) - 1
    free_j = min(range(len(free[n])), key=free[n].__getitem__)
    anch_j = min(range(len(anch[n])), key=anch[n].__getitem__)
    if free[n][free_j] <= anch[n][anch_j]:
        edits = _backtrack(p1, p2, fp, fpos, n, free_j)
        return EdwpResult(distance=free[n][free_j], edits=edits)
    edits = _backtrack(p1, p2, ap, apos, n, anch_j)
    return EdwpResult(distance=anch[n][anch_j], edits=edits)
