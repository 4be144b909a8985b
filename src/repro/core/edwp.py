"""Edit Distance with Projections (EDwP) — paper Sec. III-A.

EDwP computes the cheapest sequence of *replacement* and *insert* edits that
make two trajectories identical.  A replacement matches two st-segments at a
cost equal to the summed distances of their endpoints (Eq. 2), weighted by
*coverage* — the combined length of the matched pieces (Eq. 3).  An insert
splits a segment at the *projection* of the other trajectory's next sampled
point, at no direct cost; the cost is incurred when the induced sub-segment
is subsequently replaced.

Dynamic program
---------------
The recursive definition in the paper admits unbounded chains of free
inserts, so (as the paper's own ``O((|T1|+|T2|)^2)`` complexity statement
implies) the practical algorithm is a quadratic cell DP.  State ``(i, j)``
means "T1 is consumed through segment ``i``, T2 through segment ``j``", and
each cell additionally carries the *current position* on each trajectory:
either the sampled point ``P[i]`` or, when the cell was entered through an
insert, the interpolated projection point.  Transitions into ``(i, j)``:

``rep``      from ``(i-1, j-1)``: replace the two current segments wholesale.
``ins(T1)``  from ``(i, j-1)``:   split T1's current segment at the
             projection of ``P2[j]`` and replace the first piece with T2's
             segment; T1 stays within segment ``i``.
``ins(T2)``  from ``(i-1, j)``:   symmetric.

When one side is exhausted its remaining segment degenerates to a point,
which reproduces the zero-length-split behaviour of the recursive definition
(and the exact numbers of the paper's Appendix A counterexample).

Timestamps never enter the cost: EDwP is a purely spatial distance, and the
timestamp assigned to an inserted point (proportional to the spatial split,
Sec. III-A) only matters to consumers of the alignment.

Reference tier
--------------
The cell-by-cell loop in this module is the ``"python"`` backend — plain
floats, easy to audit against the paper's equations, the default and the
oracle the test-suite compares against.  The ``"numpy"`` tier (the
anti-diagonal sweep of :mod:`repro.core.edwp_fast`) is looked up per call
through :func:`repro.core.backend.tier_kernel`, which also owns the
backend switch (:func:`set_backend` and friends, re-exported here); it
matches this reference to float tolerance (DESIGN.md, "Dual-backend EDwP
kernels").
:func:`edwp_many` is the batched entry point; TrajTree routes leaf
refinement and scan oracles through it.

Alignment recovery (:func:`edwp_alignment`) always runs the reference DP:
backtracking needs the full parent/position matrices, which the faster
kernels deliberately do not materialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .backend import (
    BACKENDS,
    BackendError,
    UnknownBackendError,
    get_backend,
    resolve_backend,
    set_backend,
    tier_kernel,
    use_backend,
)
from .geometry import Point, point_distance, project_point_on_segment
from .trajectory import Trajectory, TrajectoryBatch

__all__ = [
    "EditOp",
    "EdwpResult",
    "edwp",
    "edwp_avg",
    "edwp_many",
    "edwp_alignment",
    "rep_cost",
    "coverage",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "BACKENDS",
    "BackendError",
    "UnknownBackendError",
]

_REP = 0
_INS1 = 1  # insert on T1 (T2 advances)
_INS2 = 2  # insert on T2 (T1 advances)
_SKIP = 3  # free prefix skip (EDwPsub only)
_OP_NAMES = {_REP: "rep", _INS1: "ins1", _INS2: "ins2"}


def rep_cost(e1_start: Point, e1_end: Point, e2_start: Point, e2_end: Point) -> float:
    """Replacement cost, Eq. 2: ``dist(e1.s1, e2.s1) + dist(e1.s2, e2.s2)``."""
    return point_distance(e1_start, e2_start) + point_distance(e1_end, e2_end)


def coverage(e1_start: Point, e1_end: Point, e2_start: Point, e2_end: Point) -> float:
    """Coverage weight, Eq. 3: ``length(e1) + length(e2)``."""
    return point_distance(e1_start, e1_end) + point_distance(e2_start, e2_end)


@dataclass(frozen=True)
class EditOp:
    """One edit of the optimal alignment.

    Attributes
    ----------
    op:
        ``"rep"``, ``"ins1"`` (insert on T1) or ``"ins2"`` (insert on T2).
        Every op embodies one replacement; the ``ins*`` variants record that
        the replaced piece was created by a projection split.
    piece1 / piece2:
        The matched piece of each trajectory as ``(start_xy, end_xy)``.
    cost:
        The weighted contribution ``rep(...) * Coverage(...)`` of this edit.
    seg1 / seg2:
        Index of the original segment each piece lies on (``-1`` when the
        trajectory was already exhausted and the piece is degenerate).
    """

    op: str
    piece1: Tuple[Point, Point]
    piece2: Tuple[Point, Point]
    cost: float
    seg1: int
    seg2: int


@dataclass
class EdwpResult:
    """Distance plus the optimal edit script (used by tBoxSeq construction)."""

    distance: float
    edits: List[EditOp]


def _spatial_points(traj: Trajectory) -> List[Point]:
    data = traj.data
    return [(float(row[0]), float(row[1])) for row in data]


def _trivial_distance(n1: int, n2: int) -> Optional[float]:
    """Base cases of the paper's recursion in terms of segment counts."""
    if n1 <= 0 and n2 <= 0:
        return 0.0
    if n1 <= 0 or n2 <= 0:
        return math.inf
    return None


def _edwp_dp(
    p1: Sequence[Point],
    p2: Sequence[Point],
    keep_parents: bool,
    free_start_row: bool = False,
) -> Tuple[
    List[List[float]],
    Optional[List[List[int]]],
    List[List[Tuple[float, float, float, float]]],
]:
    """Core DP.  Returns the full ``(costs, parents, positions)`` matrices.

    ``positions[i][j]`` stores ``(cur1x, cur1y, cur2x, cur2y)`` of the best
    arrival into cell ``(i, j)``; ``parents[i][j]`` stores the op code.

    With ``free_start_row`` every cell ``(0, j)`` costs 0 — the PrefixDist /
    EDwPsub mechanism (Eq. 6) of skipping any prefix of the second argument
    for free.  (Suffix skipping is the caller taking a min over the last row.)
    """
    n1 = len(p1) - 1
    n2 = len(p2) - 1

    inf = math.inf
    cols = n2 + 1
    rows = n1 + 1
    cost = [[inf] * cols for _ in range(rows)]
    pos = [[(0.0, 0.0, 0.0, 0.0)] * cols for _ in range(rows)]
    parents: Optional[List[List[int]]] = (
        [[-1] * cols for _ in range(rows)] if keep_parents else None
    )

    cost[0][0] = 0.0
    pos[0][0] = (p1[0][0], p1[0][1], p2[0][0], p2[0][1])
    if free_start_row:
        start_x, start_y = p1[0]
        for j in range(cols):
            cost[0][j] = 0.0
            pos[0][j] = (start_x, start_y, p2[j][0], p2[j][1])
            if parents is not None:
                parents[0][j] = _SKIP

    dist = point_distance
    proj = project_point_on_segment

    for i in range(rows):
        row_cost = cost[i]
        row_pos = pos[i]
        for j in range(cols):
            if i == 0 and (j == 0 or free_start_row):
                continue
            best = inf
            best_pos = (0.0, 0.0, 0.0, 0.0)
            best_op = -1

            # rep: from (i-1, j-1) — replace both current segments wholesale.
            if i > 0 and j > 0:
                c = cost[i - 1][j - 1]
                if c < inf:
                    c1x, c1y, c2x, c2y = pos[i - 1][j - 1]
                    a1 = (c1x, c1y)
                    a2 = (c2x, c2y)
                    b1 = p1[i]
                    b2 = p2[j]
                    incr = (dist(a1, a2) + dist(b1, b2)) * (
                        dist(a1, b1) + dist(a2, b2)
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        best_pos = (b1[0], b1[1], b2[0], b2[1])
                        best_op = _REP

            # ins on T1: from (i, j-1) — T2 advances to P2[j]; T1 advances to
            # the projection of P2[j] on its remaining segment.
            if j > 0:
                c = row_cost[j - 1]
                if c < inf:
                    c1x, c1y, c2x, c2y = row_pos[j - 1]
                    a1 = (c1x, c1y)
                    a2 = (c2x, c2y)
                    b2 = p2[j]
                    if i < n1:
                        q, _ = proj(a1, p1[i + 1], b2)
                    else:
                        q = a1
                    base = dist(a1, a2)
                    incr = (base + dist(q, b2)) * (dist(a1, q) + dist(a2, b2))
                    total = c + incr
                    if total < best:
                        best = total
                        best_pos = (q[0], q[1], b2[0], b2[1])
                        best_op = _INS1

            # ins on T2: from (i-1, j) — symmetric.
            if i > 0:
                c = cost[i - 1][j]
                if c < inf:
                    c1x, c1y, c2x, c2y = pos[i - 1][j]
                    a1 = (c1x, c1y)
                    a2 = (c2x, c2y)
                    b1 = p1[i]
                    if j < n2:
                        q, _ = proj(a2, p2[j + 1], b1)
                    else:
                        q = a2
                    base = dist(a1, a2)
                    incr = (base + dist(b1, q)) * (dist(a1, b1) + dist(a2, q))
                    total = c + incr
                    if total < best:
                        best = total
                        best_pos = (b1[0], b1[1], q[0], q[1])
                        best_op = _INS2

            row_cost[j] = best
            row_pos[j] = best_pos
            if parents is not None:
                parents[i][j] = best_op

    return cost, parents, pos


def edwp(t1: Trajectory, t2: Trajectory, backend: Optional[str] = None) -> float:
    """EDwP distance between two trajectories (paper Sec. III-A).

    Returns 0 when both trajectories have no segments, ``inf`` when exactly
    one of them has no segments (the recursion's base cases), and the optimal
    cumulative weighted edit cost otherwise.

    ``backend`` overrides the global backend (see :func:`set_backend`) for
    this call: ``"python"`` runs the reference DP, ``"numpy"`` the
    vectorized kernel.  A pair whose DP overflowed is ``inf`` on both
    (:func:`overflow_to_inf`); on such coordinates a trajectory against
    itself is 0.0 on ``"python"`` but ``inf`` on ``"numpy"``.
    """
    trivial = _trivial_distance(t1.num_segments, t2.num_segments)
    if trivial is not None:
        return trivial
    kernel = tier_kernel("edwp", backend)
    if kernel is not None:
        return overflow_to_inf(kernel(t1, t2))
    p1 = _spatial_points(t1)
    p2 = _spatial_points(t2)
    cost, _, _ = _edwp_dp(p1, p2, keep_parents=False)
    return cost[len(p1) - 1][len(p2) - 1]


def overflow_to_inf(raw: float) -> float:
    """A raw distance that is not below ``inf`` is ``inf``: where the
    reference DP overflows to ``inf``, the numpy kernel's ``inf / inf``
    and ``inf * 0`` can give NaN."""
    return raw if raw < math.inf else math.inf


def _normalize(raw: float, denom: float) -> float:
    """Eq. 4 with the degenerate zero-length rule; a raw value that is
    not below ``inf`` (overflowed: ``inf``, or NaN from the numpy kernel)
    is ``inf``, never ``inf / inf``."""
    if denom <= 0.0 or not raw < math.inf:
        return 0.0 if raw == 0.0 else math.inf
    return raw / denom


def edwp_avg(t1: Trajectory, t2: Trajectory, backend: Optional[str] = None) -> float:
    """Length-normalized EDwP, Eq. 4: ``EDwP / (length(T1) + length(T2))``.

    The paper's experiments (Sec. V-A) use this variant.  When the combined
    length is zero the trajectories are degenerate points; the distance is 0
    if the raw EDwP is 0 and ``inf`` otherwise.
    """
    return _normalize(edwp(t1, t2, backend=backend), t1.length + t2.length)


def edwp_many(
    query: Trajectory,
    trajectories: Sequence[Trajectory],
    normalized: bool = False,
    backend: Optional[str] = None,
) -> List[float]:
    """(Normalized) EDwP of one query against many trajectories.

    The batched entry point of the distance: on the ``"numpy"`` backend the
    whole batch runs through the lockstep kernel
    (:func:`repro.core.edwp_fast.edwp_many_numpy`), amortizing both the
    per-diagonal numpy dispatch and each trajectory's coordinate conversion
    (cached on the instance by :meth:`Trajectory.coords`); on ``"python"``
    it is a plain loop.  TrajTree leaf refinement and the scan oracles route
    through this.

    Returns one distance per input trajectory, in order, with the same
    base-case semantics as :func:`edwp` / :func:`edwp_avg` per pair.  A
    pair whose DP overflowed is ``inf`` on both backends, raw and
    normalized, never NaN (the numpy kernel's ``inf * 0`` can give NaN
    there, where the reference DP keeps ``inf``).
    """
    kernel = tier_kernel("edwp_many", backend)
    batch = TrajectoryBatch.of(trajectories)
    if kernel is not None and query.num_segments > 0 and len(batch):
        raw = kernel(query, batch)
    else:
        raw = [edwp(query, t, backend=backend) for t in batch]
    raw = np.asarray(raw, dtype=np.float64)
    overflowed = ~(raw < math.inf)
    if not normalized:
        return np.where(overflowed, math.inf, raw).tolist()
    denom = query.length + batch.lengths        # _normalize, vectorized
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((denom <= 0.0) | overflowed,
                        np.where(raw == 0.0, 0.0, math.inf),
                        raw / denom).tolist()


def edwp_alignment(t1: Trajectory, t2: Trajectory) -> EdwpResult:
    """EDwP distance plus the optimal edit script.

    The script is recovered by backtracking the DP parents and is the
    ingredient tBoxSeq construction needs (Sec. IV-B): one box per
    replacement edit, covering the matched pieces.
    """
    trivial = _trivial_distance(t1.num_segments, t2.num_segments)
    if trivial is not None:
        return EdwpResult(distance=trivial, edits=[])
    p1 = _spatial_points(t1)
    p2 = _spatial_points(t2)
    cost, parents, pos = _edwp_dp(p1, p2, keep_parents=True)
    assert parents is not None
    edits = _backtrack(p1, p2, parents, pos, len(p1) - 1, len(p2) - 1)
    return EdwpResult(distance=cost[len(p1) - 1][len(p2) - 1], edits=edits)


def _backtrack(
    p1: Sequence[Point],
    p2: Sequence[Point],
    parents: List[List[int]],
    pos: List[List[Tuple[float, float, float, float]]],
    end_i: int,
    end_j: int,
) -> List[EditOp]:
    n1 = len(p1) - 1
    n2 = len(p2) - 1
    i, j = end_i, end_j
    edits: List[EditOp] = []
    while i > 0 or j > 0:
        op = parents[i][j]
        if op == _SKIP:
            break
        if op == _REP:
            pi, pj = i - 1, j - 1
        elif op == _INS1:
            pi, pj = i, j - 1
        elif op == _INS2:
            pi, pj = i - 1, j
        else:  # unreachable cell — should not happen for valid inputs
            raise RuntimeError(f"broken DP backtrack at cell ({i}, {j})")
        c1x, c1y, c2x, c2y = pos[pi][pj]
        e1x, e1y, e2x, e2y = pos[i][j]
        start1, end1 = (c1x, c1y), (e1x, e1y)
        start2, end2 = (c2x, c2y), (e2x, e2y)
        cost = (
            point_distance(start1, start2) + point_distance(end1, end2)
        ) * (point_distance(start1, end1) + point_distance(start2, end2))
        # Piece locations: a rep consumes segment i-1 / j-1; an insert keeps
        # one side within its current segment (degenerate, -1, if exhausted).
        if op == _INS1:
            seg1 = i if i < n1 else -1
        else:
            seg1 = i - 1
        if op == _INS2:
            seg2 = j if j < n2 else -1
        else:
            seg2 = j - 1
        edits.append(
            EditOp(
                op=_OP_NAMES[op],
                piece1=(start1, end1),
                piece2=(start2, end2),
                cost=cost,
                seg1=seg1,
                seg2=seg2,
            )
        )
        i, j = pi, pj
    edits.reverse()
    return edits
