"""Trajectory box sequences and the Theorem-2 node bound (Sec. IV-A/B/C).

A tBoxSeq summarizes a *set* of trajectories as an ordered sequence of
st-boxes.  Two operations matter:

* **Construction** (Sec. IV-B): a tBoxSeq starts from a single trajectory
  (one box per segment, compacted) and absorbs further trajectories by
  aligning them against the existing boxes with the box-generalized EDwPsub
  DP (:func:`edwp_sub_box_alignment`) and growing every box by the pieces
  matched to it.  The pieces tile the trajectory, so every point of every
  summarized trajectory lies inside the union of the boxes.
* **Lower bounding** (Sec. IV-C, Theorem 2): ``edwp_sub_box(Q, B)`` is
  ``2 · Σ_s |s| · dist(s, ∪B)`` over the query's segments ``s``.  Every
  piece of an EDwP or EDwPsub alignment lies inside one query segment and
  costs ``(d(start) + d(end)) · (|piece| + |T piece|)`` with both
  trajectory positions on a member, hence inside ``∪B`` — at least
  ``2 · |piece| · dist(s, ∪B)``; the pieces of ``s`` sum to ``|s|``.  So
  the value never exceeds ``EDwPsub(Q, T) <= EDwP(Q, T)`` for any member
  ``T``.  This deviates from the paper, which runs the box-generalized
  DP here: that DP is not a lower bound (DESIGN.md, "Index bound
  kernels").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.edwp import _spatial_points
from ..core.geometry import (BOUND_SHRINK, Point, margined_distances,
                             point_distance, segments_rects_distance,
                             xy_rect_distance, xy_rect_segment_nearest)
from ..core.trajectory import Trajectory

__all__ = [
    "TBoxSeq",
    "BoxEdit",
    "edwp_sub_box",
    "edwp_sub_box_many",
    "edwp_sub_box_alignment",
    "least_growth",
]

_REP = 0
_INS_T = 1  # trajectory splits; the box is consumed
_INS_B = 2  # trajectory segment consumed against the current (unconsumed) box
_SKIP = 3
_OP_NAMES = {_REP: "rep", _INS_T: "ins_t", _INS_B: "ins_b"}

#: Default cap on the number of boxes per tBoxSeq.  Box count multiplies the
#: cost of every node bound (one rectangle-to-segment distance per box and
#: query segment) and of every construction alignment, so node summaries
#: stay coarse; 12 was tuned on the synthetic Beijing workload (pruning
#: power saturates while bound cost keeps rising with more boxes).
DEFAULT_MAX_BOXES = 12


@dataclass(frozen=True)
class BoxEdit:
    """One edit of a trajectory-vs-tBoxSeq alignment."""

    op: str
    piece: Tuple[Point, Point]
    box_index: int
    cost: float


class TBoxSeq:
    """A sequence of st-boxes summarizing a set of trajectories (Def. 5).

    Box ``i`` (Def. 4) is row ``i`` of two read-only float64 arrays:
    ``rects[i]``, its spatial rectangle ``(xmin, ymin, xmax, ymax)``, and
    ``min_len[i]``, its ``minL`` — the minimum length of any segment
    enclosed, which never claims more coverage than the shortest thing
    inside the box.  The constructor copies and checks them: at least one
    box, finite coordinates with ``xmin <= xmax`` and ``ymin <= ymax``, and
    ``minL`` finite and non-negative, else ``ValueError`` — a snapshot is loaded through it
    too (:meth:`__reduce__`).  Construction operations
    (:meth:`with_trajectory`, :meth:`compacted`) return new sequences.
    """

    __slots__ = ("rects", "min_len")

    def __init__(self, rects, min_len):
        try:
            rects = np.array(rects, dtype=np.float64)
            min_len = np.array(min_len, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"a tBoxSeq's boxes must be floats: {exc}") \
                from exc
        if (rects.ndim != 2 or rects.shape[1] != 4
                or min_len.shape != rects.shape[:1]):
            raise ValueError(
                f"a tBoxSeq needs (m, 4) rects and (m,) min_len, got "
                f"{rects.shape} and {min_len.shape}")
        if not len(rects):
            raise ValueError("a tBoxSeq needs at least one box")
        # Python loops: a handful of boxes checks faster than numpy calls.
        inf = math.inf
        if not all(-inf < x0 <= x1 < inf and -inf < y0 <= y1 < inf
                   for x0, y0, x1, y1 in rects.tolist()):
            raise ValueError("degenerate box: needs finite xmin <= xmax and "
                             "ymin <= ymax")
        if not all(0.0 <= ml < math.inf for ml in min_len.tolist()):
            raise ValueError("min_len must be finite and non-negative")
        rects.flags.writeable = False
        min_len.flags.writeable = False
        self.rects = rects
        self.min_len = min_len

    def __len__(self) -> int:
        return len(self.rects)

    def __repr__(self) -> str:
        return f"TBoxSeq(n={len(self)}, volume={self.volume:.3g})"

    def __reduce__(self):
        return TBoxSeq, (self.rects, self.min_len)

    @property
    def volume(self) -> float:
        """``Vol(B)``: sum of the box areas (Definition 5), as one array op."""
        r = self.rects
        return float(((r[:, 2] - r[:, 0]) * (r[:, 3] - r[:, 1])).sum())

    # ------------------------------------------------------------------ #
    # construction (Sec. IV-B)
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_trajectory(
        traj: Trajectory, max_boxes: int = DEFAULT_MAX_BOXES
    ) -> "TBoxSeq":
        """Initial tBoxSeq: one tight box per st-segment, then compacted.

        ``createTBoxSeq(T1)`` of the paper's iterative procedure.  The
        per-segment boxes and the compaction sweep both run as array ops
        (builds construct one of these per indexed trajectory *per pivot
        candidate*).
        """
        if traj.num_segments == 0:
            raise ValueError("cannot summarize a trajectory with no segments")
        coords = traj.coords()
        a = coords[:-1]
        b = coords[1:]
        return _compacted_seq(
            np.minimum(a[:, 0], b[:, 0]),
            np.minimum(a[:, 1], b[:, 1]),
            np.maximum(a[:, 0], b[:, 0]),
            np.maximum(a[:, 1], b[:, 1]),
            np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]),
            max_boxes,
        )

    @staticmethod
    def from_trajectories(
        trajectories: Sequence[Trajectory], max_boxes: int = DEFAULT_MAX_BOXES
    ) -> "TBoxSeq":
        """``tBoxSeq(T)`` over a set: initialize from the first trajectory and
        absorb the rest one at a time (the paper's iterative procedure)."""
        if not trajectories:
            raise ValueError("cannot summarize an empty set of trajectories")
        seq = TBoxSeq.from_trajectory(trajectories[0], max_boxes=max_boxes)
        for traj in trajectories[1:]:
            seq = seq.with_trajectory(traj, max_boxes=max_boxes)
        return seq

    def with_trajectory(
        self, traj: Trajectory, max_boxes: int = DEFAULT_MAX_BOXES
    ) -> "TBoxSeq":
        """``createTBoxSeq(T, B)``: align ``T`` against the boxes with the
        generalized EDwPsub and grow each box by the pieces matched to it.

        A box grows to enclose each piece, and its ``minL`` drops to the
        piece's length if that is shorter (the Definition-4 invariant).
        Boxes the alignment skipped pass through unchanged.  The box count
        is stable (pieces merge into the boxes they matched), then
        compaction enforces ``max_boxes``.
        """
        if traj.num_segments == 0:
            return self
        _, edits = edwp_sub_box_alignment(traj, self)
        rows = _rows(self)
        for edit in edits:
            start, end = edit.piece
            row = rows[edit.box_index]
            row[0] = min(row[0], start[0], end[0])
            row[1] = min(row[1], start[1], end[1])
            row[2] = max(row[2], start[0], end[0])
            row[3] = max(row[3], start[1], end[1])
            row[4] = min(row[4], point_distance(start, end))
        grown = np.array(rows)
        return TBoxSeq(grown[:, :4], grown[:, 4]).compacted(max_boxes)

    def volume_increase(
        self, traj: Trajectory, max_boxes: int = DEFAULT_MAX_BOXES
    ) -> float:
        """``Vol(tBoxSeq({B, T})) - Vol(B)`` under the caller's box budget:
        the quantity Alg. 1 (line 11) and dynamic inserts (Sec. IV-F)
        minimise over sibling summaries, which the index does through
        :func:`least_growth` without aligning against every sibling."""
        grown = self.with_trajectory(traj, max_boxes=max_boxes)
        return grown.volume - self.volume

    def compacted(self, max_boxes: int) -> "TBoxSeq":
        """Merge adjacent boxes (cheapest union first) until within budget.

        The greedy sweep scores every adjacent union as one array
        expression per round (``argmin``'s first-occurrence rule is a
        scalar loop's strict-``<`` selection), merging in place on copies
        of the arrays.
        """
        if len(self) <= max_boxes:
            return self
        r = self.rects
        return _compacted_seq(r[:, 0].copy(), r[:, 1].copy(), r[:, 2].copy(),
                              r[:, 3].copy(), self.min_len.copy(), max_boxes)


def _rows(seq: TBoxSeq) -> List[List[float]]:
    """The boxes as rows of five Python floats, ``(xmin, ymin, xmax, ymax,
    minL)``: what the construction alignment's scalar loops read."""
    return [[*rect, ml] for rect, ml in zip(seq.rects.tolist(),
                                            seq.min_len.tolist())]


def _compacted_seq(x0, y0, x1, y1, ml, max_boxes: int) -> TBoxSeq:
    """Greedy adjacent-union compaction of the boxes given as columns
    (modified in place) down to ``max_boxes``.

    A merge keeps the union rectangle and the smaller ``minL``; growth is
    ``union_area - area_i - area_{i+1}``, and ``np.argmin`` keeps the first
    minimum.
    """
    while x0.shape[0] > max_boxes:
        ux0 = np.minimum(x0[:-1], x0[1:])
        uy0 = np.minimum(y0[:-1], y0[1:])
        ux1 = np.maximum(x1[:-1], x1[1:])
        uy1 = np.maximum(y1[:-1], y1[1:])
        area = (x1 - x0) * (y1 - y0)
        growth = (ux1 - ux0) * (uy1 - uy0) - area[:-1] - area[1:]
        i = int(np.argmin(growth))
        x0[i] = ux0[i]
        y0[i] = uy0[i]
        x1[i] = ux1[i]
        y1[i] = uy1[i]
        ml[i] = min(ml[i], ml[i + 1])
        keep = i + 1
        x0 = np.delete(x0, keep)
        y0 = np.delete(y0, keep)
        x1 = np.delete(x1, keep)
        y1 = np.delete(y1, keep)
        ml = np.delete(ml, keep)
    return TBoxSeq(np.column_stack((x0, y0, x1, y1)), ml)


# ---------------------------------------------------------------------- #
# least-growth assignment (Alg. 1 line 11, Sec. IV-F inserts)
# ---------------------------------------------------------------------- #


def _growth_bounds(
    seqs: Sequence[TBoxSeq], traj: Trajectory, max_boxes: int
) -> np.ndarray:
    """Per sequence, a lower bound on the *computed* growth
    ``seq.with_trajectory(traj, max_boxes).volume - seq.volume``
    (``traj`` has at least one segment).

    The alignment's pieces tile ``traj``, so every sample point ends
    inside some box; boxes only grow, and stretching a ``w x h`` box to a
    point ``dx, dy`` outside it adds ``w*dy + h*dx + dx*dy``.  Hence
    ``growth >= max_p min_b`` of that.  It holds while the box count
    survives ``with_trajectory``: a sequence longer than ``max_boxes``
    would be compacted and gets ``-inf``.  The rounding margin of the two
    float volume sums is already taken off (derivation and soundness
    argument: DESIGN.md, "Least-growth assignment").
    """
    sizes = np.array([len(seq) for seq in seqs])
    starts = np.cumsum(sizes) - sizes
    xmin, ymin, xmax, ymax = np.concatenate([seq.rects for seq in seqs]).T
    xy = traj.coords()
    px = xy[:, :1]
    py = xy[:, 1:]
    dx = np.maximum(np.maximum(xmin - px, px - xmax), 0.0)
    dy = np.maximum(np.maximum(ymin - py, py - ymax), 0.0)
    w = xmax - xmin
    h = ymax - ymin
    raw = np.minimum.reduceat(w * dy + h * dx + dx * dy, starts,
                              axis=1).max(axis=0)
    volumes = np.add.reduceat(w * h, starts)
    # (m + 3) * eps of the volume is the proven need; 4 * (m + 4) taken.
    finfo = np.finfo(np.float64)
    slack = 4 * (sizes + 4) * finfo.eps
    bounds = raw - slack * (raw + volumes) - finfo.tiny
    bounds[sizes > max_boxes] = -math.inf
    return bounds


def least_growth(
    seqs: Sequence[TBoxSeq],
    traj: Trajectory,
    max_boxes: int = DEFAULT_MAX_BOXES,
    stats=None,
) -> Tuple[int, TBoxSeq]:
    """Alg. 1 line 11: which of ``seqs`` grows least by absorbing ``traj``.

    Returns ``(index, seqs[index].with_trajectory(traj, max_boxes))`` for
    the lexicographic minimum of ``(growth, index)`` — what aligning
    against every sequence and keeping the first strict minimum returns —
    but aligns in ascending ``(bound, index)`` order of
    :func:`_growth_bounds` and stops at the first bound above the least
    growth found: no later sequence can win or tie.  ``stats`` (a
    ``TrajTreeStats``) counts the bounds in ``quick_bound_computations``
    and the alignments run in ``bound_computations``.
    """
    if not seqs:
        raise ValueError("least_growth needs at least one sequence")
    if traj.num_segments == 0:
        return 0, seqs[0]      # with_trajectory is the identity: all tie
    bounds = _growth_bounds(seqs, traj, max_boxes)
    best, best_growth, best_seq = len(seqs), math.inf, None
    aligned = 0
    for i in np.argsort(bounds, kind="stable").tolist():
        if bounds[i] > best_growth:
            break
        grown = seqs[i].with_trajectory(traj, max_boxes=max_boxes)
        aligned += 1
        growth = grown.volume - seqs[i].volume
        if (growth, i) < (best_growth, best):
            best, best_growth, best_seq = i, growth, grown
    if stats is not None:
        stats.quick_bound_computations += len(seqs)
        stats.bound_computations += aligned
    if best_seq is None:
        raise ValueError("every sequence's volume growth is NaN")
    return best, best_seq


# ---------------------------------------------------------------------- #
# the Theorem-2 node bound
# ---------------------------------------------------------------------- #


def edwp_sub_box(traj: Trajectory, seq: TBoxSeq) -> float:
    """The Theorem-2 lower bound of ``traj`` against one box sequence
    (a batch of one of :func:`edwp_sub_box_many`)."""
    return edwp_sub_box_many(traj, [seq])[0]


def edwp_sub_box_many(
    traj: Trajectory, seqs: Sequence[TBoxSeq]
) -> List[float]:
    """Theorem-2 bounds of one trajectory against many box sequences.

    Per sequence ``2 · Σ_s |s| · dist(s, ∪B)`` over the query segments
    ``s`` (module docstring): one ten-candidate pass computes the
    ``(boxes × segments)`` distance matrix of all sequences at once, a
    per-sequence minimum turns it into ``dist(s, ∪B)``, and a product
    with the segment lengths sums it.  Each per-segment distance is
    shrunk by a band of ``32 ε`` times the largest coordinate
    (:func:`~repro.core.geometry.margined_distances`) and the sum by
    :data:`~repro.core.geometry.BOUND_SHRINK`, so the *computed* bound
    stays below the *computed* EDwP and EDwPsub; past ``1e150``, where the
    pass's squares can overflow, the bound is 0.  A trajectory with no
    segments gets 0.
    """
    seqs = list(seqs)
    if traj.num_segments == 0 or not seqs:
        return [0.0] * len(seqs)
    sizes = np.array([len(seq) for seq in seqs])
    starts = np.cumsum(sizes) - sizes
    rects = np.concatenate([seq.rects for seq in seqs])
    pts = traj.coords()
    dmin = np.minimum.reduceat(segments_rects_distance(pts, rects), starts,
                               axis=0)
    scale = np.maximum(np.maximum.reduceat(np.abs(rects).max(axis=1),
                                           starts), np.abs(pts).max())
    dmin = margined_distances(dmin, scale[:, None])   # a NaN distance -> 0
    # A row-wise sum, not a matrix product: BLAS may associate differently
    # per batch shape, and a node's bound must not depend on its batch.
    bounds = 2.0 * (dmin * traj.segment_lengths()).sum(axis=1) * BOUND_SHRINK
    bounds[~(scale <= 1e150)] = 0.0
    return bounds.tolist()


# ---------------------------------------------------------------------- #
# the construction alignment: box-generalized EDwPsub DP
# ---------------------------------------------------------------------- #


#: Where the midpoint rule samples a piece, as fractions of its length.
_MIDPOINTS = (1.0 / 6.0, 0.5, 5.0 / 6.0)


def _piece_cost(cx: float, cy: float, ex: float, ey: float,
                x0: float, y0: float, x1: float, y1: float) -> float:
    """``2 * ∫ d_box`` over the piece ``(cx, cy)-(ex, ey)`` against the
    box ``(x0, y0, x1, y1)``, by the 3-point midpoint rule."""
    length = math.hypot(cx - ex, cy - ey)
    if length == 0.0:
        return 0.0
    dx = ex - cx
    dy = ey - cy
    acc = 0.0
    for f in _MIDPOINTS:
        acc += xy_rect_distance(cx + dx * f, cy + dy * f, x0, y0, x1, y1)
    return 2.0 * length * (acc / 3.0)


def _box_dp(
    pts: Sequence[Point], rects: Sequence[Sequence[float]]
) -> Tuple[List[List[float]], List[List[int]], List[List[Point]]]:
    """Free-start / free-end DP of a trajectory against a box sequence,
    given as rows ``(xmin, ymin, xmax, ymax, minL)`` of Python floats.

    State ``(i, j)``: ``i`` trajectory segments and ``j`` boxes consumed.
    Cell payload is the current position on the trajectory (boxes have no
    interior position).  Row 0 is free (prefix skip); the caller
    minimizes over the last row (suffix skip).  Consuming a piece costs
    ``2 * ∫ d_box`` (3-point midpoint rule) and consuming a box adds
    ``2 * d_min * minL``.  Only construction reads it, for the alignment;
    it is not a lower bound (DESIGN.md, "Index bound kernels").

    Each quantity two cells share is computed once (DESIGN.md, "What the
    construction alignment costs"): from cell ``(i - 1, j - 1)``, rep
    ``(i, j)`` and ins_B ``(i, j - 1)`` consume the same piece against
    the same box — one piece cost, carried to the next column — and rep
    ``(i, j)`` projects box ``j - 1`` onto the segment ins_T ``(i - 1,
    j)`` projected it onto a row earlier — one projection, whose
    ``2 * d_min * minL`` term is kept per column for the next row.
    Every float operation is the one ``tests/box_dp_oracle.py`` performs
    per cell, in the same order, so the output is identical to it.
    """
    n = len(pts) - 1
    m = len(rects)
    inf = math.inf
    rows, cols = n + 1, m + 1
    last = rects[m - 1]

    cost = [[inf] * cols for _ in range(rows)]
    pos: List[List[Point]] = [[(0.0, 0.0)] * cols for _ in range(rows)]
    parents = [[-1] * cols for _ in range(rows)]

    start = pts[0]
    for j in range(cols):
        cost[0][j] = 0.0
        pos[0][j] = start
        parents[0][j] = _SKIP

    # consume[j]: the ``2 * d_min * minL`` of box j projected onto the
    # segment from cell (i - 1, j) to pts[i] — what rep (i, j + 1) adds.
    sx, sy = start
    ex, ey = pts[1]
    consume = []
    for x0, y0, x1, y1, ml in rects:
        d = xy_rect_segment_nearest(sx, sy, ex, ey, x0, y0, x1, y1)[3]
        consume.append(2.0 * d * ml)
    next_consume = [0.0] * m

    for i in range(1, rows):
        prev_cost = cost[i - 1]
        prev_pos = pos[i - 1]
        row_cost = cost[i]
        row_pos = pos[i]
        row_parents = parents[i]
        end = pts[i]
        ex, ey = end
        if i < n:
            nx, ny = pts[i + 1]
        piece = 0.0     # ins_B (i, j - 1)'s piece cost: rep (i, j)'s too
        for j in range(cols):
            best = inf
            best_pos = (0.0, 0.0)
            best_op = -1

            if j > 0:
                # rep: consume segment piece [cur, pts[i]] and box j-1.
                c = prev_cost[j - 1]
                if c < inf:
                    total = c + (piece + consume[j - 1])
                    if total < best:
                        best = total
                        best_pos = end
                        best_op = _REP

                # ins on T: split the remaining segment at the point
                # closest to box j-1 and consume the box against the first
                # piece (the box analogue of the projection insert).
                c = row_cost[j - 1]
                if c < inf:
                    cx, cy = row_pos[j - 1]
                    x0, y0, x1, y1, ml = rects[j - 1]
                    if i < n:
                        qx, qy, _, d = xy_rect_segment_nearest(
                            cx, cy, nx, ny, x0, y0, x1, y1)
                        term = 2.0 * d * ml
                        next_consume[j - 1] = term
                    else:
                        qx, qy = cx, cy
                        term = 2.0 * xy_rect_distance(
                            cx, cy, x0, y0, x1, y1) * ml
                    total = c + (_piece_cost(cx, cy, qx, qy, x0, y0, x1, y1)
                                 + term)
                    if total < best:
                        best = total
                        best_pos = (qx, qy)
                        best_op = _INS_T

            # ins on B: consume the segment piece against the *current*
            # (still unconsumed) box.
            c = prev_cost[j]
            if c < inf:
                cx, cy = prev_pos[j]
                x0, y0, x1, y1, _ = rects[j] if j < m else last
                piece = _piece_cost(cx, cy, ex, ey, x0, y0, x1, y1)
                total = c + piece
                if total < best:
                    best = total
                    best_pos = end
                    best_op = _INS_B

            row_cost[j] = best
            row_pos[j] = best_pos
            row_parents[j] = best_op
        consume, next_consume = next_consume, consume

    return cost, parents, pos


def edwp_sub_box_alignment(
    traj: Trajectory, seq: TBoxSeq
) -> Tuple[float, List[BoxEdit]]:
    """The construction alignment of ``traj`` against the boxes: the DP's
    value plus its per-edit backtrack, whose pieces tile ``traj`` from its
    first to its last sample.  ``with_trajectory`` grows each box by the
    pieces matched to it.
    """
    if traj.num_segments == 0:
        return 0.0, []
    pts = _spatial_points(traj)
    n = len(pts) - 1
    m = len(seq)
    cost, parents, pos = _box_dp(pts, _rows(seq))
    j = min(range(m + 1), key=cost[n].__getitem__)
    value = cost[n][j]
    i = n
    edits: List[BoxEdit] = []
    while i > 0 or j > 0:
        op = parents[i][j]
        if op == _SKIP:
            break
        if op == _REP:
            pi, pj = i - 1, j - 1
            box_index = j - 1
        elif op == _INS_T:
            pi, pj = i, j - 1
            box_index = j - 1
        elif op == _INS_B:
            pi, pj = i - 1, j
            box_index = min(j, m - 1)
        else:
            raise RuntimeError(f"broken box DP backtrack at cell ({i}, {j})")
        start = pos[pi][pj]
        end = pos[i][j]
        edit_cost = cost[i][j] - cost[pi][pj]
        edits.append(
            BoxEdit(op=_OP_NAMES[op], piece=(start, end), box_index=box_index,
                    cost=edit_cost)
        )
        i, j = pi, pj
    edits.reverse()
    return value, edits
