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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.edwp import _spatial_points
from ..core.geometry import (BOUND_SHRINK, Point, margined_distances,
                             point_distance, segments_rects_distance)
from ..core.trajectory import Trajectory
from .stbox import STBox

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


class BoxGeometry:
    """A box sequence as arrays: ``rects``, ``(m, 4)`` rows of ``(xmin,
    ymin, xmax, ymax)``, and the per-box ``minL`` as ``min_len``.

    Built once per ``TBoxSeq`` by :meth:`TBoxSeq.geometry`, never pickled,
    and treated as read-only.
    """

    __slots__ = ("rects", "min_len")

    def __init__(self, rects: np.ndarray, min_len: np.ndarray):
        self.rects = rects
        self.min_len = min_len

    def __len__(self) -> int:
        return self.rects.shape[0]

    xmin = property(lambda self: self.rects[:, 0])
    ymin = property(lambda self: self.rects[:, 1])
    xmax = property(lambda self: self.rects[:, 2])
    ymax = property(lambda self: self.rects[:, 3])

    @property
    def areas(self) -> np.ndarray:
        """Per-box spatial areas (the Definition-5 volume summands)."""
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)


def box_geometry(boxes: Sequence[STBox]) -> BoxGeometry:
    """Pack a sequence of :class:`~repro.index.stbox.STBox` into arrays."""
    arr = np.array(
        [(b.xmin, b.ymin, b.xmax, b.ymax, b.min_len) for b in boxes],
        dtype=np.float64,
    ).reshape(len(boxes), 5)
    return BoxGeometry(np.ascontiguousarray(arr[:, :4]),
                       np.ascontiguousarray(arr[:, 4]))


@dataclass(frozen=True)
class BoxEdit:
    """One edit of a trajectory-vs-tBoxSeq alignment."""

    op: str
    piece: Tuple[Point, Point]
    box_index: int
    cost: float


class TBoxSeq:
    """A sequence of st-boxes summarizing a set of trajectories (Def. 5).

    Instances are immutable by convention: construction operations
    (:meth:`with_trajectory`, :meth:`compacted`) return new sequences.
    That convention is what makes the per-instance :meth:`geometry` cache
    sound — a new sequence starts with an empty cache, so the cached
    arrays can never go stale.
    """

    __slots__ = ("boxes", "_geom")

    def __init__(self, boxes: Sequence[STBox]):
        if not boxes:
            raise ValueError("a tBoxSeq needs at least one box")
        self.boxes = list(boxes)
        self._geom: Optional[BoxGeometry] = None

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, index: int) -> STBox:
        return self.boxes[index]

    def __repr__(self) -> str:
        return f"TBoxSeq(n={len(self.boxes)}, volume={self.volume:.3g})"

    def __getstate__(self):
        # The geometry cache is derived data: dropping it keeps pickles
        # (index snapshots) lean and rebuilds lazily after load.
        return (self.boxes,)

    def __setstate__(self, state) -> None:
        (self.boxes,) = state
        self._geom = None

    def geometry(self) -> BoxGeometry:
        """Cached array form of the boxes (:class:`BoxGeometry`).

        Built on first use and reused for every subsequent bound against
        this sequence.  Construction never mutates a sequence in place —
        ``with_trajectory``/``compacted`` return fresh instances whose
        caches start empty — and pickling drops the cache
        (:meth:`__getstate__`), so the arrays always describe ``boxes``.

        The lazy fill is idempotent and therefore safe under concurrent
        first access (the read-compute-assign contract documented at
        :meth:`repro.core.trajectory.Trajectory.coords`, asserted by
        ``tests/test_concurrent_caches.py``); servers warm it eagerly via
        :meth:`repro.index.trajtree.TrajTree.warm_caches`.
        """
        geom = self._geom
        if geom is None:
            geom = box_geometry(self.boxes)
            self._geom = geom
        return geom

    @property
    def volume(self) -> float:
        """``Vol(B)``: sum of the box areas (Definition 5), as one array op."""
        return float(self.geometry().areas.sum())

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
        candidate*, so the object churn of the naive form was a measurable
        slice of build time); the resulting boxes are identical to the
        box-object formulation.
        """
        if traj.num_segments == 0:
            raise ValueError("cannot summarize a trajectory with no segments")
        coords = traj.coords()
        a = coords[:-1]
        b = coords[1:]
        arrays = _compact_arrays(
            np.minimum(a[:, 0], b[:, 0]),
            np.minimum(a[:, 1], b[:, 1]),
            np.maximum(a[:, 0], b[:, 0]),
            np.maximum(a[:, 1], b[:, 1]),
            np.hypot(b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]),
            max_boxes,
        )
        return TBoxSeq(_boxes_from_arrays(*arrays))

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

        Boxes the alignment skipped pass through unchanged.  The box count is
        stable (pieces merge into the boxes they matched), then compaction
        enforces ``max_boxes``.
        """
        if traj.num_segments == 0:
            return self
        _, edits = edwp_sub_box_alignment(traj, self)
        grown: Dict[int, STBox] = {}
        for edit in edits:
            idx = edit.box_index
            box = grown.get(idx, self.boxes[idx])
            grown[idx] = box.expanded_by_piece(*edit.piece)
        boxes = [grown.get(i, box) for i, box in enumerate(self.boxes)]
        return TBoxSeq(boxes).compacted(max_boxes)

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
        expression per round (``argmin``'s first-occurrence rule matches
        the scalar loop's strict-``<`` selection), merging in place on the
        geometry arrays and materializing boxes only once at the end.
        """
        if len(self.boxes) <= max_boxes:
            return self
        g = self.geometry()
        arrays = _compact_arrays(
            g.xmin.copy(), g.ymin.copy(), g.xmax.copy(), g.ymax.copy(),
            g.min_len.copy(), max_boxes,
        )
        return TBoxSeq(_boxes_from_arrays(*arrays))


def _compact_arrays(x0, y0, x1, y1, ml, max_boxes: int):
    """Greedy adjacent-union compaction on raw geometry arrays.

    Merge decisions are float-identical to the scalar box formulation:
    union extents are the same ``min``/``max`` expressions, growth is
    ``union_area - area_i - area_{i+1}`` in the same association order,
    and ``np.argmin`` keeps the first minimum exactly like the scalar
    loop's strict-``<`` scan.
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
    return x0, y0, x1, y1, ml


def _boxes_from_arrays(x0, y0, x1, y1, ml) -> List[STBox]:
    """Materialize :class:`STBox` objects from aligned geometry arrays."""
    return [
        STBox(float(a), float(b), float(c), float(d), float(e))
        for a, b, c, d, e in zip(x0, y0, x1, y1, ml)
    ]


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
    geoms = [seq.geometry() for seq in seqs]
    sizes = np.array([len(g) for g in geoms])
    starts = np.cumsum(sizes) - sizes
    xmin = np.concatenate([g.xmin for g in geoms])
    ymin = np.concatenate([g.ymin for g in geoms])
    xmax = np.concatenate([g.xmax for g in geoms])
    ymax = np.concatenate([g.ymax for g in geoms])
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
    geoms = [seq.geometry() for seq in seqs]
    sizes = np.array([len(g) for g in geoms])
    starts = np.cumsum(sizes) - sizes
    rects = np.concatenate([g.rects for g in geoms])
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


def _box_dp(
    pts: Sequence[Point], boxes: Sequence[STBox]
) -> Tuple[List[List[float]], List[List[int]], List[List[Point]]]:
    """Free-start / free-end DP of a trajectory against a box sequence.

    State ``(i, j)``: ``i`` trajectory segments and ``j`` boxes consumed.
    Cell payload is the current position on the trajectory (boxes have no
    interior position).  Row 0 is free (prefix skip); the caller
    minimizes over the last row (suffix skip).  Consuming a piece costs
    ``2 * ∫ d_box`` (3-point midpoint rule) and consuming a box adds
    ``2 * d_min * minL``.  Only construction reads it, for the alignment;
    it is not a lower bound (DESIGN.md, "Index bound kernels").
    """
    n = len(pts) - 1
    m = len(boxes)
    inf = math.inf
    rows, cols = n + 1, m + 1

    cost = [[inf] * cols for _ in range(rows)]
    pos: List[List[Point]] = [[(0.0, 0.0)] * cols for _ in range(rows)]
    parents = [[-1] * cols for _ in range(rows)]

    start = pts[0]
    for j in range(cols):
        cost[0][j] = 0.0
        pos[0][j] = start
        parents[0][j] = _SKIP

    dist = point_distance

    def piece_cost(cur: Point, end: Point, box: STBox) -> float:
        """``2 * ∫ d_box`` over the piece, by the 3-point midpoint rule."""
        length = dist(cur, end)
        if length == 0.0:
            return 0.0
        cx, cy = cur
        dx = end[0] - cx
        dy = end[1] - cy
        acc = 0.0
        for f in (1.0 / 6.0, 0.5, 5.0 / 6.0):
            acc += box.dist_point((cx + dx * f, cy + dy * f))
        return 2.0 * length * (acc / 3.0)

    for i in range(1, rows):
        row_cost = cost[i]
        row_pos = pos[i]
        for j in range(cols):
            best = inf
            best_pos = (0.0, 0.0)
            best_op = -1

            # rep: consume segment piece [cur, pts[i]] and box j-1.
            if j > 0:
                c = cost[i - 1][j - 1]
                if c < inf:
                    cur = pos[i - 1][j - 1]
                    box = boxes[j - 1]
                    end = pts[i]
                    proj, _ = box.project_on_segment(cur, end)
                    incr = piece_cost(cur, end, box) + (
                        2.0 * box.dist_point(proj) * box.min_len
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        best_pos = end
                        best_op = _REP

            # ins on T: split the remaining segment at the point closest to
            # box j-1 and consume the box against the first piece (the box
            # analogue of the projection insert).
            if j > 0:
                c = row_cost[j - 1]
                if c < inf:
                    cur = row_pos[j - 1]
                    box = boxes[j - 1]
                    if i < n:
                        q, _ = box.project_on_segment(cur, pts[i + 1])
                    else:
                        q = cur
                    incr = piece_cost(cur, q, box) + (
                        2.0 * box.dist_point(q) * box.min_len
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        best_pos = q
                        best_op = _INS_T

            # ins on B: consume the segment piece against the *current*
            # (still unconsumed) box.
            c = cost[i - 1][j]
            if c < inf:
                cur = pos[i - 1][j]
                box = boxes[j] if j < m else boxes[m - 1]
                end = pts[i]
                incr = piece_cost(cur, end, box)
                total = c + incr
                if total < best:
                    best = total
                    best_pos = end
                    best_op = _INS_B

            row_cost[j] = best
            row_pos[j] = best_pos
            parents[i][j] = best_op

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
    boxes = seq.boxes
    n = len(pts) - 1
    m = len(boxes)
    cost, parents, pos = _box_dp(pts, boxes)
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
