"""The construction DP :func:`repro.index.tboxseq._box_dp` replaced.

``_box_dp`` is kept here verbatim as it stood when every cell computed
its own piece costs and projections through the ``STBox`` methods: rep
``(i, j)`` and ins_B ``(i, j - 1)`` each integrated the same piece
against the same box, and ins_T ``(i - 1, j)`` projected box ``j - 1``
onto the segment rep ``(i, j)`` projects it onto.  It is the oracle
``tests/test_box_dp_oracle.py`` compares the DP against, cell for cell:
``(cost, parents, pos)`` must be equal, not close — compared through
:func:`hex_form`, so ``-0.0``, ``inf`` and NaN count too.
"""

import math
from typing import List, Sequence, Tuple

from repro.core.geometry import Point, point_distance
from repro.index.stbox import STBox
from repro.index.tboxseq import _INS_B, _INS_T, _REP, _SKIP


def hex_form(out):
    """A box DP's ``(cost, parents, pos)`` with every float as its hex
    string."""
    cost, parents, pos = out
    return ([[c.hex() for c in row] for row in cost], parents,
            [[(x.hex(), y.hex()) for x, y in row] for row in pos])


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
