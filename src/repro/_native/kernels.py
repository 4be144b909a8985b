"""The compiled DP kernels — scalar loops under ``@njit(cache=True)``.

Only what :class:`~repro.index.trajtree.TrajTree` runs is compiled: the
EDwP family and the Theorem-2 box bound.  The Table-I comparators have no
kernel here; ``backend="native"`` runs their numpy kernels (DESIGN.md,
"Native kernel tier").

Every kernel is an operation-for-operation port of its pure-Python
reference (the same additions and multiplications in the same association
order, the same strict-``<`` tie-breaking, the same candidate order in the
rectangle projection scan), so the numerical contract of the ``"numpy"``
tier (DESIGN.md) carries over: agreement with the ``"python"`` oracle to
float tolerance.  The only licensed deviation is ``math.hypot`` — CPython computes it with its own
correctly-rounded algorithm while compiled code calls libm's, which may
differ in the last ulps; the cross-backend tests therefore compare at
``1e-9`` relative, same as the numpy tier.

Kernels take plain ``(n, 2)`` float64 C-contiguous coordinate arrays
(:meth:`repro.core.trajectory.Trajectory.coords` caches exactly that) and,
for the batched drivers, one concatenated point array plus an ``int64``
offset vector — ragged batches are exact, with no padding.  Each kernel is
monomorphic: one argument-type signature per kernel, so one compilation,
persisted across processes by numba's on-disk cache.

When numba is not installed the ``njit`` decorator below degrades to an
identity wrapper and the kernels run as ordinary Python.  That keeps this
module importable everywhere and lets the differential suite pin the
kernel *logic* against the reference DPs even on numba-less machines;
the dispatch layer never routes to them un-jitted (selecting
``backend="native"`` without numba raises the typed unavailable error).

Base cases (empty / segment-less trajectories) are handled python-side by
:mod:`repro._native.api`; every kernel here may assume at least one point
and one segment per trajectory.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit

    NUMBA = True
except ImportError:  # pragma: no cover - exercised via the fallback tests
    NUMBA = False

    def njit(*args, **kwargs):
        """Identity decorator standing in for numba's when it is absent."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


__all__ = [
    "NUMBA",
    "edwp_last_row",
    "edwp_value",
    "edwp_sub_value",
    "prefix_dist_value",
    "edwp_many_kernel",
    "edwp_sub_many_kernel",
    "edwp_sub_fast_queries_kernel",
    "box_dp_min",
    "box_sub_value",
    "box_many_kernel",
]


# ---------------------------------------------------------------------- #
# geometry primitives (ports of repro.core.geometry)
# ---------------------------------------------------------------------- #


@njit(cache=True)
def _project_on_segment(ax, ay, bx, by, sx, sy):
    """Projection of point ``s`` onto segment ``[a, b]`` (closest point)."""
    dx = bx - ax
    dy = by - ay
    norm_sq = dx * dx + dy * dy
    if norm_sq <= 0.0:
        return ax, ay
    t = ((sx - ax) * dx + (sy - ay) * dy) / norm_sq
    if t <= 0.0:
        return ax, ay
    if t >= 1.0:
        return bx, by
    return ax + t * dx, ay + t * dy


@njit(cache=True)
def _rect_dist(px, py, xmin, ymin, xmax, ymax):
    """Distance from a point to an axis-aligned rectangle (0 if inside)."""
    dx = 0.0
    if px < xmin:
        dx = xmin - px
    elif px > xmax:
        dx = px - xmax
    dy = 0.0
    if py < ymin:
        dy = ymin - py
    elif py > ymax:
        dy = py - ymax
    if dx == 0.0:
        return dy
    if dy == 0.0:
        return dx
    return math.hypot(dx, dy)


@njit(cache=True)
def _rect_project_on_segment(ax, ay, bx, by, xmin, ymin, xmax, ymax):
    """Point of segment ``[a, b]`` closest to the rectangle — exactly.

    The reference's ten-candidate scan (endpoints, the four supporting-line
    crossings, the four corner projections) in the reference's candidate
    order, with the same clamp, strict-``<`` selection and early exit at
    distance zero.
    """
    # builtin-float casts: a no-op under numba, but un-jitted they keep the
    # near-degenerate divisions below on python-float semantics (silent inf,
    # as in the reference) instead of np.float64 overflow warnings
    ax = float(ax)
    ay = float(ay)
    bx = float(bx)
    by = float(by)
    xmin = float(xmin)
    ymin = float(ymin)
    xmax = float(xmax)
    ymax = float(ymax)
    dx = bx - ax
    dy = by - ay
    cand = np.empty(10)
    k = 0
    cand[k] = 0.0
    k += 1
    cand[k] = 1.0
    k += 1
    if dx != 0.0:
        cand[k] = (xmin - ax) / dx
        k += 1
        cand[k] = (xmax - ax) / dx
        k += 1
    if dy != 0.0:
        cand[k] = (ymin - ay) / dy
        k += 1
        cand[k] = (ymax - ay) / dy
        k += 1
    norm_sq = dx * dx + dy * dy
    if norm_sq > 0.0:
        cand[k] = ((xmin - ax) * dx + (ymin - ay) * dy) / norm_sq
        k += 1
        cand[k] = ((xmin - ax) * dx + (ymax - ay) * dy) / norm_sq
        k += 1
        cand[k] = ((xmax - ax) * dx + (ymin - ay) * dy) / norm_sq
        k += 1
        cand[k] = ((xmax - ax) * dx + (ymax - ay) * dy) / norm_sq
        k += 1
    best_t = 0.0
    best_d = math.inf
    for idx in range(k):
        t = cand[idx]
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        d = _rect_dist(ax + dx * t, ay + dy * t, xmin, ymin, xmax, ymax)
        if d < best_d:
            best_d = d
            best_t = t
            if d == 0.0:
                break
    return ax + dx * best_t, ay + dy * best_t


# ---------------------------------------------------------------------- #
# the EDwP family (ports of repro.core.edwp._edwp_dp)
# ---------------------------------------------------------------------- #


@njit(cache=True)
def edwp_last_row(p1, p2, free_start_row):
    """Last cost row of the EDwP cell DP over rolling rows.

    Same recurrence as :func:`repro.core.edwp._edwp_dp` (rep / ins-on-T1 /
    ins-on-T2, strict-``<`` priority), with each cell carrying the current
    position on both trajectories; only two rows are live at a time and the
    position matrices are never materialized (values only, no backtrack —
    alignment recovery stays on the python backend).
    """
    n1 = p1.shape[0] - 1
    n2 = p2.shape[0] - 1
    cols = n2 + 1
    inf = math.inf

    prev_cost = np.empty(cols)
    prev_1x = np.empty(cols)
    prev_1y = np.empty(cols)
    prev_2x = np.empty(cols)
    prev_2y = np.empty(cols)
    cur_cost = np.empty(cols)
    cur_1x = np.empty(cols)
    cur_1y = np.empty(cols)
    cur_2x = np.empty(cols)
    cur_2y = np.empty(cols)

    for i in range(n1 + 1):
        for j in range(cols):
            cur_cost[j] = inf
            cur_1x[j] = 0.0
            cur_1y[j] = 0.0
            cur_2x[j] = 0.0
            cur_2y[j] = 0.0
        if i == 0:
            if free_start_row:
                for j in range(cols):
                    cur_cost[j] = 0.0
                    cur_1x[j] = p1[0, 0]
                    cur_1y[j] = p1[0, 1]
                    cur_2x[j] = p2[j, 0]
                    cur_2y[j] = p2[j, 1]
            else:
                cur_cost[0] = 0.0
                cur_1x[0] = p1[0, 0]
                cur_1y[0] = p1[0, 1]
                cur_2x[0] = p2[0, 0]
                cur_2y[0] = p2[0, 1]
        for j in range(cols):
            if i == 0 and (j == 0 or free_start_row):
                continue
            best = inf
            b1x = 0.0
            b1y = 0.0
            b2x = 0.0
            b2y = 0.0

            # rep: from (i-1, j-1) — replace both current segments wholesale.
            if i > 0 and j > 0:
                c = prev_cost[j - 1]
                if c < inf:
                    a1x = prev_1x[j - 1]
                    a1y = prev_1y[j - 1]
                    a2x = prev_2x[j - 1]
                    a2y = prev_2y[j - 1]
                    e1x = p1[i, 0]
                    e1y = p1[i, 1]
                    e2x = p2[j, 0]
                    e2y = p2[j, 1]
                    incr = (
                        math.hypot(a1x - a2x, a1y - a2y)
                        + math.hypot(e1x - e2x, e1y - e2y)
                    ) * (
                        math.hypot(a1x - e1x, a1y - e1y)
                        + math.hypot(a2x - e2x, a2y - e2y)
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        b1x = e1x
                        b1y = e1y
                        b2x = e2x
                        b2y = e2y

            # ins on T1: from (i, j-1) — T2 advances to P2[j]; T1 advances
            # to the projection of P2[j] on its remaining segment.
            if j > 0:
                c = cur_cost[j - 1]
                if c < inf:
                    a1x = cur_1x[j - 1]
                    a1y = cur_1y[j - 1]
                    a2x = cur_2x[j - 1]
                    a2y = cur_2y[j - 1]
                    e2x = p2[j, 0]
                    e2y = p2[j, 1]
                    if i < n1:
                        qx, qy = _project_on_segment(
                            a1x, a1y, p1[i + 1, 0], p1[i + 1, 1], e2x, e2y
                        )
                    else:
                        qx = a1x
                        qy = a1y
                    base = math.hypot(a1x - a2x, a1y - a2y)
                    incr = (base + math.hypot(qx - e2x, qy - e2y)) * (
                        math.hypot(a1x - qx, a1y - qy)
                        + math.hypot(a2x - e2x, a2y - e2y)
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        b1x = qx
                        b1y = qy
                        b2x = e2x
                        b2y = e2y

            # ins on T2: from (i-1, j) — symmetric.
            if i > 0:
                c = prev_cost[j]
                if c < inf:
                    a1x = prev_1x[j]
                    a1y = prev_1y[j]
                    a2x = prev_2x[j]
                    a2y = prev_2y[j]
                    e1x = p1[i, 0]
                    e1y = p1[i, 1]
                    if j < n2:
                        qx, qy = _project_on_segment(
                            a2x, a2y, p2[j + 1, 0], p2[j + 1, 1], e1x, e1y
                        )
                    else:
                        qx = a2x
                        qy = a2y
                    base = math.hypot(a1x - a2x, a1y - a2y)
                    incr = (base + math.hypot(e1x - qx, e1y - qy)) * (
                        math.hypot(a1x - e1x, a1y - e1y)
                        + math.hypot(a2x - qx, a2y - qy)
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        b1x = e1x
                        b1y = e1y
                        b2x = qx
                        b2y = qy

            cur_cost[j] = best
            cur_1x[j] = b1x
            cur_1y[j] = b1y
            cur_2x[j] = b2x
            cur_2y[j] = b2y

        prev_cost, cur_cost = cur_cost, prev_cost
        prev_1x, cur_1x = cur_1x, prev_1x
        prev_1y, cur_1y = cur_1y, prev_1y
        prev_2x, cur_2x = cur_2x, prev_2x
        prev_2y, cur_2y = cur_2y, prev_2y

    return prev_cost


@njit(cache=True)
def _row_min(row):
    best = math.inf
    for j in range(row.shape[0]):
        if row[j] < best:
            best = row[j]
    return best


@njit(cache=True)
def edwp_value(p1, p2):
    """EDwP distance: anchored DP, corner cell."""
    row = edwp_last_row(p1, p2, False)
    return row[row.shape[0] - 1]


@njit(cache=True)
def edwp_sub_value(p1, p2, thorough):
    """EDwPsub: min over the free-start last row; with ``thorough`` also
    the anchored pass (the two-pass :func:`repro.core.edwp_sub.edwp_sub`
    contract; single-pass is ``edwp_sub_fast``)."""
    value = _row_min(edwp_last_row(p1, p2, True))
    if thorough:
        anchored = _row_min(edwp_last_row(p1, p2, False))
        if anchored < value:
            value = anchored
    return value


@njit(cache=True)
def prefix_dist_value(p1, p2):
    """PrefixDist (Eq. 5): anchored DP, min over the last row."""
    return _row_min(edwp_last_row(p1, p2, False))


@njit(cache=True)
def edwp_many_kernel(q, pts, offs, out):
    """EDwP of one query against a ragged batch of targets."""
    for b in range(offs.shape[0] - 1):
        out[b] = edwp_value(q, pts[offs[b]:offs[b + 1]])


@njit(cache=True)
def edwp_sub_many_kernel(q, pts, offs, thorough, out):
    """EDwPsub of one query against a ragged batch of targets."""
    for b in range(offs.shape[0] - 1):
        out[b] = edwp_sub_value(q, pts[offs[b]:offs[b + 1]], thorough)


@njit(cache=True)
def edwp_sub_fast_queries_kernel(pts, offs, s, out):
    """Single-pass EDwPsub of a ragged batch of queries against one target."""
    for b in range(offs.shape[0] - 1):
        out[b] = _row_min(edwp_last_row(pts[offs[b]:offs[b + 1]], s, True))


# ---------------------------------------------------------------------- #
# the Theorem-2 box DP (port of repro.index.tboxseq._box_dp)
# ---------------------------------------------------------------------- #


@njit(cache=True)
def _box_piece_cost(cx, cy, ex, ey, xmin, ymin, xmax, ymax):
    """``2 * ∫ d_box`` over the piece, by the 3-point midpoint rule."""
    length = math.hypot(cx - ex, cy - ey)
    if length == 0.0:
        return 0.0
    dx = ex - cx
    dy = ey - cy
    acc = _rect_dist(cx + dx * (1.0 / 6.0), cy + dy * (1.0 / 6.0),
                     xmin, ymin, xmax, ymax)
    acc += _rect_dist(cx + dx * 0.5, cy + dy * 0.5, xmin, ymin, xmax, ymax)
    acc += _rect_dist(cx + dx * (5.0 / 6.0), cy + dy * (5.0 / 6.0),
                      xmin, ymin, xmax, ymax)
    return 2.0 * length * (acc / 3.0)


@njit(cache=True)
def box_dp_min(pts, bx0, by0, bx1, by1, bml, free_start_row):
    """Min over the last row of the box-generalized EDwPsub DP.

    Same recurrence and tie-breaking as
    :func:`repro.index.tboxseq._box_dp` (rep, then ins-on-T, then
    ins-on-B, strict ``<``), with the cell position (on the trajectory
    only) carried in rolling rows.
    """
    n = pts.shape[0] - 1
    m = bx0.shape[0]
    cols = m + 1
    inf = math.inf

    prev_cost = np.empty(cols)
    prev_x = np.empty(cols)
    prev_y = np.empty(cols)
    cur_cost = np.empty(cols)
    cur_x = np.empty(cols)
    cur_y = np.empty(cols)

    sx = pts[0, 0]
    sy = pts[0, 1]

    for i in range(n + 1):
        for j in range(cols):
            cur_cost[j] = inf
            cur_x[j] = 0.0
            cur_y[j] = 0.0
        if i == 0:
            if free_start_row:
                for j in range(cols):
                    cur_cost[j] = 0.0
                    cur_x[j] = sx
                    cur_y[j] = sy
            else:
                cur_cost[0] = 0.0
                cur_x[0] = sx
                cur_y[0] = sy
        for j in range(cols):
            if i == 0 and (free_start_row or j == 0):
                continue
            best = inf
            bpx = 0.0
            bpy = 0.0

            # rep: consume segment piece [cur, pts[i]] and box j-1.
            if i > 0 and j > 0:
                c = prev_cost[j - 1]
                if c < inf:
                    cx = prev_x[j - 1]
                    cy = prev_y[j - 1]
                    xmin = bx0[j - 1]
                    ymin = by0[j - 1]
                    xmax = bx1[j - 1]
                    ymax = by1[j - 1]
                    ex = pts[i, 0]
                    ey = pts[i, 1]
                    px, py = _rect_project_on_segment(
                        cx, cy, ex, ey, xmin, ymin, xmax, ymax
                    )
                    incr = _box_piece_cost(
                        cx, cy, ex, ey, xmin, ymin, xmax, ymax
                    ) + (
                        2.0 * _rect_dist(px, py, xmin, ymin, xmax, ymax)
                        * bml[j - 1]
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        bpx = ex
                        bpy = ey

            # ins on T: split the remaining segment at the point closest to
            # box j-1 and consume the box against the first piece.
            if j > 0:
                c = cur_cost[j - 1]
                if c < inf:
                    cx = cur_x[j - 1]
                    cy = cur_y[j - 1]
                    xmin = bx0[j - 1]
                    ymin = by0[j - 1]
                    xmax = bx1[j - 1]
                    ymax = by1[j - 1]
                    if i < n:
                        qx, qy = _rect_project_on_segment(
                            cx, cy, pts[i + 1, 0], pts[i + 1, 1],
                            xmin, ymin, xmax, ymax
                        )
                    else:
                        qx = cx
                        qy = cy
                    incr = _box_piece_cost(
                        cx, cy, qx, qy, xmin, ymin, xmax, ymax
                    ) + (
                        2.0 * _rect_dist(qx, qy, xmin, ymin, xmax, ymax)
                        * bml[j - 1]
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        bpx = qx
                        bpy = qy

            # ins on B: consume the segment piece against the *current*
            # (still unconsumed) box, clamped at the last one.
            if i > 0:
                c = prev_cost[j]
                if c < inf:
                    cx = prev_x[j]
                    cy = prev_y[j]
                    jb = j
                    if jb >= m:
                        jb = m - 1
                    ex = pts[i, 0]
                    ey = pts[i, 1]
                    incr = _box_piece_cost(
                        cx, cy, ex, ey, bx0[jb], by0[jb], bx1[jb], by1[jb]
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        bpx = ex
                        bpy = ey

            cur_cost[j] = best
            cur_x[j] = bpx
            cur_y[j] = bpy

        prev_cost, cur_cost = cur_cost, prev_cost
        prev_x, cur_x = cur_x, prev_x
        prev_y, cur_y = cur_y, prev_y

    return _row_min(prev_cost)


@njit(cache=True)
def box_sub_value(pts, bx0, by0, bx1, by1, bml, thorough):
    """Theorem-2 bound: free-start pass, plus the anchored pass when
    ``thorough`` (mirroring :func:`repro.index.tboxseq.edwp_sub_box`)."""
    value = box_dp_min(pts, bx0, by0, bx1, by1, bml, True)
    if thorough:
        anchored = box_dp_min(pts, bx0, by0, bx1, by1, bml, False)
        if anchored < value:
            value = anchored
    return value


@njit(cache=True)
def box_many_kernel(pts, gx0, gy0, gx1, gy1, gml, offs, thorough, out):
    """Bounds of one trajectory against a ragged batch of box sequences."""
    for b in range(offs.shape[0] - 1):
        s = offs[b]
        e = offs[b + 1]
        out[b] = box_sub_value(
            pts, gx0[s:e], gy0[s:e], gx1[s:e], gy1[s:e], gml[s:e], thorough
        )
