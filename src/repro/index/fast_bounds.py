"""NumPy-vectorized box-sequence bound kernels — the index ``"numpy"`` backend.

This module reimplements the box-generalized EDwPsub DP of
:func:`repro.index.tboxseq._box_dp` over preallocated geometry arrays, the
same way :mod:`repro.core.edwp_fast` reimplements the trajectory-level DP
(see DESIGN.md, "Index bound kernels").  Two ideas stack:

Anti-diagonal vectorization
    The recurrence at cell ``(i, j)`` (``i`` trajectory segments, ``j``
    boxes consumed) reads ``(i-1, j-1)``, ``(i, j-1)`` and ``(i-1, j)``,
    so cells on one anti-diagonal ``i + j = d`` are mutually independent
    and are swept in a single vectorized step from the two preceding
    diagonals.

Lockstep batching over box sequences
    One query is bounded against *many* nodes' box sequences at once:
    every diagonal buffer carries a leading batch axis, amortizing the
    per-diagonal numpy dispatch over the whole batch.  This is exactly the
    hot shape of Alg. 2: when TrajTree dequeues a node, the bounds of all
    surviving children are needed together, and sequentially they dominate
    query time (each pure-Python bound is an ``O(|Q| * max_boxes)`` DP
    whose every cell runs a ten-candidate projection scan).

Variable-length batches are exact, not approximate.  Box sequences shorter
than the widest in the batch are right-padded by *repeating their final
box*; transitions only move the box index forward, so cells within a
sequence's extent never read a padded column — with one deliberate
exception: the ins-on-B transition into column ``j == m`` reads ``box[j]``,
which the reference clamps to ``box[m - 1]``, and the repeated-final-box
padding reproduces that clamp bit-for-bit.  Per-sequence answers are read
as the minimum over that sequence's own columns ``0..m`` of the last row.

Numerical contract
------------------
The kernel mirrors the reference DP operation-for-operation: the same
additions and multiplications in the same association order, ``np.hypot``
for ``math.hypot``, the reference's exact candidate order in the
rectangle-on-segment projection with first-minimum selection (equivalent
to the reference's ordered strict-``<`` scan and its early exit at
distance zero), and the same strict-``<`` transition priority (``rep``,
then ``ins`` on T, then ``ins`` on B).  Results match the pure-Python
``_box_dp`` to float tolerance (asserted ``< 1e-9`` by
``tests/test_fast_bounds.py``), so the Theorem-2 soundness argument of
:mod:`repro.index.tboxseq` carries over unchanged.

Box geometry enters as :class:`BoxGeometry` — five aligned float64 arrays
(``xmin``/``ymin``/``xmax``/``ymax``/``min_len``) that
:meth:`repro.index.tboxseq.TBoxSeq.geometry` caches per instance, so
repeated bounds against the same node (every query!) pay the
object-to-array conversion once.

This module is self-contained (numpy + the core coordinate cache);
:data:`KERNELS` declares what :func:`repro.index.tboxseq.edwp_sub_box` /
:func:`repro.index.tboxseq.edwp_sub_box_many` run when the ``"numpy"``
backend is active, and the pure-Python DP remains the reference oracle.

Interaction with query budgets (:mod:`repro.index.budget`): budget
accounting happens one level up, in TrajTree, *before* a batch is handed
to these kernels — a ``max_bounds`` allowance clamps the batch to a prefix
of the surviving children and the remainder are enqueued on their cheap
union-rectangle bounds instead.  The kernels therefore never see a
partially-charged batch, and the internal ``BATCH_CHUNK`` splitting below
is purely a memory-shape concern with no budget semantics.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.edwp_fast import trajectory_complex

__all__ = [
    "BoxGeometry",
    "box_geometry",
    "box_dp_last_rows",
    "pack_geometries",
    "edwp_sub_box_numpy",
    "edwp_sub_box_many_numpy",
]

_INF = math.inf

#: Lockstep batch width for :func:`edwp_sub_box_many_numpy`.  Box sequences
#: are short by construction (``max_boxes``, default 12), so unlike the
#: trajectory kernels there is no length skew to sort away; the chunk only
#: caps buffer sizes when a caller bounds against very many nodes at once
#: (a search bounds one node's children per call, at most ``max_branching``).
#: Over 512 sequences, wider chunks measured no faster (DESIGN.md, "What a
#: sweep costs"), so the value is its own and stays.
BATCH_CHUNK = 64


class BoxGeometry:
    """A box sequence as five aligned ``(m,)`` float64 arrays.

    The array form of ``TBoxSeq.boxes`` that every vectorized kernel
    consumes: spatial extents plus the per-box ``minL`` feeding the
    generalized Coverage.  Instances are derived data — built once per
    ``TBoxSeq`` by :meth:`repro.index.tboxseq.TBoxSeq.geometry`, never
    pickled, and treated as read-only.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax", "min_len")

    def __init__(
        self,
        xmin: np.ndarray,
        ymin: np.ndarray,
        xmax: np.ndarray,
        ymax: np.ndarray,
        min_len: np.ndarray,
    ):
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax
        self.min_len = min_len

    def __len__(self) -> int:
        return self.xmin.shape[0]

    @property
    def areas(self) -> np.ndarray:
        """Per-box spatial areas (the Definition-5 volume summands)."""
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)


def box_geometry(boxes: Sequence) -> BoxGeometry:
    """Pack a sequence of :class:`~repro.index.stbox.STBox` into arrays."""
    arr = np.array(
        [(b.xmin, b.ymin, b.xmax, b.ymax, b.min_len) for b in boxes],
        dtype=np.float64,
    ).reshape(len(boxes), 5)
    return BoxGeometry(
        np.ascontiguousarray(arr[:, 0]),
        np.ascontiguousarray(arr[:, 1]),
        np.ascontiguousarray(arr[:, 2]),
        np.ascontiguousarray(arr[:, 3]),
        np.ascontiguousarray(arr[:, 4]),
    )


# ---------------------------------------------------------------------- #
# element-wise geometry (complex positions vs per-element rectangles)
# ---------------------------------------------------------------------- #


def _rect_dist(p: np.ndarray, xmin, ymin, xmax, ymax) -> np.ndarray:
    """``dist(p, box)`` element-wise; ``p`` complex, boxes as 4 arrays.

    ``|px - clip(px)|`` equals the reference's
    ``max(xmin - px, px - xmax, 0)`` exactly (the same single float
    subtraction survives on either side of the box, and 0 inside), and
    ``np.hypot`` returns the other leg exactly when one leg is zero, so
    this equals the reference ``point_rect_distance`` bit-for-bit.
    """
    px = p.real
    py = p.imag
    dx = np.abs(px - np.clip(px, xmin, xmax))
    dy = np.abs(py - np.clip(py, ymin, ymax))
    return np.hypot(dx, dy)


#: Distances below this square into the subnormal range (or to 0), where
#: :func:`_project_on_segments`'s squared-distance ordering loses meaning.
_SQUARE_UNDERFLOW = math.sqrt(np.finfo(np.float64).tiny)

#: The reference's three midpoint-rule fractions.
_PIECE_FRACTIONS = np.array([1.0 / 6.0, 0.5, 5.0 / 6.0])


def _projection_scratch() -> dict:
    """Reusable buffer set for :func:`_project_on_segments`.

    One DP sweep calls the projection once per diagonal with (mostly) one
    shape, so reusing five ``(10, ...)`` candidate buffers avoids both the
    allocations and the page-touch traffic that otherwise dominate the
    kernel (the candidate block is the largest data the sweep touches).
    """
    return {"shape": None}


def _project_on_segments(
    a: np.ndarray,
    b: np.ndarray,
    xmin,
    ymin,
    xmax,
    ymax,
    scratch: Optional[dict] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``project_rect_on_segment``: ``(q, dist(q, box))`` per cell.

    Candidates are evaluated in the reference's exact order; candidates
    the reference *skips* (line crossings with a zero delta, corner
    projections of a degenerate segment) are replaced by ``t = 0`` — a
    duplicate of candidate 0, which can never win the first-minimum race
    ahead of the genuine candidate 0.  ``np.argmin``'s first-occurrence
    rule then reproduces the reference's ordered strict-``<`` scan,
    including its early exit at distance zero (both select the *first*
    zero-distance candidate).

    Candidates are *selected* by squared distance — float-monotone in
    each leg, so it orders candidates exactly like the reference's hypot
    comparison except on sub-ulp near-ties between geometrically distinct
    candidates (bitwise ties, e.g. clamped duplicates, still resolve to
    the first candidate either way) — with the cells whose winning square
    underflowed re-selected on the hypot key itself.  The *returned*
    distance is the reference's hypot, evaluated only for the winner.

    Shapes broadcast: the DP sweep stacks its two projection problems
    (``rep`` and ``ins`` on T) along a leading axis and passes the box
    arrays un-stacked.  ``scratch`` (from :func:`_projection_scratch`)
    carries the candidate buffers across calls of one sweep.
    """
    d = b - a
    ax = a.real
    ay = a.imag
    dx = d.real
    dy = d.imag
    shape = np.broadcast_shapes(ax.shape, np.shape(xmin))
    full = (10,) + shape
    if scratch is None:
        scratch = {"shape": None}
    if scratch["shape"] != full:
        scratch["shape"] = full
        for key in ("ts", "qx", "qy", "s1", "s2"):
            scratch[key] = np.empty(full)
    ts = scratch["ts"]
    qx = scratch["qx"]
    qy = scratch["qy"]
    s1 = scratch["s1"]
    s2 = scratch["s2"]

    # Sides once, reused by the line-crossing and the corner candidates.
    ex0 = xmin - ax
    ex1 = xmax - ax
    ey0 = ymin - ay
    ey1 = ymax - ay
    # Zero-free divisors: where a delta (or the squared norm) vanishes the
    # divisor becomes inf, so the quotient is an exact 0.0 — candidate 0.
    div_x = np.where(dx != 0.0, dx, np.inf)
    div_y = np.where(dy != 0.0, dy, np.inf)
    norm_sq = dx * dx + dy * dy
    safe = np.where(norm_sq > 0.0, norm_sq, np.inf)

    ts[0] = 0.0
    ts[1] = 1.0
    # A subnormal delta overflows the quotient to +-inf, which the clip
    # below clamps exactly like the reference's float division does.
    with np.errstate(over="ignore"):
        np.divide(ex0, div_x, out=ts[2])
        np.divide(ex1, div_x, out=ts[3])
        np.divide(ey0, div_y, out=ts[4])
        np.divide(ey1, div_y, out=ts[5])
        np.divide(ex0 * dx + ey0 * dy, safe, out=ts[6])
        np.divide(ex0 * dx + ey1 * dy, safe, out=ts[7])
        np.divide(ex1 * dx + ey0 * dy, safe, out=ts[8])
        np.divide(ex1 * dx + ey1 * dy, safe, out=ts[9])
    np.clip(ts, 0.0, 1.0, out=ts)

    # In-place candidate geometry: qx/qy become the (signed) clamp
    # residuals ddx/ddy, s1/s2 their squares folded into d².
    np.multiply(ts, dx, out=qx)
    qx += ax
    np.multiply(ts, dy, out=qy)
    qy += ay
    np.clip(qx, xmin, xmax, out=s1)
    np.subtract(qx, s1, out=qx)
    np.clip(qy, ymin, ymax, out=s2)
    np.subtract(qy, s2, out=qy)
    np.multiply(qx, qx, out=s1)
    np.multiply(qy, qy, out=s2)
    s1 += s2

    rx = qx.reshape(10, -1)
    ry = qy.reshape(10, -1)
    sel = np.argmin(s1.reshape(10, -1), axis=0)
    pick = np.arange(sel.shape[0])
    d_best = np.hypot(rx[sel, pick], ry[sel, pick])
    # A winner this close to the box (but not touching it) had a squared
    # distance below the normal float range: candidates there tie at a
    # rounded-off square, or vanish to 0 and pass for touching ones, so
    # first-minimum can pick a macroscopically different split point.
    # Redo the selection for exactly those cells on the reference's hypot
    # key.  (A zero winner is safe: it is the first zero square, hence
    # also the first candidate that genuinely touches.)
    under = np.flatnonzero((d_best > 0.0) & (d_best < _SQUARE_UNDERFLOW))
    if under.size:
        exact = np.hypot(rx[:, under], ry[:, under])
        sel[under] = np.argmin(exact, axis=0)
        d_best[under] = exact.min(axis=0)
    t_best = ts.reshape(10, -1)[sel, pick].reshape(shape)
    q = (ax + dx * t_best) + 1j * (ay + dy * t_best)
    return q, d_best.reshape(shape)


def _piece_cost(cur: np.ndarray, end: np.ndarray, xmin, ymin, xmax, ymax):
    """``2 * ∫ d_box`` over the piece by the reference's 3-point midpoint
    rule, element-wise (same evaluation points, same summation order —
    ``np.add.reduce`` associates left like the reference's accumulator)."""
    delta = end - cur
    length = np.abs(delta)
    fracs = _PIECE_FRACTIONS.reshape((3,) + (1,) * cur.ndim)
    mids = cur[None] + delta[None] * fracs
    dists = _rect_dist(mids, xmin, ymin, xmax, ymax)
    acc = np.add.reduce(dists, axis=0)
    return 2.0 * length * (acc / 3.0)


# ---------------------------------------------------------------------- #
# the lockstep anti-diagonal DP
# ---------------------------------------------------------------------- #


def box_dp_last_rows(
    z: np.ndarray,
    geom_pad: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    free_start_row: bool = True,
) -> np.ndarray:
    """Lockstep DP of one trajectory against a batch of box sequences.

    Parameters
    ----------
    z:
        ``(n + 1,)`` complex query points, ``n >= 1`` segments.
    geom_pad:
        Five ``(B, W)`` arrays ``(xmin, ymin, xmax, ymax, min_len)``
        packed by :func:`pack_geometries`: column 0 is a sentinel only
        ever read by transitions whose predecessor cost is the ``inf``
        sentinel, columns ``1..m_b`` hold sequence ``b``'s boxes, and the
        remaining columns repeat the final box (exact, see module
        docstring).  ``W = m_max + 2``.
    free_start_row:
        Make every cell ``(0, j)`` free — the Theorem-2 bound's
        free-start pass.  Off for the anchored (PrefixDist-style) pass.

    Returns
    -------
    ``(B, m_max + 1)`` array: the DP's last row ``cost[n][0..m_max]`` per
    sequence.  For a sequence with ``m`` boxes only columns ``0..m`` are
    meaningful; ``row[:m + 1].min()`` is the bound for that pass.
    """
    n = z.shape[0] - 1
    xmin, ymin, xmax, ymax, min_len = geom_pad
    batch, W = xmin.shape
    m = W - 2

    # Padded diagonal buffers: cell i lives at column i + 1; sentinel
    # columns at both ends keep cost inf with a finite dummy position, so
    # invalid transitions lose every strict-< race.  Three buffer sets
    # rotate through diagonals d-2, d-1, d.
    width = n + 3
    cost_p2 = np.full((batch, width), _INF)
    pos_p2 = np.zeros((batch, width), dtype=np.complex128)
    cost_p1 = np.full((batch, width), _INF)
    pos_p1 = np.zeros((batch, width), dtype=np.complex128)
    cost_d = np.full((batch, width), _INF)
    pos_d = np.zeros((batch, width), dtype=np.complex128)

    cost_p1[:, 1] = 0.0
    pos_p1[:, 1] = z[0]

    # pts[i + 1] with the final point repeated: row n's carried position is
    # always exactly pts[n] (every arrival there either places it on the
    # final sample or inherits it), so the repeated "remaining segment" is
    # zero-length and the projection degenerates to "stay in place" — the
    # reference's exhausted-trajectory rule for the ins-on-T transition.
    z_next = np.concatenate([z[1:], z[-1:]])

    # Box columns are consumed in *descending* padded-column order along a
    # diagonal's i-ascending cells; flipping the geometry once turns every
    # per-diagonal slice into a contiguous ascending view.
    fx0 = xmin[:, ::-1].copy()
    fy0 = ymin[:, ::-1].copy()
    fx1 = xmax[:, ::-1].copy()
    fy1 = ymax[:, ::-1].copy()
    fml = min_len[:, ::-1].copy()

    # Pre-stacked geometry for the fused three-way piece cost: lanes 0/1
    # (rep, ins on T) read box j-1, lane 2 (ins on B) the one-column-lower
    # box j.  Aligning lane 2 by trimming the *other* edge makes every
    # per-diagonal (3, B, C) geometry block a single strided view.
    gx0 = np.stack([fx0[:, 1:], fx0[:, 1:], fx0[:, :-1]])
    gy0 = np.stack([fy0[:, 1:], fy0[:, 1:], fy0[:, :-1]])
    gx1 = np.stack([fx1[:, 1:], fx1[:, 1:], fx1[:, :-1]])
    gy1 = np.stack([fy1[:, 1:], fy1[:, 1:], fy1[:, :-1]])

    last_rows = np.full((batch, m + 1), _INF)
    proj_scratch = _projection_scratch()

    for d in range(1, n + m + 1):
        lo = d - m if d > m else 0
        hi = n if d > n else d
        cells = slice(lo + 1, hi + 2)       # padded columns of cells (i, d-i)
        preds = slice(lo, hi + 1)           # same cells shifted to i-1

        end = z[lo:hi + 1][None, :]         # pts[i] per cell, i ascending
        nxt = z_next[lo:hi + 1][None, :]    # pts[i+1] (repeat past the end)

        # Geometry slices per cell in i-ascending order: box j-1 =
        # boxes[d-i-1] sits at padded column d-i (flipped: W-1-d+i), box j
        # at d-i+1 (flipped: W-2-d+i).
        sl_cur = slice(W - 1 - d + lo, W - d + hi)
        sl_nxt = slice(W - 2 - d + lo, W - 1 - d + hi)
        bx0 = fx0[:, sl_cur]
        by0 = fy0[:, sl_cur]
        bx1 = fx1[:, sl_cur]
        by1 = fy1[:, sl_cur]
        bml = fml[:, sl_cur]

        # Written in place; `best` is a view into the committed cost buffer
        # and candidates fold in with np.minimum, which keeps the earlier
        # candidate on ties — the reference's strict-< priority (rep, then
        # ins on T, then ins on B).
        cost_d.fill(_INF)       # pos_d keeps stale finite values: cells
        best = cost_d[:, cells]  # outside `cells` stay inf and never win
        best_pos = pos_d[:, cells]

        # All three transitions stack along one leading axis: the rep and
        # ins-on-T projections share the box j-1 geometry, and all three
        # piece costs (rep and ins-on-B against their consumed piece,
        # ins-on-T against the split point) evaluate in a single fused
        # call — one set of kernel invocations per diagonal instead of
        # three.
        a3 = np.stack([pos_p2[:, preds], pos_p1[:, cells],
                       pos_p1[:, preds]])
        b2v = np.empty_like(a3[:2])
        b2v[0] = end
        b2v[1] = nxt
        q2, d2 = _project_on_segments(a3[:2], b2v, bx0, by0, bx1, by1,
                                      scratch=proj_scratch)
        q_ins = q2[1]

        b3 = np.empty_like(a3)
        b3[0] = end
        b3[1] = q_ins
        b3[2] = end
        pc3 = _piece_cost(
            a3, b3,
            gx0[:, :, sl_nxt], gy0[:, :, sl_nxt],
            gx1[:, :, sl_nxt], gy1[:, :, sl_nxt],
        )
        coverage2 = 2.0 * d2 * bml

        # --- rep: consume piece [cur, pts[i]] and box j-1, from (i-1, j-1).
        best[...] = cost_p2[:, preds] + (pc3[0] + coverage2[0])
        best_pos[...] = end

        # --- ins on T: split the remaining segment at the point closest to
        # box j-1 and consume the box, from (i, j-1) on diagonal d-1.
        total = cost_p1[:, cells] + (pc3[1] + coverage2[1])
        take = total < best
        np.copyto(best_pos, q_ins, where=take)
        np.minimum(best, total, out=best)

        # --- ins on B: consume the piece against the current (still
        # unconsumed) box j, from (i-1, j) on diagonal d-1.  The padded
        # geometry realizes the reference's boxes[min(j, m-1)] clamp.
        total = cost_p1[:, preds] + pc3[2]
        take = total < best
        np.copyto(best_pos, end, where=take)
        np.minimum(best, total, out=best)

        # --- commit the diagonal ---------------------------------------- #
        if free_start_row and lo == 0:      # cell (0, d) is free
            cost_d[:, 1] = 0.0
            pos_d[:, 1] = z[0]
        if hi == n:
            last_rows[:, d - n] = cost_d[:, n + 1]

        cost_p2, pos_p2, cost_p1, pos_p1, cost_d, pos_d = (
            cost_p1, pos_p1, cost_d, pos_d, cost_p2, pos_p2,
        )

    return last_rows


def pack_geometries(
    geoms: Sequence[BoxGeometry],
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """Pack per-sequence geometry into padded ``(B, W)`` matrices.

    Returns ``(arrays, box_counts)`` with ``arrays`` in the
    :func:`box_dp_last_rows` layout: sentinel column 0, the real boxes at
    columns ``1..m_b``, the final box repeated through column ``W - 1``.
    """
    counts = np.array([len(g) for g in geoms])
    W = int(counts.max()) + 2
    packed = []
    for field in ("xmin", "ymin", "xmax", "ymax", "min_len"):
        mat = np.empty((len(geoms), W), dtype=np.float64)
        for row, g in enumerate(geoms):
            vals = getattr(g, field)
            mat[row, 0] = vals[0]
            mat[row, 1:len(g) + 1] = vals
            mat[row, len(g) + 1:] = vals[-1]
        packed.append(mat)
    return tuple(packed), counts


def _masked_min(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-sequence minimum over its own in-extent columns ``0..m_b``."""
    cols = np.arange(rows.shape[1])
    return np.where(cols[None, :] <= counts[:, None], rows, _INF).min(axis=1)


def edwp_sub_box_many_numpy(
    traj, geoms: Sequence[BoxGeometry], thorough: bool = False
) -> List[float]:
    """Theorem-2 bounds of one trajectory against many box sequences.

    Callers guarantee ``traj`` has at least one segment.  Returns one
    bound per geometry, in order, each equal to the reference
    :func:`repro.index.tboxseq.edwp_sub_box` to float tolerance.
    """
    out = [0.0] * len(geoms)
    if not geoms:
        return out
    z = trajectory_complex(traj)
    order = sorted(range(len(geoms)), key=lambda i: len(geoms[i]))
    for start in range(0, len(order), BATCH_CHUNK):
        chunk = order[start:start + BATCH_CHUNK]
        packed, counts = pack_geometries([geoms[i] for i in chunk])
        values = _masked_min(box_dp_last_rows(z, packed), counts)
        if thorough:
            anchored = _masked_min(
                box_dp_last_rows(z, packed, free_start_row=False), counts
            )
            values = np.minimum(values, anchored)
        for i, value in zip(chunk, values):
            out[i] = float(value)
    return out


def edwp_sub_box_numpy(traj, geom: BoxGeometry, thorough: bool = False) -> float:
    """Single-sequence entry point (a batch of one)."""
    return edwp_sub_box_many_numpy(traj, [geom], thorough=thorough)[0]


#: The numpy tier's kernel per op (:func:`repro.core.backend.tier_kernel`),
#: called as ``kernel(traj, geometry_or_geometries, thorough=...)`` with a
#: trajectory of at least one segment.
KERNELS = {
    "edwp_sub_box": edwp_sub_box_numpy,
    "edwp_sub_box_many": edwp_sub_box_many_numpy,
}
