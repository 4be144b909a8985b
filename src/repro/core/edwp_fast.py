"""NumPy-vectorized EDwP kernels — the ``"numpy"`` backend.

This module reimplements the cell DP of :mod:`repro.core.edwp` over
preallocated coordinate arrays.  Two ideas stack:

Anti-diagonal vectorization
    The recurrence at cell ``(i, j)`` reads ``(i-1, j-1)``, ``(i, j-1)`` and
    ``(i-1, j)``, so cells on one anti-diagonal ``i + j = d`` are mutually
    independent and are computed in a single vectorized step from the two
    preceding diagonals.  The sweep runs ``|T1| + |T2|`` python iterations
    instead of ``|T1| * |T2|``.

Lockstep batching
    One query is matched against ``B`` trajectories *simultaneously*: every
    diagonal buffer carries a batch axis, so the fixed numpy dispatch cost
    per diagonal is amortized over the whole batch.  This is where the
    bulk of the speedup comes from (per-diagonal arrays are short, so
    single-pair vectorization is dominated by per-call overhead) and it is
    exactly the shape of the hot workloads: TrajTree leaf refinement,
    sequential-scan oracles, and the Fig. 5/6 benchmark sweeps.  The
    buffers are cell-major (the batch is the trailing, contiguous axis), so
    each numpy call on a diagonal runs one long inner loop rather than one
    short loop per row, and both insertion candidates are computed in one
    pass stacked on a leading axis of 2 (~50 calls per diagonal instead of
    ~75).  The fixed cost (~40 us per diagonal, whatever the batch holds)
    is what a caller pays per *sweep*, so there is one kernel,
    :func:`dp_sweep`, and every entry point runs it once per batch: rows
    leave a sweep at their own corner, both EDwPsub passes share one, and
    a batch is cut only at :data:`SWEEP_CELLS` (DESIGN.md, "What a sweep
    costs").

Variable-length batches are exact, not approximate.  Shorter trajectories
are padded by repeating their final point, and padding reproduces the
reference DP's behaviour bit-for-bit because of an invariant of the edit
grammar: when one side is consumed through its last segment, its carried
position *is exactly its final sample* (every arrival into the last
row/column either places the position on that sample or inherits it), so
the padded "next segment" is zero-length, the projection degenerates to
"stay in place", and the inserted transition costs exactly what the
reference's exhausted-side rule charges.  Per-pair answers are read off at
each pair's own corner cell; cells beyond a pair's extent compute garbage
that no in-extent cell ever reads (transitions only move forward).

Numerical contract
------------------
The kernel mirrors the reference DP operation-for-operation — the same
additions in the same order (up to ``|x - y| == |y - x|`` and the two
addends of one addition swapped, both exact), ``np.abs`` on complex128
(which is ``hypot(dx, dy)``) for ``math.hypot``, exact clamp-to-endpoint
projection rules, and the same strict-``<`` candidate priority (``rep``,
then ``ins`` on T1, then ``ins`` on T2) — so results match the
pure-Python backend to float tolerance everywhere, including degenerate
zero-length segments (see DESIGN.md, "Dual-backend EDwP kernels").
``tests/test_edwp_fast.py`` enforces this property, and
``tests/test_lockstep_sweeps.py`` holds the kernel byte-identical to the
ones it replaced.

Spatial points are packed as complex numbers (``x + yj``): ``np.abs`` of a
complex difference is the point distance, and one complex array halves the
number of numpy operations versus separate x/y arrays.

It needs numpy and ``TrajectoryBatch`` only; :data:`KERNELS` declares what
:func:`repro.core.edwp.edwp` and friends run when the ``"numpy"`` backend
is active, and the pure-Python DP remains the reference oracle.
"""

from __future__ import annotations

import math
from functools import partial
from typing import List, Sequence

import numpy as np

from .trajectory import TrajectoryBatch

__all__ = [
    "trajectory_complex",
    "dp_sweep",
    "edwp_numpy",
    "edwp_many_numpy",
    "edwp_sub_numpy",
    "edwp_sub_many_numpy",
    "edwp_sub_fast_numpy",
    "edwp_sub_fast_queries_numpy",
    "prefix_dist_numpy",
]

_INF = math.inf

#: Cells of one diagonal buffer (rows x first-side points) past which a
#: lockstep batch is cut into several sweeps.  A sweep costs a fixed ~40 us
#: per diagonal whatever it carries, so the cap sits where the buffers stop
#: being cache-resident, far above any refinement flush (DESIGN.md, "What a
#: sweep costs").
SWEEP_CELLS = 16384


def trajectory_complex(traj) -> np.ndarray:
    """The trajectory's spatial points as a cached ``(n,)`` complex128 array.

    Piggybacks on :meth:`repro.core.trajectory.Trajectory.coords`, which
    caches the contiguous ``(n, 2)`` float64 matrix on the instance, so
    repeated distance calls against the same trajectory (batch queries,
    index traversals) pay the conversion once.
    """
    coords = traj.coords()
    return coords.view(np.complex128)[:, 0]


def dp_sweep(
    Z1: np.ndarray,
    segs1: np.ndarray,
    Z2: np.ndarray,
    segs2: np.ndarray,
    free_every: int = 0,
) -> np.ndarray:
    """One lockstep anti-diagonal sweep over a batch of ``B`` pairs.

    The batch rides on one side and the other side is a single shared row:
    one query against many targets (refinement, scans) or many queries
    against one target (Alg. 1's pivot columns).  Broadcasting decides
    which; the diagonal body is the same.

    Parameters
    ----------
    Z1, Z2:
        ``(B, m1)`` / ``(B, m2)`` complex points of the first / second
        trajectory of every pair, one of them ``(1, m)`` when shared.  Rows
        shorter than ``m`` points are padded by repeating their final point
        (exact, see module docstring).  ``m1, m2 >= 2``.
    segs1, segs2:
        ``(B,)`` true segment counts per pair (each ``>= 1``), rows in
        ascending length order of the batched side.
    free_every:
        Every ``free_every``-th row, from row 0, gets the free start row —
        every cell ``(0, j)`` free, the EDwPsub mechanism of skipping any
        prefix of the second trajectory (Eq. 6).  ``0``: no row (anchored),
        ``1``: all, ``2``: each pair listed twice runs both passes of Eq. 6
        in this one sweep.

    Returns
    -------
    ``(B, n1 + n2 + 1)`` array, one column per diagonal: pair ``b``'s
    *own* last row ``cost[segs1[b]][0..segs2[b]]`` sits in columns
    ``segs1[b]..segs1[b] + segs2[b]`` (cell ``(i, j)`` is on diagonal
    ``i + j``), ``inf`` everywhere else.  Column ``segs1[b] + segs2[b]``
    is the plain EDwP distance, the row minimum is PrefixDist (anchored)
    or the one-pass EDwPsub (free start row).

    A pair's last readable cell lies on diagonal ``segs1[b] + segs2[b]``,
    so rows leave the sweep as it passes them: they are sorted, finished
    rows are a prefix, and every buffer is narrowed to the remaining
    suffix.  No kept row ever reads a dropped one (rows are independent),
    so values are those of sweeping every row to the end.
    """
    batch = segs1.shape[0]
    n1 = Z1.shape[1] - 1
    n2 = Z2.shape[1] - 1
    diagonals = np.arange(n1 + n2 + 1)
    # Rows finished before diagonal d / rows whose own last row (i ==
    # segs1[b]) the wavefront has reached by diagonal d.
    finished = np.searchsorted(segs1 + segs2, diagonals).tolist()
    reached = np.searchsorted(segs1, diagonals, side="right").tolist()

    # Cell-major: every array is (slots or points, rows), the batch
    # trailing, so a diagonal's cells are one contiguous block and finished
    # rows are trimmed off the trailing axis.  Z1[i] is P1[i]; Z2 is stored
    # reversed (Z2[n2 - j] is P2[j]) so that P2[d - i] is a forward slice.
    # "Next point" arrays repeat the final point: the segment past an
    # exhausted side is zero-length, which reproduces the reference's
    # stay-in-place rule exactly (the carried position at the boundary is
    # exactly the final sample, so the projection returns it unchanged).
    Z1 = np.ascontiguousarray(Z1.T)
    Z2 = np.ascontiguousarray(Z2.T[::-1])
    Z1_next = np.concatenate([Z1[1:], Z1[-1:]])
    Z2_next = np.concatenate([Z2[:1], Z2[:-1]])

    # Three buffer sets rotate through diagonals d-2, d-1, d.
    buffers = [_diagonal_buffers(n1 + 3, batch) for _ in range(3)]
    cost, pos = buffers[1][:2]
    cost[1] = 0.0
    pos[0, 1] = Z1[0]
    pos[1, 1] = Z2[n2]

    out = np.full((batch, n1 + n2 + 1), _INF)
    own = out
    row_idx = np.arange(batch)
    last_slots = segs1 + 1
    dropped = 0

    for d in range(1, n1 + n2 + 1):
        if finished[d] > dropped:
            drop = finished[d] - dropped
            dropped = finished[d]
            buffers = [[a[..., drop:] for a in b] for b in buffers]
            own, last_slots = own[drop:], last_slots[drop:]
            if Z1.shape[1] > 1:
                Z1, Z1_next = Z1[:, drop:], Z1_next[:, drop:]
            if Z2.shape[1] > 1:
                Z2, Z2_next = Z2[:, drop:], Z2_next[:, drop:]
        p2, p1, pd = buffers
        cost_p2, pos_p2 = p2[:2]
        ins_cost, ins_from, ins_other = p1[2:]
        cost_d, pos_d = pd[:2]

        lo = d - n2 if d > n2 else 0
        hi = n1 if d > n1 else d
        cells = slice(lo + 1, hi + 2)       # slots of cells (i, d-i)
        preds = slice(lo, hi + 1)           # same cells shifted to i-1
        mirror = slice(n2 - d + lo, n2 - d + hi + 1)    # Z2 of P2[d-i]

        # The points a cell moves to, stacked as the insertions read them:
        # new = [P2[d-i], P1[i]], nxt = [P1[i+1], P2[d-i+1]].
        new = np.empty((2, hi - lo + 1, batch - dropped), dtype=np.complex128)
        new[0] = Z2[mirror]
        new[1] = Z1[lo:hi + 1]
        nxt = np.empty_like(new)
        nxt[0] = Z1_next[lo:hi + 1]
        nxt[1] = Z2_next[mirror]
        b2, b1 = new

        # Written in place; `best` is a view into the committed cost buffer
        # and candidates fold in with np.minimum, which keeps the earlier
        # candidate on ties — the reference's strict-< priority (rep, then
        # ins on T1, then ins on T2).
        cost_d.fill(_INF)       # positions keep stale finite values: cells
        best = cost_d[cells]    # outside `cells` stay inf and never win
        best_pos = pos_d[:, cells]

        # --- rep: from (i-1, j-1) on diagonal d-2 ----------------------- #
        a = pos_p2[:, preds]
        apart = np.abs(a - new[::-1])               # |a1 - b1|, |a2 - b2|
        np.add(cost_p2[preds], (np.abs(a[0] - a[1]) + np.abs(b1 - b2))
               * (apart[0] + apart[1]), out=best)
        best_pos[...] = new[::-1]

        # --- both insertions, stacked: ins on T1 from (i, j-1), ins on T2
        # from (i-1, j), both on diagonal d-1.  The other side advances to
        # its new point p; the moving side from its origin o to the
        # projection q of p on its remaining segment (degenerate when
        # exhausted).  Cost (|o - o'| + |q - p|) * (|o - q| + |o' - p|) is
        # the reference's up to |x - y| = |y - x| and commuted addends.
        o = ins_from[:, preds]
        o2 = ins_other[:, preds]
        seg = nxt - o
        seg_c = seg.conj()
        norm_sq = (seg_c * seg).real                    # == |seg|^2 exactly
        t = (seg_c * (new - o)).real / (norm_sq + (norm_sq <= 0.0))
        np.maximum(t, 0.0, out=t)       # t == 0 gives o + 0*seg == o and
        t_hi = t >= 1.0                 # covers the norm_sq == 0 case too
        np.minimum(t, 1.0, out=t)
        q = o + t * seg
        q = np.where(t_hi, nxt, q)
        total = ins_cost[:, preds] + (
            np.abs(o - o2) + np.abs(q - new)
        ) * (np.abs(o - q) + np.abs(o2 - new))
        take = total[0] < best
        np.copyto(best_pos[0], q[0], where=take)
        np.minimum(best, total[0], out=best)
        take = total[1] < best
        np.copyto(best_pos[0], b1, where=take)
        np.copyto(best_pos[1], q[1], where=take)
        np.minimum(best, total[1], out=best)

        # --- commit the diagonal ---------------------------------------- #
        if free_every and lo == 0:          # cell (0, d) is free
            cost_d[1, ::free_every] = 0.0
            pos_d[0, 1, ::free_every] = Z1[0, ::free_every]
            pos_d[1, 1, ::free_every] = Z2[n2 - d, ::free_every]
        # Capture each pair's own last row as the wavefront crosses it:
        # of the rows still in the sweep, those with segs1[b] <= hi.
        hits = reached[d] - dropped
        if hits > 0:
            own[:hits, d] = cost_d[last_slots[:hits], row_idx[:hits]]

        buffers = buffers[1:] + buffers[:1]

    return out


def _diagonal_buffers(width: int, rows: int) -> list:
    """One diagonal's buffers, cell-major: cell ``i`` lives in slot
    ``i + 1`` of the leading axis, the batch is the trailing one.

    ``[cost, pos, ins_cost, ins_from, ins_other]``: ``cost`` is ``(width,
    rows)``, ``pos`` the ``(2, width, rows)`` positions on T1 and T2; the
    sentinel slots at both ends (and any cell not on the diagonal) keep
    cost inf with a finite dummy position, so invalid transitions lose
    every strict-< race.  The last three are read-only views stacking
    what the two insertions read from this diagonal on a leading axis of
    2, sliced ``[:, preds]``: ins on T1 reads cell ``i`` (slot ``i + 1``)
    and moves T1, ins on T2 reads cell ``i - 1`` (slot ``i``) and moves
    T2 — their costs, their origins and the other side's positions.
    """
    cost = np.full((width, rows), _INF)
    pos = np.zeros((2, width, rows), dtype=np.complex128)
    return [cost, pos, _stacked(cost, 1, -1),           # cost[i], cost[i-1]
            _stacked(pos, 1, width - 1),                # u[i], v[i-1]
            _stacked(pos, width + 1, -width - 1)]       # v[i], u[i-1]


def _stacked(buffer: np.ndarray, start: int, step: int) -> np.ndarray:
    """``np.stack`` of two slot ranges of a contiguous cell-major
    ``buffer`` without a copy: a read-only ``(2, width - 1, rows)`` view
    whose ``[k, c]`` is slot ``start + k * step + c``, counting the slots
    of a position buffer's two sides as one sequence.  (Built with the
    ``ndarray`` constructor: ``as_strided`` costs ~15x more per call, and
    a sweep builds nine.)"""
    slot = buffer.strides[-2]
    view = np.ndarray((2, buffer.shape[-2] - 1, buffer.shape[-1]),
                      buffer.dtype, buffer, start * slot,
                      (step * slot, slot, buffer.itemsize))
    view.flags.writeable = False
    return view


def _gather(points: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    """Packed rows as a padded ``(B, m)`` matrix plus segment counts: one
    gather whose column index stops at each row's final point."""
    cols = np.minimum(np.arange(counts.max()), counts[:, None] - 1)
    return points[starts[:, None] + cols], counts - 1


def _pack(points: Sequence[np.ndarray]):
    """:func:`_gather` over separate complex point arrays."""
    lens = np.array([z.shape[0] for z in points])
    return _gather(np.concatenate(points), np.cumsum(lens) - lens, lens)


def _last_rows(z1, Z2, segs2, free_every: int = 0) -> np.ndarray:
    """One sweep of the query ``z1`` against packed targets: per target,
    the query's last row over the target's own columns (``inf`` past)."""
    n1 = z1.shape[0] - 1
    segs1 = np.full(len(segs2), n1)
    return dp_sweep(z1[None, :], segs1, Z2, segs2, free_every)[:, n1:]


def _sub_row_min(z1, Z2, segs2) -> np.ndarray:
    """Two-pass EDwPsub (Eq. 6) per packed target, in one sweep.

    Every target is listed twice, row ``2b`` with the free start row and
    row ``2b + 1`` anchored; the value is the minimum over both last rows
    (the sweep leaves ``inf`` past each target's own columns).
    """
    rows = _last_rows(z1, np.repeat(Z2, 2, axis=0), np.repeat(segs2, 2),
                      free_every=2)
    return rows.min(axis=1).reshape(-1, 2).min(axis=1)


def _pair(t, s):
    """``(z1, Z2, segs2)`` of a single pair, as the sweeps take them."""
    z2 = trajectory_complex(s)
    return trajectory_complex(t), z2[None, :], np.array([z2.shape[0] - 1])


def edwp_numpy(t1, t2) -> float:
    """EDwP via the vectorized kernel.  Callers handle trivial base cases."""
    return float(_last_rows(*_pair(t1, t2))[0, -1])


def _lockstep_batches(
    trajectories: Sequence, fill: float, kernel, points: int, copies: int = 1
) -> List[float]:
    """Shared driver for the one-vs-many entry points.

    ``trajectories`` is packed on entry unless it is a ``TrajectoryBatch``.
    Items without segments keep ``fill`` (the caller's base case) and
    never enter a kernel; survivors are sorted by length (the order
    :func:`dp_sweep` drops finished rows in), gathered with
    repeated-final-point padding, and per-pair answers scattered back in
    input order.  ``kernel(Z, segs)`` returns one value per row.  A batch
    is cut only where a diagonal buffer — ``copies`` rows per item, over
    the ``points`` of the trajectories on the DP's first side — would pass
    :data:`SWEEP_CELLS`.
    """
    batch = TrajectoryBatch.of(trajectories)
    out = np.full(len(batch), fill)
    live = np.flatnonzero(batch.counts > 1)
    live = live[np.argsort(batch.counts[live], kind="stable")]
    rows = max(1, SWEEP_CELLS // ((points + 2) * copies))
    for start in range(0, len(live), rows):
        chunk = live[start:start + rows]
        out[chunk] = kernel(*_gather(batch.points, batch.starts[chunk],
                                     batch.counts[chunk]))
    return out.tolist()


def edwp_many_numpy(query, trajectories: Sequence) -> List[float]:
    """Raw EDwP of one query against many trajectories, lockstep-batched.

    Callers guarantee the query has >= 1 segment; targets without segments
    get ``inf`` (the recursion's base case) without entering the kernel.
    Targets run length-sorted, so each leaves the sweep at its own corner
    cell: a long outlier lengthens the sweep only for itself.
    """
    z1 = trajectory_complex(query)

    def corners(Z2, segs2):
        return _last_rows(z1, Z2, segs2)[np.arange(len(segs2)), segs2]

    return _lockstep_batches(trajectories, _INF, corners, len(z1))


def edwp_sub_many_numpy(query, trajectories: Sequence) -> List[float]:
    """Two-pass EDwPsub of one query against many targets, lockstep-batched.

    Callers guarantee the query has >= 1 segment; targets without segments
    get ``inf`` (the recursion's base case) without entering the kernel.
    Each pair's value is the minimum over its *own* last-row columns
    ``0..n2`` of both DP passes (:func:`_sub_row_min`) — padding exactness
    carries over because every cell ``(n1, j)`` with ``j <= n2`` only ever
    reads cells with smaller-or-equal column indices.
    """
    z1 = trajectory_complex(query)
    return _lockstep_batches(trajectories, _INF, partial(_sub_row_min, z1),
                             len(z1), copies=2)


def edwp_sub_numpy(t, s) -> float:
    """Two-pass EDwPsub (Eq. 6) via the vectorized kernel."""
    return float(_sub_row_min(*_pair(t, s))[0])


def edwp_sub_fast_numpy(t, s) -> float:
    """One-pass EDwPsub heuristic (free-start DP only), vectorized."""
    return float(_last_rows(*_pair(t, s), free_every=1).min())


def edwp_sub_fast_queries_numpy(queries: Sequence, target) -> List[float]:
    """One-pass EDwPsub of *many queries* against one shared target.

    The batch-first shape of Alg. 1 pivot selection: every trajectory of a
    node measured against one pivot, the batch riding on the DP's first
    side.  Callers guarantee the target has >= 1 segment; queries without
    segments match trivially (0.0) without entering the kernel.  Each
    value equals ``edwp_sub_fast(query, target)`` on this backend: cells
    ``(i <= n1_b, j)`` of a padded query only ever read its unpadded
    points, so the padding-exactness argument of the module docstring
    carries over unchanged.
    """
    z2 = trajectory_complex(target)[None, :]

    def own_row_min(Z1, segs1):
        segs2 = np.full(len(segs1), z2.shape[1] - 1)
        return dp_sweep(Z1, segs1, z2, segs2, free_every=1).min(axis=1)

    return _lockstep_batches(queries, 0.0, own_row_min,
                             max(map(len, queries), default=0))


def prefix_dist_numpy(t, s) -> float:
    """PrefixDist (Eq. 5) via the vectorized kernel."""
    return float(_last_rows(*_pair(t, s)).min())


#: The numpy tier's kernel per op (:func:`repro.core.backend.tier_kernel`);
#: each takes what its dispatching function in :mod:`repro.core.edwp` /
#: :mod:`repro.core.edwp_sub` takes once the base cases are peeled.
KERNELS = {
    "edwp": edwp_numpy,
    "edwp_many": edwp_many_numpy,
    "edwp_sub": edwp_sub_numpy,
    "edwp_sub_many": edwp_sub_many_numpy,
    "edwp_sub_fast": edwp_sub_fast_numpy,
    "edwp_sub_fast_queries": edwp_sub_fast_queries_numpy,
    "prefix_dist": prefix_dist_numpy,
}
