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
    diagonal buffer carries a leading batch axis, so the fixed numpy
    dispatch cost per diagonal is amortized over the whole batch.  This is
    where the bulk of the speedup comes from (per-diagonal arrays are short,
    so single-pair vectorization is dominated by per-call overhead) and it
    is exactly the shape of the hot workloads: TrajTree leaf refinement,
    sequential-scan oracles, and the Fig. 5/6 benchmark sweeps.  That fixed
    cost (~45 us per diagonal, whatever the batch holds) is what a caller
    pays per *sweep*, so there is one kernel, :func:`dp_sweep`, and every
    entry point runs it once per batch: rows leave a sweep at their own
    corner, both EDwPsub passes share one, and a batch is cut only at
    :data:`SWEEP_CELLS` (DESIGN.md, "What a sweep costs").

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
additions in the same order, ``np.abs`` on complex128 (which is
``hypot(dx, dy)``) for ``math.hypot``, exact clamp-to-endpoint projection
rules, and the same strict-``<`` candidate priority (``rep``, then ``ins``
on T1, then ``ins`` on T2) — so results match the pure-Python backend to
float tolerance everywhere, including degenerate zero-length segments (see
DESIGN.md, "Dual-backend EDwP kernels").  ``tests/test_edwp_fast.py``
enforces this property.

Spatial points are packed as complex numbers (``x + yj``): ``np.abs`` of a
complex difference is the point distance, and one complex array halves the
number of numpy operations versus separate x/y arrays.

This module is self-contained (numpy only); :data:`KERNELS` declares what
:func:`repro.core.edwp.edwp` and friends run when the ``"numpy"`` backend
is active, and the pure-Python DP remains the reference oracle.
"""

from __future__ import annotations

import math
from functools import partial
from typing import List, Sequence

import numpy as np

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
#: lockstep batch is cut into several sweeps.  A sweep costs a fixed ~45 us
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

    # Padded diagonal buffers: cell i lives at column i + 1; sentinel
    # columns at both ends (and any cell not on the diagonal) keep cost inf
    # with a finite dummy position, so invalid transitions lose every
    # strict-< race.  Three buffer sets rotate through diagonals d-2, d-1, d.
    width = n1 + 3
    cost_p2 = np.full((batch, width), _INF)
    u_p2 = np.zeros((batch, width), dtype=np.complex128)
    v_p2 = np.zeros((batch, width), dtype=np.complex128)
    cost_p1 = np.full((batch, width), _INF)
    u_p1 = np.zeros((batch, width), dtype=np.complex128)
    v_p1 = np.zeros((batch, width), dtype=np.complex128)
    cost_d = np.full((batch, width), _INF)
    u_d = np.zeros((batch, width), dtype=np.complex128)
    v_d = np.zeros((batch, width), dtype=np.complex128)

    cost_p1[:, 1] = 0.0
    u_p1[:, 1] = Z1[:, 0]
    v_p1[:, 1] = Z2[:, 0]

    # "Next point" arrays, shifted by one with the final point repeated.
    # The repeat makes the segment past an exhausted side zero-length, which
    # reproduces the reference's stay-in-place rule exactly (the carried
    # position at the boundary is exactly the final sample, so the
    # projection's norm_sq == 0 branch returns it unchanged).
    Z1_next = np.concatenate([Z1[:, 1:], Z1[:, -1:]], axis=1)
    Z2_next = np.concatenate([Z2[:, 1:], Z2[:, -1:]], axis=1)

    out = np.full((batch, n1 + n2 + 1), _INF)
    own = out
    row_idx = np.arange(batch)
    last_cols = segs1 + 1
    dropped = 0

    for d in range(1, n1 + n2 + 1):
        if finished[d] > dropped:
            drop = finished[d] - dropped
            dropped = finished[d]
            (cost_p2, u_p2, v_p2, cost_p1, u_p1, v_p1, cost_d, u_d, v_d,
             own, last_cols) = [
                a[drop:] for a in (cost_p2, u_p2, v_p2, cost_p1, u_p1, v_p1,
                                   cost_d, u_d, v_d, own, last_cols)]
            if Z1.shape[0] > 1:
                Z1, Z1_next = Z1[drop:], Z1_next[drop:]
            if Z2.shape[0] > 1:
                Z2, Z2_next = Z2[drop:], Z2_next[drop:]

        lo = d - n2 if d > n2 else 0
        hi = n1 if d > n1 else d
        cells = slice(lo + 1, hi + 2)       # padded columns of cells (i, d-i)
        preds = slice(lo, hi + 1)           # same cells shifted to i-1

        b1 = Z1[:, lo:hi + 1]                           # P1[i]
        b2 = Z2[:, d - hi:d - lo + 1][:, ::-1]          # P2[d-i]

        # Written in place; `best` is a view into the committed cost buffer
        # and candidates fold in with np.minimum, which keeps the earlier
        # candidate on ties — the reference's strict-< priority (rep, then
        # ins on T1, then ins on T2).
        cost_d.fill(_INF)       # u_d/v_d keep stale finite values: cells
        best = cost_d[:, cells]  # outside `cells` stay inf and never win
        best_u = u_d[:, cells]
        best_v = v_d[:, cells]

        # --- rep: from (i-1, j-1) on diagonal d-2 ----------------------- #
        a1 = u_p2[:, preds]
        a2 = v_p2[:, preds]
        best[...] = cost_p2[:, preds] + (
            np.abs(a1 - a2) + np.abs(b1 - b2)
        ) * (np.abs(a1 - b1) + np.abs(a2 - b2))
        best_u[...] = b1
        best_v[...] = b2

        # --- ins on T1: from (i, j-1) on diagonal d-1 ------------------- #
        # T2 advances to P2[j]; T1 advances to the projection of P2[j] on
        # its remaining segment (degenerate when T1 is exhausted).
        a1 = u_p1[:, cells]
        a2 = v_p1[:, cells]
        seg_end = Z1_next[:, lo:hi + 1]                 # P1[i+1]
        seg = seg_end - a1
        seg_c = seg.conj()
        norm_sq = (seg_c * seg).real                    # == |seg|^2 exactly
        t = (seg_c * (b2 - a1)).real / (norm_sq + (norm_sq <= 0.0))
        np.maximum(t, 0.0, out=t)       # t == 0 gives a1 + 0*seg == a1 and
        t_hi = t >= 1.0                 # covers the norm_sq == 0 case too
        np.minimum(t, 1.0, out=t)
        q = a1 + t * seg
        q = np.where(t_hi, seg_end, q)
        total = cost_p1[:, cells] + (
            np.abs(a1 - a2) + np.abs(q - b2)
        ) * (np.abs(a1 - q) + np.abs(a2 - b2))
        take = total < best
        np.copyto(best_u, q, where=take)
        np.minimum(best, total, out=best)

        # --- ins on T2: from (i-1, j) on diagonal d-1 — symmetric ------- #
        a1 = u_p1[:, preds]
        a2 = v_p1[:, preds]
        seg_end = Z2_next[:, d - hi:d - lo + 1][:, ::-1]    # P2[j+1]
        seg = seg_end - a2
        seg_c = seg.conj()
        norm_sq = (seg_c * seg).real
        t = (seg_c * (b1 - a2)).real / (norm_sq + (norm_sq <= 0.0))
        np.maximum(t, 0.0, out=t)
        t_hi = t >= 1.0
        np.minimum(t, 1.0, out=t)
        q = a2 + t * seg
        q = np.where(t_hi, seg_end, q)
        total = cost_p1[:, preds] + (
            np.abs(a1 - a2) + np.abs(b1 - q)
        ) * (np.abs(a1 - b1) + np.abs(a2 - q))
        take = total < best
        np.copyto(best_u, b1, where=take)
        np.copyto(best_v, q, where=take)
        np.minimum(best, total, out=best)

        # --- commit the diagonal ---------------------------------------- #
        if free_every and lo == 0:          # cell (0, d) is free
            cost_d[::free_every, 1] = 0.0
            u_d[::free_every, 1] = Z1[::free_every, 0]
            v_d[::free_every, 1] = Z2[::free_every, d]
        # Capture each pair's own last row as the wavefront crosses it:
        # of the rows still in the sweep, those with segs1[b] <= hi.
        hits = reached[d] - dropped
        if hits > 0:
            own[:hits, d] = cost_d[row_idx[:hits], last_cols[:hits]]

        cost_p2, u_p2, v_p2, cost_p1, u_p1, v_p1, cost_d, u_d, v_d = (
            cost_p1, u_p1, v_p1, cost_d, u_d, v_d, cost_p2, u_p2, v_p2,
        )

    return out


def _pack(points: Sequence[np.ndarray]):
    """Pack complex point arrays into a padded ``(B, m)`` matrix, with the
    true segment count of every row."""
    segs = np.array([z.shape[0] - 1 for z in points])
    m = int(segs.max()) + 1
    Z = np.empty((len(points), m), dtype=np.complex128)
    for row, z in enumerate(points):
        Z[row, :z.shape[0]] = z
        Z[row, z.shape[0]:] = z[-1]
    return Z, segs


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

    Items without segments keep ``fill`` (the caller's base case) and
    never enter a kernel; survivors are sorted by length (the order
    :func:`dp_sweep` drops finished rows in), packed with
    repeated-final-point padding, and per-pair answers scattered back in
    input order.  ``kernel(Z, segs)`` returns one value per row.  A batch
    is cut only where a diagonal buffer — ``copies`` rows per item, over
    the ``points`` of the trajectories on the DP's first side — would pass
    :data:`SWEEP_CELLS`.
    """
    out = [fill] * len(trajectories)
    live = [i for i, t in enumerate(trajectories) if t.num_segments > 0]
    live.sort(key=lambda i: len(trajectories[i]))
    rows = max(1, SWEEP_CELLS // ((points + 2) * copies))
    for start in range(0, len(live), rows):
        chunk = live[start:start + rows]
        Z, segs = _pack([trajectory_complex(trajectories[i]) for i in chunk])
        for i, value in zip(chunk, kernel(Z, segs)):
            out[i] = float(value)
    return out


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
