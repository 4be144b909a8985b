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
    sequential-scan oracles, and the Fig. 5/6 benchmark sweeps.

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

This module is self-contained (numpy only) and is dispatched to by
:func:`repro.core.edwp.edwp` and friends when the ``"numpy"`` backend is
active; the pure-Python DP remains the reference oracle.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

__all__ = [
    "trajectory_complex",
    "dp_last_rows",
    "edwp_numpy",
    "edwp_many_numpy",
    "edwp_sub_numpy",
    "edwp_sub_many_numpy",
    "edwp_sub_fast_numpy",
    "edwp_sub_fast_queries_numpy",
    "prefix_dist_numpy",
]

_INF = math.inf

#: Lockstep batch width for :func:`edwp_many_numpy`.  Large enough to
#: amortize per-diagonal dispatch, small enough that per-diagonal buffers
#: stay cache-resident and length skew inside one chunk is bounded.
BATCH_CHUNK = 64


def trajectory_complex(traj) -> np.ndarray:
    """The trajectory's spatial points as a cached ``(n,)`` complex128 array.

    Piggybacks on :meth:`repro.core.trajectory.Trajectory.coords`, which
    caches the contiguous ``(n, 2)`` float64 matrix on the instance, so
    repeated distance calls against the same trajectory (batch queries,
    index traversals) pay the conversion once.
    """
    coords = traj.coords()
    return coords.view(np.complex128)[:, 0]


def dp_last_rows(
    z1: np.ndarray, Z2: np.ndarray, free_start_row: bool = False
) -> np.ndarray:
    """Lockstep anti-diagonal DP of one query against a batch of targets.

    Parameters
    ----------
    z1:
        ``(n1 + 1,)`` complex query points, ``n1 >= 1`` segments.
    Z2:
        ``(B, m)`` complex target points; rows shorter than ``m`` points are
        padded by repeating their final point (exact, see module docstring).
        ``m >= 2``.
    free_start_row:
        Make every cell ``(0, j)`` free — the EDwPsub mechanism of skipping
        any prefix of the second argument (Eq. 6).

    Returns
    -------
    ``(B, m)`` array: the DP's last row ``cost[n1][0..m-1]`` per pair.  For
    a pair with ``n2`` segments only columns ``0..n2`` are meaningful:
    ``row[n2]`` is the plain EDwP distance, ``row[:n2 + 1].min()`` is
    PrefixDist (anchored) or the one-pass EDwPsub (free start row).
    """
    n1 = z1.shape[0] - 1
    batch, m2 = Z2.shape
    n2 = m2 - 1

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
    u_p1[:, 1] = z1[0]
    v_p1[:, 1] = Z2[:, 0]

    # "Next point" arrays, shifted by one with the final point repeated.
    # The repeat makes the segment past an exhausted side zero-length, which
    # reproduces the reference's stay-in-place rule exactly (the carried
    # position at the boundary is exactly the final sample, so the
    # projection's norm_sq == 0 branch returns it unchanged).
    z1_next = np.concatenate([z1[1:], z1[-1:]])
    Z2_next = np.concatenate([Z2[:, 1:], Z2[:, -1:]], axis=1)

    last_rows = np.full((batch, n2 + 1), _INF)

    for d in range(1, n1 + n2 + 1):
        lo = d - n2 if d > n2 else 0
        hi = n1 if d > n1 else d
        cells = slice(lo + 1, hi + 2)       # padded columns of cells (i, d-i)
        preds = slice(lo, hi + 1)           # same cells shifted to i-1

        b1 = z1[lo:hi + 1][None, :]         # P1[i], broadcast over the batch
        b2 = Z2[:, d - hi:d - lo + 1][:, ::-1]          # P2[d-i] per pair

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
        seg_end = z1_next[lo:hi + 1][None, :]           # P1[i+1]
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
        if free_start_row and lo == 0:      # cell (0, d) is free
            cost_d[:, 1] = 0.0
            u_d[:, 1] = z1[0]
            v_d[:, 1] = Z2[:, d]
        if hi == n1:
            last_rows[:, d - n1] = cost_d[:, n1 + 1]

        cost_p2, u_p2, v_p2, cost_p1, u_p1, v_p1, cost_d, u_d, v_d = (
            cost_p1, u_p1, v_p1, cost_d, u_d, v_d, cost_p2, u_p2, v_p2,
        )

    return last_rows


def dp_own_rows(
    Z1: np.ndarray,
    z2: np.ndarray,
    seg_counts: np.ndarray,
    free_start_row: bool = False,
) -> np.ndarray:
    """Lockstep anti-diagonal DP of a *batch of queries* against one target.

    The mirror image of :func:`dp_last_rows`: the batch axis rides on the
    first side instead of the second.  This is the shape of build-time
    pivot selection (Alg. 1), where every node trajectory is measured
    against one shared pivot.

    Parameters
    ----------
    Z1:
        ``(B, m1)`` complex query points; rows shorter than ``m1`` points
        are padded by repeating their final point.
    z2:
        ``(m2,)`` complex target points, ``m2 >= 2``.
    seg_counts:
        ``(B,)`` true segment counts per row of ``Z1`` (each ``>= 1``).
    free_start_row:
        Make every cell ``(0, j)`` free — skip any prefix of ``z2``.

    Returns
    -------
    ``(B, m2 - 1 + 1)`` array: for pair ``b``, its *own* last row
    ``cost[n1_b][0..n2]``.  Padded rows beyond a pair's extent keep
    computing, but their cells are never read — each pair's row is
    captured on the diagonal sweep as it passes through ``i == n1_b``, and
    cells ``(i <= n1_b, j)`` only ever read unpadded ``Z1`` data, so the
    padding-exactness argument of the module docstring carries over
    unchanged.
    """
    batch, m1 = Z1.shape
    n1 = m1 - 1
    n2 = z2.shape[0] - 1

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
    v_p1[:, 1] = z2[0]

    Z1_next = np.concatenate([Z1[:, 1:], Z1[:, -1:]], axis=1)
    z2_next = np.concatenate([z2[1:], z2[-1:]])

    own_rows = np.full((batch, n2 + 1), _INF)
    rows_idx = np.arange(batch)

    for d in range(1, n1 + n2 + 1):
        lo = d - n2 if d > n2 else 0
        hi = n1 if d > n1 else d
        cells = slice(lo + 1, hi + 2)
        preds = slice(lo, hi + 1)

        b1 = Z1[:, lo:hi + 1]                       # P1[i] per pair
        b2 = z2[d - hi:d - lo + 1][::-1][None, :]   # P2[d-i], shared

        # Same fold as :func:`dp_last_rows` with the sides' roles mirrored:
        # P1 slices are per-pair here, P2 slices are shared.
        cost_d.fill(_INF)
        best = cost_d[:, cells]
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
        a1 = u_p1[:, cells]
        a2 = v_p1[:, cells]
        seg_end = Z1_next[:, lo:hi + 1]             # P1[i+1] per pair
        seg = seg_end - a1
        seg_c = seg.conj()
        norm_sq = (seg_c * seg).real
        t = (seg_c * (b2 - a1)).real / (norm_sq + (norm_sq <= 0.0))
        np.maximum(t, 0.0, out=t)
        t_hi = t >= 1.0
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
        seg_end = z2_next[d - hi:d - lo + 1][::-1][None, :]     # P2[j+1]
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
        if free_start_row and lo == 0:      # cell (0, d) is free
            cost_d[:, 1] = 0.0
            u_d[:, 1] = Z1[:, 0]
            v_d[:, 1] = z2[d]
        # Capture each pair's own last row as the wavefront crosses it.
        hit = (seg_counts >= lo) & (seg_counts <= hi)
        if hit.any():
            idx = rows_idx[hit]
            own_rows[idx, d - seg_counts[idx]] = (
                cost_d[idx, seg_counts[idx] + 1]
            )

        cost_p2, u_p2, v_p2, cost_p1, u_p1, v_p1, cost_d, u_d, v_d = (
            cost_p1, u_p1, v_p1, cost_d, u_d, v_d, cost_p2, u_p2, v_p2,
        )

    return own_rows


def _batch_targets(targets: Sequence[np.ndarray]):
    """Pack complex target arrays into a padded ``(B, m)`` matrix."""
    seg_counts = np.array([z.shape[0] - 1 for z in targets])
    m2 = int(seg_counts.max()) + 1
    Z2 = np.empty((len(targets), m2), dtype=np.complex128)
    for row, z in enumerate(targets):
        Z2[row, :z.shape[0]] = z
        Z2[row, z.shape[0]:] = z[-1]
    return Z2, seg_counts


def edwp_numpy(t1, t2) -> float:
    """EDwP via the vectorized kernel.  Callers handle trivial base cases."""
    z1 = trajectory_complex(t1)
    z2 = trajectory_complex(t2)
    return float(dp_last_rows(z1, z2[None, :])[0, -1])


def _lockstep_batches(trajectories: Sequence, fill: float, kernel) -> List[float]:
    """Shared driver for the one-vs-many entry points.

    Items without segments keep ``fill`` (the caller's base case) and
    never enter a kernel; survivors are sorted by length so chunks are
    skew-free, packed in :data:`BATCH_CHUNK`-sized chunks with
    repeated-final-point padding, and per-pair answers scattered back in
    input order.  ``kernel(Z, seg_counts)`` returns one value per row.
    """
    out = [fill] * len(trajectories)
    live = [i for i, t in enumerate(trajectories) if t.num_segments > 0]
    live.sort(key=lambda i: len(trajectories[i]))
    for start in range(0, len(live), BATCH_CHUNK):
        chunk = live[start:start + BATCH_CHUNK]
        Z, seg_counts = _batch_targets(
            [trajectory_complex(trajectories[i]) for i in chunk]
        )
        for i, value in zip(chunk, kernel(Z, seg_counts)):
            out[i] = float(value)
    return out


def edwp_many_numpy(query, trajectories: Sequence) -> List[float]:
    """Raw EDwP of one query against many trajectories, lockstep-batched.

    Callers guarantee the query has >= 1 segment; targets without segments
    get ``inf`` (the recursion's base case) without entering the kernel.
    Targets are processed in length-sorted chunks of :data:`BATCH_CHUNK` so
    one long outlier cannot stretch the DP sweep of a whole batch.
    """
    z1 = trajectory_complex(query)

    def corners(Z2, seg_counts):
        return dp_last_rows(z1, Z2)[np.arange(len(seg_counts)), seg_counts]

    return _lockstep_batches(trajectories, _INF, corners)


def edwp_sub_many_numpy(query, trajectories: Sequence) -> List[float]:
    """Two-pass EDwPsub of one query against many targets, lockstep-batched.

    Callers guarantee the query has >= 1 segment; targets without segments
    get ``inf`` (the recursion's base case) without entering the kernel.
    Both DP passes (free-start-row and anchored) run over the same padded
    batch; each pair's value is the minimum over its *own* last-row
    columns ``0..n2`` of both passes — padding exactness carries over
    because every cell ``(n1, j)`` with ``j <= n2`` only ever reads cells
    with smaller-or-equal column indices.
    """
    z1 = trajectory_complex(query)

    def two_pass_row_min(Z2, seg_counts):
        free = dp_last_rows(z1, Z2, free_start_row=True)
        anchored = dp_last_rows(z1, Z2, free_start_row=False)
        both = np.minimum(free, anchored)
        cols = np.arange(both.shape[1])
        in_extent = cols[None, :] <= seg_counts[:, None]
        return np.where(in_extent, both, _INF).min(axis=1)

    return _lockstep_batches(trajectories, _INF, two_pass_row_min)


def edwp_sub_numpy(t, s) -> float:
    """Two-pass EDwPsub (Eq. 6) via the vectorized kernel."""
    z1 = trajectory_complex(t)
    z2 = trajectory_complex(s)[None, :]
    free = dp_last_rows(z1, z2, free_start_row=True)
    anchored = dp_last_rows(z1, z2, free_start_row=False)
    return float(min(free.min(), anchored.min()))


def edwp_sub_fast_numpy(t, s) -> float:
    """One-pass EDwPsub heuristic (free-start DP only), vectorized."""
    z1 = trajectory_complex(t)
    z2 = trajectory_complex(s)[None, :]
    return float(dp_last_rows(z1, z2, free_start_row=True).min())


def edwp_sub_fast_queries_numpy(queries: Sequence, target) -> List[float]:
    """One-pass EDwPsub of *many queries* against one shared target.

    The batch-first shape of Alg. 1 pivot selection: every trajectory of a
    node measured against one pivot.  Callers guarantee the target has
    >= 1 segment; queries without segments match trivially (0.0) without
    entering the kernel.  Each value equals
    ``edwp_sub_fast(query, target)`` on this backend.
    """
    z2 = trajectory_complex(target)

    def own_row_min(Z1, seg_counts):
        return dp_own_rows(Z1, z2, seg_counts, free_start_row=True).min(axis=1)

    return _lockstep_batches(queries, 0.0, own_row_min)


def prefix_dist_numpy(t, s) -> float:
    """PrefixDist (Eq. 5) via the vectorized kernel."""
    z1 = trajectory_complex(t)
    z2 = trajectory_complex(s)[None, :]
    return float(dp_last_rows(z1, z2, free_start_row=False).min())
