"""The lockstep EDwP kernels :func:`repro.core.edwp_fast.dp_sweep` replaced.

``dp_last_rows`` (one query against a batch of targets) and ``dp_own_rows``
(a batch of queries against one target) are kept here verbatim — every row
swept over every diagonal, one free-start mode per sweep — and so is
``dp_sweep_rowmajor``, the one-sweep kernel as it stood with row-major
``(rows, cells)`` buffers and the two insertions written out one after the
other, with the row loop ``pack_rowwise`` that fed it.  They are the
oracles ``tests/test_lockstep_sweeps.py`` compares the kernel against with
``np.array_equal``.
"""

import math

import numpy as np

_INF = math.inf


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


def dp_sweep_rowmajor(
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


def pack_rowwise(points):
    """Pack complex point arrays into a padded ``(B, m)`` matrix, with the
    true segment count of every row."""
    segs = np.array([z.shape[0] - 1 for z in points])
    m = int(segs.max()) + 1
    Z = np.empty((len(points), m), dtype=np.complex128)
    for row, z in enumerate(points):
        Z[row, :z.shape[0]] = z
        Z[row, z.shape[0]:] = z[-1]
    return Z, segs
