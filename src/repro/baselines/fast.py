"""NumPy-vectorized baseline distance kernels — the ``"numpy"`` backend.

This module extends the dual-backend architecture of
:mod:`repro.core.edwp_fast` to the whole Table-I comparator family (see
DESIGN.md, "Baseline kernels").  The same two ideas apply:

Anti-diagonal vectorization
    Every quadratic baseline DP (DTW, EDR, ERP, LCSS, discrete Fréchet)
    reads only ``(i-1, j-1)``, ``(i-1, j)`` and ``(i, j-1)``, so cells on
    one anti-diagonal ``i + j = d`` are mutually independent and are
    computed in a single vectorized step from the two preceding diagonals.

Lockstep batching
    One query is matched against ``B`` targets simultaneously: every
    diagonal buffer carries a leading batch axis, amortizing the fixed
    numpy dispatch cost per diagonal over the batch.  This is where the
    order-of-magnitude speedup of the batched distance-matrix engine
    (:mod:`repro.baselines.matrix`) comes from.

Variable-length batches are exact.  Shorter targets are padded by
repeating their final point and each pair's answer is read off at its own
corner cell ``(n, m_b)``.  Unlike EDwP — whose padding exactness needs an
edit-grammar invariant — the argument here is purely structural: every
transition of these DPs reads cells with indices ``<=`` its own, so the
garbage cells beyond a pair's extent are never read by any cell inside it.

Closed-form measures need no DP: Hausdorff reduces to a broadcast
point-to-segment distance matrix, DISSIM to a vectorized time-synchronized
interpolation, and the Lp norm was already a single numpy expression.

Numerical contract
------------------
Each kernel mirrors its pure-Python reference operation-for-operation —
``np.abs`` on complex128 (``hypot``) for point distances, identical
boundary prefix sums (``np.cumsum`` accumulates in the reference's order),
the reference's exact match predicates (EDR matches with ``<= eps``, LCSS
with strict ``< eps`` — the conventions of the source papers), and exact
clamp-to-endpoint projections.  Observed deviation is at float tolerance
(typically 0 — the DPs perform literally the same additions); the test
suite and the benchmark gate assert ``< 1e-9``.  The pure-Python
implementations remain the defaults and the test oracles.

Spatial points are packed as complex numbers (``x + yj``) via
:func:`repro.core.edwp_fast.trajectory_complex`, which piggybacks on the
per-instance :meth:`~repro.core.trajectory.Trajectory.coords` cache.

Scope: the LCSS temporal-index band (``delta > 0``) and the MA model are
not vectorized — callers fall back to the pure-Python reference for those
(see DESIGN.md, "Baseline kernels").
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.edwp_fast import trajectory_complex

__all__ = [
    "BATCH_CHUNK",
    "dtw_many_numpy",
    "dtw_numpy",
    "edr_many_numpy",
    "edr_numpy",
    "erp_many_numpy",
    "erp_numpy",
    "lcss_length_many_numpy",
    "lcss_length_numpy",
    "frechet_many_numpy",
    "frechet_numpy",
    "directed_hausdorff_numpy",
    "dissim_numpy",
]

_INF = math.inf

#: Lockstep batch width (targets are processed length-sorted).  These DPs
#: carry one scalar per cell, so a diagonal costs a fraction of an EDwP
#: diagonal's fixed dispatch and the row cap of
#: :data:`repro.core.edwp_fast.SWEEP_CELLS` does not carry over: over 512
#: targets, 256-row chunks are ~1.3x faster than 64 at 10-20 points and
#: 1.2-2x *slower* at 60 (DESIGN.md, "What a sweep costs"), so 64 stays.
BATCH_CHUNK = 64


# --------------------------------------------------------------------- #
# shared lockstep scaffolding
# --------------------------------------------------------------------- #

def _pack(zs: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Pack complex point arrays into a padded ``(B, m)`` matrix.

    Rows shorter than ``m`` repeat their final point; per-pair point
    counts come back alongside so callers read each pair's answer at its
    own corner column.
    """
    counts = np.array([z.shape[0] for z in zs])
    m = int(counts.max())
    Z2 = np.empty((len(zs), m), dtype=np.complex128)
    for row, z in enumerate(zs):
        Z2[row, : z.shape[0]] = z
        Z2[row, z.shape[0]:] = z[-1]
    return Z2, counts


def _lockstep_many(query, targets, kernel, col_offset: int = 0) -> List[float]:
    """Run a lockstep last-row kernel over length-sorted target chunks.

    ``kernel(z1, Z2) -> (B, cols)`` returns the DP's last row per pair;
    pair ``b``'s answer sits at column ``counts[b] + col_offset``.  Empty
    targets never enter the kernel and keep the ``inf`` placeholder
    (callers override where their metric's base case differs).
    """
    out = [_INF] * len(targets)
    z1 = trajectory_complex(query)
    live = [i for i, t in enumerate(targets) if len(t) > 0]
    live.sort(key=lambda i: len(targets[i]))
    for start in range(0, len(live), BATCH_CHUNK):
        chunk = live[start:start + BATCH_CHUNK]
        Z2, counts = _pack([trajectory_complex(targets[i]) for i in chunk])
        rows = kernel(z1, Z2)
        vals = rows[np.arange(len(chunk)), counts + col_offset]
        for i, value in zip(chunk, vals):
            out[i] = float(value)
    return out


def _recur_range(d: int, rows: int, cols: int) -> Tuple[int, int]:
    """Recurrence cells ``(i, d - i)`` of diagonal ``d`` with i, j >= 1."""
    return max(1, d - cols), min(rows, d - 1)


# --------------------------------------------------------------------- #
# DTW
# --------------------------------------------------------------------- #

def _dtw_last_rows(z1: np.ndarray, Z2: np.ndarray, window: int = 0) -> np.ndarray:
    """Lockstep DTW DP; returns the last row ``cost[n][0..m]`` per pair.

    Table ``(n + 1) x (m + 1)`` over point indices; ``cost[0][0] = 0``,
    first row/column ``inf``.  Cell ``i`` of a diagonal lives at padded
    column ``i + 1``; sentinel columns stay ``inf`` so invalid transitions
    never win a minimum.
    """
    n = z1.shape[0]
    batch, m = Z2.shape
    width = n + 3
    cost_p2 = np.full((batch, width), _INF)
    cost_p1 = np.full((batch, width), _INF)
    cost_d = np.full((batch, width), _INF)
    cost_p1[:, 1] = 0.0                      # cell (0, 0) on diagonal 0
    last_rows = np.full((batch, m + 1), _INF)

    for d in range(1, n + m + 1):
        lo, hi = _recur_range(d, n, m)
        cost_d.fill(_INF)
        if lo <= hi:
            cells = slice(lo + 1, hi + 2)
            preds = slice(lo, hi + 1)
            a = z1[lo - 1:hi][None, :]                   # P1[i-1]
            b = Z2[:, d - hi - 1:d - lo][:, ::-1]        # P2[j-1] per pair
            best = np.minimum(cost_p2[:, preds], cost_p1[:, preds])
            np.minimum(best, cost_p1[:, cells], out=best)
            total = np.abs(a - b) + best
            if window > 0:
                off_band = np.abs(2 * np.arange(lo, hi + 1) - d) > window
                total[:, off_band] = _INF
            cost_d[:, cells] = total
        if d >= n:
            last_rows[:, d - n] = cost_d[:, n + 1]
        cost_p2, cost_p1, cost_d = cost_p1, cost_d, cost_p2
    return last_rows


def dtw_numpy(t1, t2, window: int = 0) -> float:
    """Single-pair DTW via the lockstep kernel (batch of one)."""
    z1 = trajectory_complex(t1)
    z2 = trajectory_complex(t2)
    return float(_dtw_last_rows(z1, z2[None, :], window)[0, -1])


def dtw_many_numpy(query, targets, window: int = 0) -> List[float]:
    """DTW of one non-empty query against many targets, lockstep-batched.

    Empty targets get ``inf`` (the DTW base case for one empty side).
    """
    return _lockstep_many(
        query, targets, lambda z1, Z2: _dtw_last_rows(z1, Z2, window)
    )


# --------------------------------------------------------------------- #
# EDR
# --------------------------------------------------------------------- #

def _edr_last_rows(z1: np.ndarray, Z2: np.ndarray, eps: float) -> np.ndarray:
    """Lockstep EDR DP (edit counts as float64 — exact for small integers)."""
    n = z1.shape[0]
    batch, m = Z2.shape
    width = n + 3
    cost_p2 = np.full((batch, width), _INF)
    cost_p1 = np.full((batch, width), _INF)
    cost_d = np.full((batch, width), _INF)
    cost_p1[:, 1] = 0.0
    last_rows = np.full((batch, m + 1), _INF)

    for d in range(1, n + m + 1):
        lo, hi = _recur_range(d, n, m)
        cost_d.fill(_INF)
        if lo <= hi:
            cells = slice(lo + 1, hi + 2)
            preds = slice(lo, hi + 1)
            diff = z1[lo - 1:hi][None, :] - Z2[:, d - hi - 1:d - lo][:, ::-1]
            # the EDR convention: both coordinate deltas within eps, inclusive
            sub = (
                (np.abs(diff.real) > eps) | (np.abs(diff.imag) > eps)
            ).astype(np.float64)
            best = np.minimum(
                cost_p2[:, preds] + sub, cost_p1[:, preds] + 1.0
            )
            np.minimum(best, cost_p1[:, cells] + 1.0, out=best)
            cost_d[:, cells] = best
        if d <= m:
            cost_d[:, 1] = float(d)          # cell (0, d): delete d points
        if d <= n:
            cost_d[:, d + 1] = float(d)      # cell (d, 0)
        if d >= n:
            last_rows[:, d - n] = cost_d[:, n + 1]
        cost_p2, cost_p1, cost_d = cost_p1, cost_d, cost_p2
    return last_rows


def edr_numpy(t1, t2, eps: float) -> int:
    """Single-pair EDR via the lockstep kernel."""
    z1 = trajectory_complex(t1)
    z2 = trajectory_complex(t2)
    return int(_edr_last_rows(z1, z2[None, :], eps)[0, -1])


def edr_many_numpy(query, targets, eps: float) -> List[int]:
    """EDR of one non-empty query against many targets, lockstep-batched."""
    n = len(query)
    values = _lockstep_many(
        query, targets, lambda z1, Z2: _edr_last_rows(z1, Z2, eps)
    )
    return [n if len(t) == 0 else int(v) for v, t in zip(values, targets)]


# --------------------------------------------------------------------- #
# ERP
# --------------------------------------------------------------------- #

def _erp_last_rows(z1: np.ndarray, Z2: np.ndarray, g: complex) -> np.ndarray:
    """Lockstep ERP DP with gap-point boundary prefix sums."""
    n = z1.shape[0]
    batch, m = Z2.shape
    gap1 = np.abs(z1 - g)                    # (n,)
    gap2 = np.abs(Z2 - g)                    # (B, m)
    cg1 = np.cumsum(gap1)                    # cost[i][0] = cg1[i-1]
    cg2 = np.cumsum(gap2, axis=1)            # cost[0][j] = cg2[:, j-1]

    width = n + 3
    cost_p2 = np.full((batch, width), _INF)
    cost_p1 = np.full((batch, width), _INF)
    cost_d = np.full((batch, width), _INF)
    cost_p1[:, 1] = 0.0
    last_rows = np.full((batch, m + 1), _INF)

    for d in range(1, n + m + 1):
        lo, hi = _recur_range(d, n, m)
        cost_d.fill(_INF)
        if lo <= hi:
            cells = slice(lo + 1, hi + 2)
            preds = slice(lo, hi + 1)
            a = z1[lo - 1:hi][None, :]
            b = Z2[:, d - hi - 1:d - lo][:, ::-1]
            ga = gap1[lo - 1:hi][None, :]                # gap cost of P1[i-1]
            gb = gap2[:, d - hi - 1:d - lo][:, ::-1]     # gap cost of P2[j-1]
            best = np.minimum(
                cost_p2[:, preds] + np.abs(a - b),       # match
                cost_p1[:, preds] + ga,                  # gap on T1's point
            )
            np.minimum(best, cost_p1[:, cells] + gb, out=best)
            cost_d[:, cells] = best
        if d <= m:
            cost_d[:, 1] = cg2[:, d - 1]
        if d <= n:
            cost_d[:, d + 1] = cg1[d - 1]
        if d >= n:
            last_rows[:, d - n] = cost_d[:, n + 1]
        cost_p2, cost_p1, cost_d = cost_p1, cost_d, cost_p2
    return last_rows


def erp_numpy(t1, t2, g: Tuple[float, float]) -> float:
    """Single-pair ERP via the lockstep kernel."""
    z1 = trajectory_complex(t1)
    z2 = trajectory_complex(t2)
    gz = complex(g[0], g[1])
    return float(_erp_last_rows(z1, z2[None, :], gz)[0, -1])


def erp_many_numpy(query, targets, g: Tuple[float, float]) -> List[float]:
    """ERP of one non-empty query against many targets, lockstep-batched.

    An empty target costs the query's total gap distance (the ERP base
    case), computed directly.
    """
    gz = complex(g[0], g[1])
    values = _lockstep_many(
        query, targets, lambda z1, Z2: _erp_last_rows(z1, Z2, gz)
    )
    gap_total: Optional[float] = None
    for i, t in enumerate(targets):
        if len(t) == 0:
            if gap_total is None:
                gap_total = float(np.abs(trajectory_complex(query) - gz).sum())
            values[i] = gap_total
    return values


# --------------------------------------------------------------------- #
# LCSS
# --------------------------------------------------------------------- #

def _lcss_last_rows(z1: np.ndarray, Z2: np.ndarray, eps: float) -> np.ndarray:
    """Lockstep LCSS-length DP.  Boundary cells are 0, so (unlike the
    min-DPs) the buffers fill with the boundary value itself."""
    n = z1.shape[0]
    batch, m = Z2.shape
    width = n + 3
    cost_p2 = np.zeros((batch, width))
    cost_p1 = np.zeros((batch, width))
    cost_d = np.zeros((batch, width))
    last_rows = np.zeros((batch, m + 1))

    for d in range(1, n + m + 1):
        lo, hi = _recur_range(d, n, m)
        cost_d.fill(0.0)
        if lo <= hi:
            cells = slice(lo + 1, hi + 2)
            preds = slice(lo, hi + 1)
            diff = z1[lo - 1:hi][None, :] - Z2[:, d - hi - 1:d - lo][:, ::-1]
            # the LCSS convention: strictly within eps per coordinate
            match = (np.abs(diff.real) < eps) & (np.abs(diff.imag) < eps)
            skip = np.maximum(cost_p1[:, preds], cost_p1[:, cells])
            cost_d[:, cells] = np.where(match, cost_p2[:, preds] + 1.0, skip)
        if d >= n:
            last_rows[:, d - n] = cost_d[:, n + 1]
        cost_p2, cost_p1, cost_d = cost_p1, cost_d, cost_p2
    return last_rows


def lcss_length_numpy(t1, t2, eps: float) -> int:
    """Single-pair LCSS length via the lockstep kernel (``delta = 0``)."""
    z1 = trajectory_complex(t1)
    z2 = trajectory_complex(t2)
    return int(_lcss_last_rows(z1, z2[None, :], eps)[0, -1])


def lcss_length_many_numpy(query, targets, eps: float) -> List[int]:
    """LCSS length of one non-empty query against many targets."""
    values = _lockstep_many(
        query, targets, lambda z1, Z2: _lcss_last_rows(z1, Z2, eps)
    )
    return [0 if len(t) == 0 else int(v) for v, t in zip(values, targets)]


# --------------------------------------------------------------------- #
# discrete Fréchet
# --------------------------------------------------------------------- #

def _frechet_last_rows(z1: np.ndarray, Z2: np.ndarray) -> np.ndarray:
    """Lockstep discrete-Fréchet DP over 0-indexed point cells ``(i, j)``.

    ``c(i, j) = max(d(i, j), min(c(i-1, j), c(i, j-1), c(i-1, j-1)))``
    with the first row/column degenerating to running maxima — which the
    ``inf``-sentinel minimum reproduces without special cases, except for
    the seed cell ``(0, 0) = d(0, 0)``.
    """
    n = z1.shape[0]
    batch, m = Z2.shape
    width = n + 2
    cost_p2 = np.full((batch, width), _INF)
    cost_p1 = np.full((batch, width), _INF)
    cost_d = np.full((batch, width), _INF)
    cost_p1[:, 1] = np.abs(z1[0] - Z2[:, 0])     # cell (0, 0) on diagonal 0
    last_rows = np.full((batch, m), _INF)
    if n == 1:
        last_rows[:, 0] = cost_p1[:, 1]

    for d in range(1, n + m - 1):
        lo = max(0, d - (m - 1))
        hi = min(n - 1, d)
        cells = slice(lo + 1, hi + 2)
        preds = slice(lo, hi + 1)
        a = z1[lo:hi + 1][None, :]
        b = Z2[:, d - hi:d - lo + 1][:, ::-1]
        reach = np.minimum(cost_p2[:, preds], cost_p1[:, preds])
        np.minimum(reach, cost_p1[:, cells], out=reach)
        cost_d.fill(_INF)
        cost_d[:, cells] = np.maximum(np.abs(a - b), reach)
        if d >= n - 1:
            last_rows[:, d - (n - 1)] = cost_d[:, n]
        cost_p2, cost_p1, cost_d = cost_p1, cost_d, cost_p2
    return last_rows


def frechet_numpy(t1, t2) -> float:
    """Single-pair discrete Fréchet via the lockstep kernel."""
    z1 = trajectory_complex(t1)
    z2 = trajectory_complex(t2)
    return float(_frechet_last_rows(z1, z2[None, :])[0, -1])


def frechet_many_numpy(query, targets) -> List[float]:
    """Discrete Fréchet of one non-empty query against many targets."""
    return _lockstep_many(query, targets, _frechet_last_rows, col_offset=-1)


# --------------------------------------------------------------------- #
# Hausdorff (closed form — broadcast point-to-segment distances)
# --------------------------------------------------------------------- #

def directed_hausdorff_numpy(t1, t2) -> float:
    """Directed Hausdorff ``h(T1, T2)`` — all point-to-segment distances in
    one broadcast pass (``(n, m-1)``), then min over segments, max over
    points.  Mirrors the reference's exact clamp-to-endpoint projection."""
    P = t1.coords()
    Q = t2.coords()
    if Q.shape[0] == 1:
        return float(np.hypot(P[:, 0] - Q[0, 0], P[:, 1] - Q[0, 1]).max())
    A = Q[:-1]
    D = Q[1:] - A                                        # (m-1, 2)
    nsq = (D * D).sum(axis=1)
    safe = np.where(nsq > 0.0, nsq, 1.0)
    px = P[:, 0, None]
    py = P[:, 1, None]
    t = ((px - A[None, :, 0]) * D[None, :, 0]
         + (py - A[None, :, 1]) * D[None, :, 1]) / safe  # (n, m-1)
    t[:, nsq <= 0.0] = 0.0
    t_hi = t >= 1.0
    np.clip(t, 0.0, 1.0, out=t)
    cx = A[None, :, 0] + t * D[None, :, 0]
    cy = A[None, :, 1] + t * D[None, :, 1]
    # exact endpoint substitution, matching the reference's clamp rule
    cx = np.where(t_hi, Q[None, 1:, 0], cx)
    cy = np.where(t_hi, Q[None, 1:, 1], cy)
    return float(np.hypot(px - cx, py - cy).min(axis=1).max())


# --------------------------------------------------------------------- #
# DISSIM (closed form — vectorized time-synchronized interpolation)
# --------------------------------------------------------------------- #

def _positions_at(traj, ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions at absolute times ``ts`` under linear interpolation —
    the vectorized mirror of :meth:`Trajectory.point_at_time` (same
    segment lookup, same blend formula, exact endpoint clamping)."""
    data = traj.data
    times = data[:, 2]
    n = data.shape[0]
    if n == 1:
        return (np.full(ts.shape, data[0, 0]), np.full(ts.shape, data[0, 1]))
    idx = np.searchsorted(times, ts, side="right") - 1
    np.clip(idx, 0, n - 2, out=idx)
    t0 = times[idx]
    dt = times[idx + 1] - t0
    frac = np.where(dt > 0.0, (ts - t0) / np.where(dt > 0.0, dt, 1.0), 0.0)
    x = data[idx, 0] + (data[idx + 1, 0] - data[idx, 0]) * frac
    y = data[idx, 1] + (data[idx + 1, 1] - data[idx, 1]) * frac
    low = ts <= times[0]
    high = ts >= times[-1]
    x = np.where(low, data[0, 0], np.where(high, data[-1, 0], x))
    y = np.where(low, data[0, 1], np.where(high, data[-1, 1], y))
    return x, y


def dissim_numpy(t1, t2, refine: int = 1) -> float:
    """DISSIM over the common time span, fully vectorized.

    Breakpoint construction, refinement midpoints (same float expression
    order as the reference loop, so ``np.union1d`` deduplicates the same
    values) and the trapezoid integral all run as array operations;
    callers handle the empty/disjoint-window base cases.
    """
    start = max(float(t1.data[0, 2]), float(t2.data[0, 2]))
    end = min(float(t1.data[-1, 2]), float(t2.data[-1, 2]))

    breaks = np.union1d(t1.times(), t2.times())
    breaks = breaks[(breaks >= start) & (breaks <= end)]
    if breaks.size == 0 or breaks[0] > start:
        breaks = np.insert(breaks, 0, start)
    if breaks[-1] < end:
        breaks = np.append(breaks, end)

    if refine > 0 and breaks.size >= 2:
        r = np.arange(1, refine + 1, dtype=np.float64)
        span = breaks[1:] - breaks[:-1]
        extra = breaks[:-1, None] + span[:, None] * r[None, :] / (refine + 1)
        breaks = np.union1d(breaks, extra.ravel())

    x1, y1 = _positions_at(t1, breaks)
    x2, y2 = _positions_at(t2, breaks)
    dists = np.hypot(x1 - x2, y1 - y2)
    if breaks.size == 1:
        return float(dists[0])
    return float(np.trapezoid(dists, breaks))


#: The numpy tier's kernel per op (:func:`repro.core.backend.tier_kernel`);
#: each takes what its dispatching function in :mod:`repro.baselines` takes
#: once the empty-trajectory base cases are peeled.
KERNELS = {
    "dtw": dtw_numpy,
    "dtw_many": dtw_many_numpy,
    "edr": edr_numpy,
    "edr_many": edr_many_numpy,
    "erp": erp_numpy,
    "erp_many": erp_many_numpy,
    "lcss_length": lcss_length_numpy,
    "lcss_length_many": lcss_length_many_numpy,
    "frechet": frechet_numpy,
    "frechet_many": frechet_many_numpy,
    "directed_hausdorff": directed_hausdorff_numpy,
    "dissim": dissim_numpy,
}
