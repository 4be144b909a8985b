"""Python-side wrappers around the compiled kernels.

:data:`KERNELS` declares what :func:`repro.core.backend.tier_kernel` hands
out when the ``"native"`` backend is resolved — the EDwP family and the
Theorem-2 box bound; every other op falls through to the numpy tier.  Each
function mirrors the calling convention *and the base-case semantics* of
its numpy counterpart in :mod:`repro.core.edwp_fast` and
:mod:`repro.index.fast_bounds` — the callers have already peeled the
trivial cases they peel for numpy (e.g. :func:`repro.core.edwp.edwp`
never dispatches a segment-less pair), and the batched entry points here
fill the same per-item base values the python loop would (``inf`` for a
segment-less EDwP target) before handing the live items to one kernel
call over a concatenated coordinate array.

Importing this module imports numba when it is installed (kernels compile
lazily on first call, cached on disk); without numba the kernels run
un-jitted, which only the differential tests do on purpose.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

import numpy as np

from ..core.trajectory import Trajectory
from . import kernels

__all__ = [
    "warmup",
    "edwp_native",
    "edwp_many_native",
    "edwp_sub_native",
    "edwp_sub_many_native",
    "edwp_sub_fast_native",
    "edwp_sub_fast_queries_native",
    "prefix_dist_native",
    "edwp_sub_box_native",
    "edwp_sub_box_many_native",
    "KERNELS",
]


def _ragged(items: Sequence[Trajectory], fill: float,
            run: Callable) -> List[float]:
    """One ragged-batch kernel call over the items that have segments.

    The wire format of every batched kernel: ``pts`` is the row-stacked
    ``(sum n_k, 2)`` float64 array of the live items' cached coordinate
    matrices, ``offs[b]:offs[b+1]`` the rows of batch member ``b``.
    ``run(pts, offs, out)`` fills ``out[b]``; segment-less items keep
    ``fill`` (the caller's base case) and never enter the kernel.  Answers
    come back in input order.
    """
    out = [fill] * len(items)
    live = [k for k, t in enumerate(items) if t.num_segments > 0]
    if live:
        offs = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum([len(items[k]) for k in live], out=offs[1:])
        pts = np.concatenate([items[k].coords() for k in live])
        res = np.empty(len(live), dtype=np.float64)
        run(pts, offs, res)
        for k, value in zip(live, res):
            out[k] = float(value)
    return out


# ---------------------------------------------------------------------- #
# EDwP family
# ---------------------------------------------------------------------- #


def edwp_native(t1: Trajectory, t2: Trajectory) -> float:
    """EDwP distance (both arguments have >= 1 segment; caller checked)."""
    return float(kernels.edwp_value(t1.coords(), t2.coords()))


def edwp_many_native(
    query: Trajectory, trajectories: Sequence[Trajectory]
) -> List[float]:
    """Raw EDwP of one query (>= 1 segment) against many targets."""
    q = query.coords()
    return _ragged(
        trajectories, math.inf,
        lambda pts, offs, out: kernels.edwp_many_kernel(q, pts, offs, out))


def edwp_sub_native(t: Trajectory, s: Trajectory) -> float:
    """Two-pass EDwPsub (both arguments have >= 1 segment)."""
    return float(kernels.edwp_sub_value(t.coords(), s.coords(), True))


def edwp_sub_many_native(
    t: Trajectory, trajectories: Sequence[Trajectory]
) -> List[float]:
    """EDwPsub of one query (>= 1 segment) against many targets."""
    q = t.coords()
    return _ragged(
        trajectories, math.inf,
        lambda pts, offs, out: kernels.edwp_sub_many_kernel(
            q, pts, offs, True, out))


def edwp_sub_fast_native(t: Trajectory, s: Trajectory) -> float:
    """Single-pass (free-start only) EDwPsub."""
    return float(kernels.edwp_sub_value(t.coords(), s.coords(), False))


def edwp_sub_fast_queries_native(
    queries: Sequence[Trajectory], s: Trajectory
) -> List[float]:
    """Single-pass EDwPsub of many queries against one target
    (>= 1 segment); segment-less queries match trivially (0.0)."""
    target = s.coords()
    return _ragged(
        queries, 0.0,
        lambda pts, offs, out: kernels.edwp_sub_fast_queries_kernel(
            pts, offs, target, out))


def prefix_dist_native(t: Trajectory, s: Trajectory) -> float:
    """PrefixDist (both arguments have >= 1 segment)."""
    return float(kernels.prefix_dist_value(t.coords(), s.coords()))


# ---------------------------------------------------------------------- #
# Theorem-2 box bounds
# ---------------------------------------------------------------------- #


def edwp_sub_box_native(traj: Trajectory, geom,
                        thorough: bool = False) -> float:
    """Theorem-2 bound against one :class:`BoxGeometry` (caller checked
    ``traj.num_segments > 0``)."""
    return float(kernels.box_sub_value(
        traj.coords(), geom.xmin, geom.ymin, geom.xmax, geom.ymax,
        geom.min_len, thorough,
    ))


def edwp_sub_box_many_native(traj: Trajectory, geoms: Sequence,
                             thorough: bool = False) -> List[float]:
    """Bounds of one trajectory against many box sequences, one kernel
    call over concatenated geometry arrays."""
    if not geoms:
        return []
    offs = np.zeros(len(geoms) + 1, dtype=np.int64)
    for k, geom in enumerate(geoms):
        offs[k + 1] = offs[k] + len(geom)
    total = int(offs[-1])
    gx0 = np.empty(total, dtype=np.float64)
    gy0 = np.empty(total, dtype=np.float64)
    gx1 = np.empty(total, dtype=np.float64)
    gy1 = np.empty(total, dtype=np.float64)
    gml = np.empty(total, dtype=np.float64)
    for k, geom in enumerate(geoms):
        s, e = offs[k], offs[k + 1]
        gx0[s:e] = geom.xmin
        gy0[s:e] = geom.ymin
        gx1[s:e] = geom.xmax
        gy1[s:e] = geom.ymax
        gml[s:e] = geom.min_len
    out = np.empty(len(geoms), dtype=np.float64)
    kernels.box_many_kernel(
        traj.coords(), gx0, gy0, gx1, gy1, gml, offs, thorough, out
    )
    return [float(v) for v in out]


# ---------------------------------------------------------------------- #
# warm-up
# ---------------------------------------------------------------------- #


def warmup() -> None:
    """Call every kernel once on tiny inputs to trigger (cached) JIT
    compilation outside any measured or latency-sensitive region."""
    p = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float64)
    q = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]], dtype=np.float64)
    offs = np.array([0, 3], dtype=np.int64)
    out = np.empty(1, dtype=np.float64)
    kernels.edwp_value(p, q)
    kernels.edwp_sub_value(p, q, True)
    kernels.prefix_dist_value(p, q)
    kernels.edwp_many_kernel(p, q, offs, out)
    kernels.edwp_sub_many_kernel(p, q, offs, True, out)
    kernels.edwp_sub_fast_queries_kernel(q, offs, p, out)
    bx0 = np.array([0.0])
    by0 = np.array([0.0])
    bx1 = np.array([1.0])
    by1 = np.array([1.0])
    bml = np.array([1.0])
    goffs = np.array([0, 1], dtype=np.int64)
    kernels.box_sub_value(p, bx0, by0, bx1, by1, bml, True)
    kernels.box_many_kernel(p, bx0, by0, bx1, by1, bml, goffs, True, out)


#: The native tier's kernel per op (:func:`repro.core.backend.tier_kernel`),
#: signature-compatible with the numpy tier's entries of the same name.
KERNELS = {
    "edwp": edwp_native,
    "edwp_many": edwp_many_native,
    "edwp_sub": edwp_sub_native,
    "edwp_sub_many": edwp_sub_many_native,
    "edwp_sub_fast": edwp_sub_fast_native,
    "edwp_sub_fast_queries": edwp_sub_fast_queries_native,
    "prefix_dist": prefix_dist_native,
    "edwp_sub_box": edwp_sub_box_native,
    "edwp_sub_box_many": edwp_sub_box_many_native,
}
