"""Vantage points, descriptors and the VP upper bound (paper Sec. IV-E).

A vantage point (VP) is a spatial point; the distance between a trajectory
and a VP is the distance from the VP to the *closest point of the
trajectory's polyline* — not merely the closest sample (Definition 6).  In
the paper a node of TrajTree distributes ``d`` VPs and stores, for every
trajectory in its subtree, the ``d``-dimensional *vantage descriptor* of
VP distances (Definition 7).  At query time the descriptor-space *vantage
distance* (Definition 8, a normalized ratio dissimilarity) ranks the
subtree cheaply; computing the true EDwP of the top-k so ranked yields the
upper bound ``UB`` of Eq. 14 that drives pruning.  This package's
TrajTree does not use VPs (DESIGN.md, "No vantage-point step"); the
Fig. 6(c)/(d) UB-factor experiment (:mod:`repro.eval.ubfactor`) does.

VP selection reuses the max-min diversity mechanism of pivot selection
(Sec. IV-E "chosen using the same mechanism used for selecting pivots"),
applied to sampled trajectory points.

Descriptor computation is vectorized: for one trajectory all segment-to-VP
distances are evaluated with numpy broadcasting.
"""

from __future__ import annotations

import random
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.trajectory import Trajectory

__all__ = [
    "vp_distance",
    "vp_distances",
    "select_vantage_points",
    "vantage_distance",
    "VantageIndex",
]


def vp_distances(traj: Trajectory, vps: np.ndarray) -> np.ndarray:
    """``VP-dist(T, v)`` for every VP at once (Eq. 12), vectorized.

    ``vps`` is a ``(d, 2)`` array.  Returns a ``(d,)`` array of minimum
    distances from each VP to the trajectory polyline (closest point on any
    segment, not just sampled points).
    """
    pts = traj.spatial()
    if pts.shape[0] == 0:
        raise ValueError("empty trajectory has no VP distance")
    if pts.shape[0] == 1:
        return np.hypot(vps[:, 0] - pts[0, 0], vps[:, 1] - pts[0, 1])

    a = pts[:-1]                      # (n, 2) segment starts
    b = pts[1:]                       # (n, 2) segment ends
    ab = b - a                        # (n, 2)
    norm_sq = (ab * ab).sum(axis=1)   # (n,)
    safe = np.where(norm_sq > 0.0, norm_sq, 1.0)

    # broadcast: VPs (d, 1, 2) against segments (n, 2)
    ap = vps[:, None, :] - a[None, :, :]          # (d, n, 2)
    t = (ap * ab[None, :, :]).sum(axis=2) / safe  # (d, n)
    t = np.clip(t, 0.0, 1.0)
    t = np.where(norm_sq[None, :] > 0.0, t, 0.0)
    closest = a[None, :, :] + t[:, :, None] * ab[None, :, :]  # (d, n, 2)
    diff = vps[:, None, :] - closest
    dist = np.sqrt((diff * diff).sum(axis=2))     # (d, n)
    return dist.min(axis=1)


def vp_distance(traj: Trajectory, vp: Sequence[float]) -> float:
    """``VP-dist(T, v)`` for a single vantage point (Eq. 12)."""
    arr = np.asarray([vp], dtype=np.float64)
    return float(vp_distances(traj, arr)[0])


def select_vantage_points(
    trajectories: Sequence[Trajectory],
    num_vps: int,
    rng: random.Random,
    candidate_cap: int = 2000,
) -> np.ndarray:
    """Max-min greedy selection of ``num_vps`` diverse spatial points.

    Candidates are the sampled st-points of the node's trajectories (capped
    for large nodes).  The same farthest-first mechanism as pivot selection
    spreads the VPs over the region the node covers, which is what makes the
    descriptors informative.
    """
    pools = [t.spatial() for t in trajectories if len(t) > 0]
    if not pools:
        raise ValueError("no points available for vantage point selection")
    candidates = np.vstack(pools)
    if candidates.shape[0] > candidate_cap:
        idx = rng.sample(range(candidates.shape[0]), candidate_cap)
        candidates = candidates[idx]

    num_vps = min(num_vps, candidates.shape[0])
    chosen = np.empty((num_vps, 2), dtype=np.float64)
    seed = rng.randrange(candidates.shape[0])
    chosen[0] = candidates[seed]
    min_d = np.hypot(
        candidates[:, 0] - chosen[0, 0], candidates[:, 1] - chosen[0, 1]
    )
    for i in range(1, num_vps):
        pick = int(np.argmax(min_d))
        chosen[i] = candidates[pick]
        d = np.hypot(candidates[:, 0] - chosen[i, 0],
                     candidates[:, 1] - chosen[i, 1])
        np.minimum(min_d, d, out=min_d)
    return chosen


def vantage_distance(desc1: np.ndarray, desc2: np.ndarray) -> float:
    """Vantage distance ``VD`` between two descriptors (Eq. 13).

    ``VD = mean_i (1 - min(a_i, b_i) / max(a_i, b_i))`` — 0 when the two
    trajectories are equidistant from every VP.  Dimensions where both
    distances are 0 agree perfectly and contribute 0.
    """
    a = np.asarray(desc1, dtype=np.float64)
    b = np.asarray(desc2, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"descriptor shapes differ: {a.shape} vs {b.shape}")
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    ratio = np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 1.0)
    return float(np.mean(1.0 - ratio))


class VantageIndex:
    """Per-node VP set plus the descriptors of every subtree trajectory.

    Supports the two query-time operations Alg. 2 needs: computing the query
    descriptor, and ranking the subtree's trajectories by vantage distance
    to return the approximate top-k (``getVPtopk``).
    """

    def __init__(
        self,
        vps: np.ndarray,
        keys: Sequence[Hashable],
        descriptors: np.ndarray,
    ):
        if descriptors.shape[0] != len(keys):
            raise ValueError("one descriptor row per trajectory key required")
        if descriptors.shape[1] != vps.shape[0]:
            raise ValueError("descriptor width must equal the number of VPs")
        self.vps = vps
        self.keys = list(keys)
        self.descriptors = descriptors

    @staticmethod
    def build(
        trajectories: Sequence[Trajectory],
        keys: Sequence[Hashable],
        num_vps: int,
        rng: random.Random,
    ) -> "VantageIndex":
        """Select VPs over ``trajectories`` and store all descriptors."""
        vps = select_vantage_points(trajectories, num_vps, rng)
        rows = [vp_distances(t, vps) for t in trajectories]
        return VantageIndex(vps, keys, np.vstack(rows))

    def describe(self, traj: Trajectory) -> np.ndarray:
        """Vantage descriptor of an arbitrary trajectory (Definition 7)."""
        return vp_distances(traj, self.vps)

    def top_k(
        self,
        query_descriptor: np.ndarray,
        k: int,
        exclude: Optional[set] = None,
    ) -> List[Tuple[Hashable, float]]:
        """``getVPtopk``: the subtree's k trajectories nearest in VD.

        Vectorized Eq. 13 across all stored descriptors.  ``exclude`` skips
        already-processed trajectories (Alg. 2's ``processed`` set).
        """
        q = np.asarray(query_descriptor, dtype=np.float64)
        lo = np.minimum(self.descriptors, q)
        hi = np.maximum(self.descriptors, q)
        ratio = np.where(hi > 0.0, lo / np.where(hi > 0.0, hi, 1.0), 1.0)
        vd = 1.0 - ratio.mean(axis=1)
        order = np.argsort(vd, kind="stable")
        out: List[Tuple[Hashable, float]] = []
        for idx in order:
            key = self.keys[idx]
            if exclude is not None and key in exclude:
                continue
            out.append((key, float(vd[idx])))
            if len(out) >= k:
                break
        return out

    def __len__(self) -> int:
        return len(self.keys)
