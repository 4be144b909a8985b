"""Importable test helpers (conftest.py itself cannot be imported)."""

from __future__ import annotations

import numpy as np

from repro.core import Trajectory
from repro.core.geometry import segment_rect_distance
from repro.index.tboxseq import TBoxSeq, edwp_sub_box, edwp_sub_box_many


def boxseq(rows):
    """A :class:`TBoxSeq` from rows ``(xmin, ymin, xmax, ymax, minL)``."""
    rows = np.array(rows, dtype=np.float64).reshape(-1, 5)
    return TBoxSeq(rows[:, :4], rows[:, 4])


def random_walk_trajectory(rng, n, scale=10.0, origin=None):
    """Correlated-step random trajectory (more realistic than iid points)."""
    steps = rng.normal(0, 1, (n - 1, 2)).cumsum(axis=0)
    pts = np.vstack([[0.0, 0.0], steps]) * scale / max(1.0, n ** 0.5)
    if origin is None:
        origin = rng.uniform(0, scale, 2)
    return Trajectory.from_xy(pts + origin)


def scalar_box_bound(traj, seq):
    """The node bound by its definition, one scalar distance per (segment,
    box): ``2 · Σ_s |s| · dist(s, ∪B)``."""
    total = 0.0
    for seg in traj.segments():
        a = (seg.s1.x, seg.s1.y)
        b = (seg.s2.x, seg.s2.y)
        d = min(segment_rect_distance(a, b, *rect)
                for rect in seq.rects.tolist())
        total += seg.length * d
    return 2.0 * total


def assert_bound_matches(traj, seqs):
    """Single and batched bounds equal each other bitwise, and the scalar
    definition from below within the rounding margin (DESIGN.md, "Index
    bound kernels") — never more than rounding above it."""
    single = [edwp_sub_box(traj, s) for s in seqs]
    batched = edwp_sub_box_many(traj, seqs)
    assert batched == single
    for s, got in zip(seqs, batched):
        want = scalar_box_bound(traj, s)
        scale = max([1.0, float(np.abs(traj.coords()).max())]
                    + [float(np.abs(s.rects).max())])
        slack = 1e-12 * scale * max(traj.length, 1.0)
        assert want * (1 - 2.0 ** -29) - slack <= got <= want * (1 + 1e-12)
