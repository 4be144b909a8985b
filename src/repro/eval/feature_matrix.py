"""Empirical regeneration of Tables I/II and the Fig. 1 scenarios.

Table I of the paper asserts, per metric, robustness to: local time shifts,
inter-trajectory sampling variance, intra-trajectory sampling variance,
phase variations, and threshold dependence.  This module turns each claim
into a *measurable probe*: a pair of trajectories that differ only by the
nuisance in question, compared against a reference pair that differs
genuinely.  A metric "handles" the nuisance when the nuisance-induced
distance is a small fraction of the reference distance.

The probes reuse the paper's own Fig. 1 constructions where they are fully
specified (the Fig. 1(c) phase scenario, the Fig. 1(d) MA ordering
pathology) and the Sec. V-C noise protocols otherwise.

Matrix layout (what Table 1 consumes)
-------------------------------------
:func:`feature_matrix` returns a nested mapping ``{metric_name ->
{probe_name -> FeatureProbe}}`` — metrics on the rows (in the caller's
insertion order, which :func:`format_feature_table` preserves), the four
behavioural probes (``time_shift``, ``inter``, ``intra``, ``phase``) on
the columns, and each cell a :class:`FeatureProbe` holding the
nuisance/reference distance pair whose ratio decides the Y/n verdict.
The fifth printed column (threshold-freeness) is structural — it comes
from :attr:`DistanceSpec.threshold_free`, not from a probe — so the
driver (:mod:`repro.experiments.table1`) supplies it alongside.  Each
probe is a *single* distance pair per metric, so this harness gains
nothing from the batched matrix engine; the Fig. 5 sweeps are where
``DistanceSpec.many`` pays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..core.trajectory import Trajectory
from ..datasets.noise import densify, densify_first_half, phase_pair
from .knn import DistanceFn

__all__ = [
    "FeatureProbe",
    "PAPER_TABLE_I",
    "probe_time_shift",
    "probe_inter_sampling",
    "probe_intra_sampling",
    "probe_phase",
    "fig1d_ordering_scenario",
    "feature_matrix",
    "format_feature_table",
]

#: Table I as printed in the paper (True = checkmark).
#: Columns: time shifts, inter, intra, phase, threshold-free.
PAPER_TABLE_I: Dict[str, Tuple[bool, bool, bool, bool, bool]] = {
    "DTW": (True, False, False, False, True),
    "LCSS": (True, False, False, False, False),
    "ERP": (True, False, False, False, False),
    "EDR": (True, False, False, False, False),
    "DISSIM": (False, True, False, False, True),
    "MA": (True, False, False, True, False),
    "EDwP": (True, True, True, True, True),
}

#: A nuisance-induced distance below this fraction of the reference
#: distance counts as "handled".
PASS_RATIO = 0.25


def _zigzag_path(n: int = 11) -> np.ndarray:
    """A distinctive spatial path used by all probes."""
    xs = np.linspace(0.0, 100.0, n)
    ys = 15.0 * np.sin(xs / 18.0)
    return np.column_stack([xs, ys])


def _reference_pair() -> Tuple[Trajectory, Trajectory]:
    """Two genuinely different trajectories (the probe denominators)."""
    path = _zigzag_path()
    other = path.copy()
    other[:, 1] = -other[:, 1] + 40.0
    return Trajectory.from_xy(path, dt=10.0), Trajectory.from_xy(other, dt=10.0)


@dataclass
class FeatureProbe:
    """One probe outcome: nuisance distance, reference distance, verdict."""

    nuisance_distance: float
    reference_distance: float

    @property
    def ratio(self) -> float:
        if self.reference_distance <= 0:
            return float("inf") if self.nuisance_distance > 0 else 0.0
        return self.nuisance_distance / self.reference_distance

    @property
    def handled(self) -> bool:
        return self.ratio <= PASS_RATIO


def probe_time_shift(distance: DistanceFn) -> FeatureProbe:
    """Same spatial contour at different speed profiles (Sec. I example)."""
    path = _zigzag_path(21)
    ref1, ref2 = _reference_pair()
    # slow first half vs slow second half: resample the same contour with
    # time spent differently (points bunch where the object is slow)
    s = np.linspace(0.0, 1.0, 21)
    slow_first = s ** 1.8
    slow_second = s ** (1.0 / 1.8)
    base = np.linspace(0.0, 1.0, 21)
    xa = np.interp(slow_first, base, path[:, 0])
    ya = np.interp(slow_first, base, path[:, 1])
    xb = np.interp(slow_second, base, path[:, 0])
    yb = np.interp(slow_second, base, path[:, 1])
    ta = Trajectory.from_xy(np.column_stack([xa, ya]), dt=10.0)
    tb = Trajectory.from_xy(np.column_stack([xb, yb]), dt=10.0)
    return FeatureProbe(distance(ta, tb), distance(ref1, ref2))


def probe_inter_sampling(distance: DistanceFn, seed: int = 0) -> FeatureProbe:
    """Identical shape at very different sampling rates (Fig. 1(a))."""
    ref1, ref2 = _reference_pair()
    sparse = Trajectory.from_xy(_zigzag_path(6), dt=40.0)
    rng = np.random.default_rng(seed)
    dense = densify(densify(sparse, 1.0, rng), 1.0, rng)
    return FeatureProbe(distance(sparse, dense), distance(ref1, ref2))


def probe_intra_sampling(distance: DistanceFn, seed: int = 0) -> FeatureProbe:
    """Sampling rate that varies inside the trajectory (Fig. 1(b))."""
    ref1, ref2 = _reference_pair()
    base = Trajectory.from_xy(_zigzag_path(11), dt=20.0)
    rng = np.random.default_rng(seed)
    lopsided = densify_first_half(densify_first_half(base, 1.0, rng), 1.0, rng)
    return FeatureProbe(distance(base, lopsided), distance(ref1, ref2))


def probe_phase(distance: DistanceFn, seed: int = 0) -> FeatureProbe:
    """Same shape and rate, different recorded samples (Fig. 1(c))."""
    ref1, ref2 = _reference_pair()
    base = Trajectory.from_xy(_zigzag_path(11), dt=20.0)
    rng = np.random.default_rng(seed)
    d1, d2 = phase_pair(base, 1.0, rng)
    return FeatureProbe(distance(d1, d2), distance(ref1, ref2))


def fig1d_ordering_scenario() -> Tuple[Trajectory, Trajectory, Trajectory]:
    """The Fig. 1(d) construction: T1 revisits points out of order.

    ``T2`` is a straight reference line; ``T1`` and ``T3`` consist of points
    equally far from ``T2``, but ``T1`` traverses them going *backward* in
    between while ``T3`` is monotone.  A semantically consistent metric
    rates ``(T2, T3)`` more similar than ``(T2, T1)``; the paper shows MA
    rates them equal (its interpolated assignments may go backward in time).
    """
    t2 = Trajectory([(0, 0, 0), (10, 0, 10)])
    t1 = Trajectory([(2, 1, 0), (7, 1, 5), (4, 1, 10)])
    t3 = Trajectory([(2, 1, 0), (4, 1, 5), (7, 1, 10)])
    return t1, t2, t3


def feature_matrix(
    metrics: Dict[str, DistanceFn],
) -> Dict[str, Dict[str, FeatureProbe]]:
    """Run all four behavioural probes for every metric.

    Returns ``{metric: {probe_name: FeatureProbe}}``; the threshold-free
    column is structural (whether the metric needs a tolerance parameter)
    and is supplied by the caller/registry, not probed.
    """
    probes: Dict[str, Callable[[DistanceFn], FeatureProbe]] = {
        "time_shift": probe_time_shift,
        "inter": probe_inter_sampling,
        "intra": probe_intra_sampling,
        "phase": probe_phase,
    }
    out: Dict[str, Dict[str, FeatureProbe]] = {}
    for name, dist in metrics.items():
        out[name] = {pname: probe(dist) for pname, probe in probes.items()}
    return out


def format_feature_table(
    results: Dict[str, Dict[str, FeatureProbe]],
    threshold_free: Dict[str, bool],
) -> str:
    """Render the empirical Table I next to the paper's claims."""
    cols = ["time_shift", "inter", "intra", "phase"]
    header = (
        f"{'Technique':<10}"
        + "".join(f"{c:>12}" for c in cols)
        + f"{'thr-free':>10}   (ratios; <= {PASS_RATIO:g} = handled)"
    )
    lines = [header, "-" * len(header)]
    for name, probes in results.items():
        cells = []
        for c in cols:
            p = probes[c]
            mark = "Y" if p.handled else "n"
            cells.append(f"{mark} {min(p.ratio, 99.0):>7.3f}")
        tf = "Y" if threshold_free.get(name, False) else "n"
        lines.append(f"{name:<10}" + "".join(f"{c:>12}" for c in cells) + f"{tf:>10}")
    return "\n".join(lines)
