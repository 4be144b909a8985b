"""Shared plumbing for the experiment drivers.

Centralizes the choices every figure needs: which metrics to compare, how to
derive the EDR/LCSS threshold from a dataset, and the reduced database
scales the pure-Python reproduction runs at (recorded in README.md's
benchmark matrix).

The metric factories return :class:`~repro.baselines.registry.DistanceSpec`
objects (callable like plain functions), so every harness that feeds them
into :func:`repro.eval.knn.distance_table` or
:func:`repro.eval.classification.nn_classify` automatically gets the
metric's batched lockstep kernel.  All of them follow the global
:func:`repro.core.set_backend` choice, which is how the CLI's
``--backend`` flag reaches every metric.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines import DistanceSpec, MAParams, get_distance
from ..core.trajectory import Trajectory
from ..datasets import generate_beijing, interpolate_dataset

__all__ = [
    "suggest_eps",
    "robustness_metrics",
    "classification_metrics",
    "beijing_database",
    "edr_interpolated_metric",
]


def suggest_eps(trajectories: Sequence[Trajectory]) -> float:
    """Matching threshold for EDR/LCSS.

    Chen et al. (the EDR paper) set the threshold to a quarter of the
    maximum standard deviation — computed on *per-trajectory* normalized
    series; the reproduced paper sets baseline parameters "as outlined by
    the respective papers" (Sec. V-A).  We therefore use a quarter of the
    mean per-trajectory coordinate standard deviation, which scales with a
    single trip's extent rather than the whole city's.
    """
    stds: List[float] = []
    for t in trajectories:
        if len(t) >= 2:
            stds.append(float(t.spatial().std(axis=0).max()))
    if not stds:
        raise ValueError("no multi-point trajectory in the dataset")
    return float(0.25 * np.mean(stds))


def robustness_metrics(
    dataset: Sequence[Trajectory],
    eps: Optional[float] = None,
    ma_params: Optional[MAParams] = None,
) -> Dict[str, DistanceSpec]:
    """The Fig. 5(b)-(i) metric set: EDwP, EDR, LCSS, MA.

    (EDR-I is handled separately — it needs both databases interpolated, see
    :func:`edr_interpolated_metric`; DISSIM is excluded from these figures
    by the paper itself.)
    """
    if eps is None:
        eps = suggest_eps(dataset)
    gap = float(np.mean([t.segment_lengths().mean() for t in dataset if len(t) > 1]))
    params = ma_params or MAParams(gap_penalty=gap, match_threshold=2 * eps)
    return {
        "EDwP": get_distance("edwp"),
        "EDR": get_distance("edr", eps=eps),
        "LCSS": get_distance("lcss", eps=eps),
        "MA": get_distance("ma", ma_params=params),
    }


def classification_metrics(
    dataset: Sequence[Trajectory],
    eps: Optional[float] = None,
) -> Dict[str, DistanceSpec]:
    """The Fig. 5(a) metric set: EDwP, EDR, LCSS, DISSIM, MA."""
    if eps is None:
        eps = suggest_eps(dataset)
    gap = float(np.mean([t.segment_lengths().mean() for t in dataset if len(t) > 1]))
    return {
        "EDwP": get_distance("edwp"),
        "EDR": get_distance("edr", eps=eps),
        "LCSS": get_distance("lcss", eps=eps),
        "DISSIM": get_distance("dissim"),
        "MA": get_distance("ma", ma_params=MAParams(gap_penalty=gap,
                                                    match_threshold=2 * eps)),
    }


def beijing_database(size: int, seed: int = 7) -> List[Trajectory]:
    """The standard Beijing-style database used across the figures."""
    return generate_beijing(size, seed=seed)


def edr_interpolated_metric(
    d1: Sequence[Trajectory],
    d2: Sequence[Trajectory],
    eps: Optional[float] = None,
    max_points: int = 128,
):
    """EDR-I: interpolate both databases to one uniform density, return the
    interpolated copies plus the EDR spec to run on them (Sec. V-C)."""
    if eps is None:
        eps = suggest_eps(d1)
    from ..datasets.interpolation import corpus_target_spacing

    spacing = corpus_target_spacing(list(d1) + list(d2))
    d1i = interpolate_dataset(d1, spacing=spacing, max_points=max_points)
    d2i = interpolate_dataset(d2, spacing=spacing, max_points=max_points)
    return d1i, d2i, get_distance("edr", eps=eps)
