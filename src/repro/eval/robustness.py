"""Robustness experiments — Figs. 5(b)-(i) (paper Sec. V-C).

One experiment: take a clean database ``D1``, derive a noised copy ``D2``
with one of the four protocols, pick query trajectories, and measure — for
each distance metric — the Spearman correlation between the query's k-NN
list in D1 and in D2 (union-rank protocol, :mod:`repro.eval.spearman`).
A robust metric keeps its neighbourhoods under noise (correlation near 1).

:func:`make_noisy_dataset` builds D1/D2 pairs for all four protocols;
:func:`robustness_experiment` runs the measurement sweep.

``metrics`` maps display names to distance callables — pass
:class:`~repro.baselines.registry.DistanceSpec` objects (as the
experiment drivers now do) and every query-vs-database table runs through
the metric's batched lockstep kernel via
:func:`repro.eval.knn.distance_table`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.trajectory import Trajectory
from ..datasets.noise import (
    densify,
    densify_first_half,
    perturb,
    phase_pair,
    thirty_second_radius,
)
from .knn import DistanceFn, distance_table
from .spearman import knn_list_correlation

__all__ = ["NOISE_PROTOCOLS", "make_noisy_dataset", "pair_correlations",
           "robustness_experiment", "RobustnessResult"]

#: The four protocols of Sec. V-C, by figure.
NOISE_PROTOCOLS = ("inter", "intra", "phase", "perturb")


def make_noisy_dataset(
    clean: Sequence[Trajectory],
    protocol: str,
    noise_fraction: float,
    seed: int = 0,
) -> Tuple[List[Trajectory], List[Trajectory]]:
    """Build the (D1, D2) pair for one protocol at noise level ``n``.

    For ``inter``, ``intra`` and ``perturb``, D1 is the clean input and D2
    its noised copy.  For ``phase``, *both* copies are re-sampled versions
    of the input (the paper inserts a point into the same segments of both,
    at different locations), so D1 differs from the raw input as well.
    """
    rng = np.random.default_rng(seed)
    d1: List[Trajectory] = []
    d2: List[Trajectory] = []
    if protocol == "inter":
        for t in clean:
            d1.append(t)
            d2.append(densify(t, noise_fraction, rng))
    elif protocol == "intra":
        for t in clean:
            d1.append(t)
            d2.append(densify_first_half(t, noise_fraction, rng))
    elif protocol == "phase":
        for t in clean:
            a, b = phase_pair(t, noise_fraction, rng)
            d1.append(a)
            d2.append(b)
    elif protocol == "perturb":
        radius = thirty_second_radius(clean)
        for t in clean:
            d1.append(t)
            d2.append(perturb(t, noise_fraction, radius, rng))
    else:
        raise ValueError(
            f"unknown protocol {protocol!r}; expected one of {NOISE_PROTOCOLS}"
        )
    return d1, d2


@dataclass
class RobustnessResult:
    """Per-metric mean correlation plus the individual query values."""

    protocol: str
    k: int
    noise_fraction: float
    correlations: Dict[str, float] = field(default_factory=dict)
    per_query: Dict[str, List[float]] = field(default_factory=dict)


def pair_correlations(
    d1: Sequence[Trajectory],
    d2: Sequence[Trajectory],
    metrics: Dict[str, DistanceFn],
    k: int,
    query_ids: Sequence[int],
) -> Dict[str, List[float]]:
    """Per-query k-NN rank correlations for an already-built (D1, D2) pair.

    The query trajectory is taken from D1 (the clean side) and excluded from
    both tables so the correlation measures the neighbourhood rather than
    the trivial self-match.
    """
    out: Dict[str, List[float]] = {}
    for name, dist in metrics.items():
        values: List[float] = []
        for qid in query_ids:
            query = d1[qid]
            table1 = distance_table(query, d1, dist)
            table2 = distance_table(query, d2, dist)
            key = query.traj_id if query.traj_id is not None else qid
            table1.pop(key, None)
            table2.pop(key, None)
            values.append(knn_list_correlation(table1, table2, k))
        out[name] = values
    return out


def robustness_experiment(
    clean: Sequence[Trajectory],
    metrics: Dict[str, DistanceFn],
    protocol: str,
    k: int = 10,
    noise_fraction: float = 0.05,
    num_queries: int = 5,
    seed: int = 0,
) -> RobustnessResult:
    """Run one cell of the Fig. 5(b)-(i) sweeps.

    ``metrics`` maps display names to distance callables; queries are drawn
    (seeded) from the clean database, and each query's distance to every D1
    and D2 trajectory is computed per metric.  Returns mean correlations.
    """
    d1, d2 = make_noisy_dataset(clean, protocol, noise_fraction, seed)
    rng = random.Random(seed)
    query_ids = rng.sample(range(len(d1)), min(num_queries, len(d1)))

    result = RobustnessResult(protocol=protocol, k=k,
                              noise_fraction=noise_fraction)
    per_query = pair_correlations(d1, d2, metrics, k, query_ids)
    for name, values in per_query.items():
        result.per_query[name] = values
        result.correlations[name] = float(np.mean(values)) if values else 0.0
    return result
