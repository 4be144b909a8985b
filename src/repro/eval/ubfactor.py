"""UB-factor experiments — Figs. 6(c)/(d) and the VP-correlation claim.

Eq. 15: ``UB-Factor = (VP-based upper bound) / (k-th distance of the true
k-NN)``.  The VP-based upper bound (Eq. 14) is the largest true distance
among the k trajectories the vantage descriptors rank nearest; the paper
compares it against the *random* UB-factor (same quantity for a uniformly
random k-subset) to show the descriptors carry signal, and reports the
Spearman correlation between VP-ranked and true k-NN lists (0.78-0.83).

:func:`anytime_factor` measures the same ratio for *budget-truncated*
anytime answers (DESIGN.md, "Overload control and anytime queries"): the
realized error factor of an :class:`~repro.index.budget.AnytimeResult`
against the true k-NN, which the anytime soundness argument guarantees
never exceeds the result's self-reported ``bound_factor``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.edwp import edwp_avg
from ..core.trajectory import Trajectory
from ..index.vantage import VantageIndex
from .knn import DistanceFn, distance_table, knn_from_table
from .spearman import spearman

__all__ = ["UBFactorResult", "ub_factor", "random_ub_factor",
           "vp_experiment", "anytime_factor"]


def anytime_factor(
    results: Sequence,
    query: Trajectory,
    database: Sequence[Trajectory],
    k: int,
    distance: DistanceFn = edwp_avg,
) -> float:
    """Realized error factor of an anytime k-NN answer.

    ``max(returned distance) / (true k-th nearest distance)`` — the same
    ratio as the paper's UB-factor, with the anytime answer in place of
    the VP-ranked candidate set.  ``1.0`` means the truncated answer is
    as good as exact (every returned distance within the true k-NN
    radius); the anytime contract says this value never exceeds the
    ``bound_factor`` the result reports about itself.

    Returns ``inf`` for answers with fewer than ``k`` entries (the
    reported factor is also ``inf`` there) and ``1.0`` for empty-vs-empty
    degenerate cases.
    """
    table = distance_table(query, database, distance)
    true_knn = knn_from_table(table, min(k, len(table)))
    if not true_knn:
        return 1.0
    if len(results) < min(k, len(table)):
        return float("inf")
    optimal = true_knn[-1][1]
    worst = max(d for _, d in results)
    if worst <= optimal:
        return 1.0
    return worst / (optimal if optimal > 0 else 1.0)


@dataclass
class UBFactorResult:
    """One measurement: VP-based and random UB-factors plus correlation."""

    vp_ub_factor: float
    random_ub_factor: float
    vp_knn_correlation: float


def ub_factor(
    query: Trajectory,
    database: Sequence[Trajectory],
    vantage: VantageIndex,
    k: int,
    distance: DistanceFn = edwp_avg,
) -> UBFactorResult:
    """UB-factor of a single query at one node's vantage index.

    Also computes the random baseline (seeded by the query's id) and the
    Spearman correlation between the VP ranking and the true ranking over
    the database — the three quantities Figs. 6(c)-(d) report.
    """
    by_id = {
        (t.traj_id if t.traj_id is not None else i): t
        for i, t in enumerate(database)
    }
    table = distance_table(query, database, distance)
    true_knn = knn_from_table(table, k)
    optimal = true_knn[-1][1]

    qdesc = vantage.describe(query)
    vp_top = vantage.top_k(qdesc, k)
    vp_ub = max(table[tid] for tid, _ in vp_top)

    seed = query.traj_id if query.traj_id is not None else 0
    rng = random.Random(seed)
    sample = rng.sample(list(by_id), min(k, len(by_id)))
    rand_ub = max(table[tid] for tid in sample)

    # rank correlation between VP ordering and true ordering (full database)
    vd_all = {
        tid: vd
        for tid, vd in vantage.top_k(qdesc, len(vantage))
    }
    ids = [tid for tid in by_id if tid in vd_all]
    corr = spearman([table[t] for t in ids], [vd_all[t] for t in ids])

    denom = optimal if optimal > 0 else 1.0
    return UBFactorResult(
        vp_ub_factor=vp_ub / denom,
        random_ub_factor=rand_ub / denom,
        vp_knn_correlation=corr,
    )


def random_ub_factor(
    query: Trajectory,
    database: Sequence[Trajectory],
    k: int,
    distance: DistanceFn = edwp_avg,
    seed: int = 0,
) -> float:
    """UB-factor of a uniformly random k-subset (the Fig. 6c/d baseline)."""
    table = distance_table(query, database, distance)
    optimal = knn_from_table(table, k)[-1][1]
    rng = random.Random(seed)
    sample = rng.sample(list(table), min(k, len(table)))
    ub = max(table[tid] for tid in sample)
    return ub / (optimal if optimal > 0 else 1.0)


def vp_experiment(
    database: Sequence[Trajectory],
    queries: Sequence[Trajectory],
    num_vps: int,
    k: int,
    distance: DistanceFn = edwp_avg,
    seed: int = 0,
) -> Dict[str, float]:
    """Aggregate UB-factor measurement over several queries.

    Builds a root-level vantage index with ``num_vps`` VPs (the Fig. 6(c)
    worst case: the paper notes deeper nodes only tighten the bound) and
    averages the three statistics over the queries.

    Every exact distance follows the global
    :func:`repro.core.set_backend` choice; the distance *tables* behind
    the UB-factors batch one-query-vs-database through the registry, so
    the ``"numpy"`` backend's lockstep kernels apply wholesale.
    """
    rng = random.Random(seed)
    keys = [t.traj_id if t.traj_id is not None else i
            for i, t in enumerate(database)]
    vantage = VantageIndex.build(database, keys, num_vps, rng)
    vp_fac: List[float] = []
    rand_fac: List[float] = []
    corr: List[float] = []
    for q in queries:
        r = ub_factor(q, database, vantage, k, distance)
        vp_fac.append(r.vp_ub_factor)
        rand_fac.append(r.random_ub_factor)
        corr.append(r.vp_knn_correlation)
    return {
        "vp_ub_factor": float(np.mean(vp_fac)),
        "random_ub_factor": float(np.mean(rand_fac)),
        "vp_knn_correlation": float(np.mean(corr)),
    }
