"""Figs. 6(c)/(d): tightness of the vantage-point upper bound.

UB-factor (Eq. 15) of the VP-derived upper bound versus the random-subset
baseline, swept over the number of VPs (Fig. 6c) and over k (Fig. 6d), plus
the VP/true k-NN Spearman correlation the paper reports as 0.78-0.83.
Measured at the root node — the paper's stated worst case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..datasets import generate_beijing
from ..eval.ubfactor import vp_experiment
from .common import beijing_database

__all__ = ["UBSweepResult", "run_fig6c", "run_fig6d"]


@dataclass
class UBSweepResult:
    """UB-factor sweep: x values plus VP / random series (+ correlation)."""

    x_name: str
    x_values: List[float] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)


def run_fig6c(
    vp_counts: Sequence[int] = (10, 20, 40, 80, 160),
    db_size: int = 120,
    k: int = 10,
    num_queries: int = 4,
    seed: int = 7,
) -> UBSweepResult:
    """Fig. 6(c): UB-factor vs number of vantage points."""
    db = beijing_database(db_size, seed=seed)
    queries = generate_beijing(num_queries, seed=seed + 1000)
    result = UBSweepResult(x_name="#VPs",
                           x_values=[float(v) for v in vp_counts])
    for v in vp_counts:
        stats = vp_experiment(db, queries, num_vps=v, k=k, seed=seed)
        result.series.setdefault("Beijing", []).append(stats["vp_ub_factor"])
        result.series.setdefault("Beijing Random", []).append(
            stats["random_ub_factor"])
        result.series.setdefault("VP-kNN corr", []).append(
            stats["vp_knn_correlation"])
    return result


def run_fig6d(
    k_values: Sequence[int] = (5, 10, 25, 50, 100),
    db_size: int = 120,
    num_vps: int = 80,
    num_queries: int = 4,
    seed: int = 7,
) -> UBSweepResult:
    """Fig. 6(d): UB-factor vs k at a fixed VP budget."""
    db = beijing_database(db_size, seed=seed)
    queries = generate_beijing(num_queries, seed=seed + 1000)
    result = UBSweepResult(x_name="k",
                           x_values=[float(k) for k in k_values])
    for k in k_values:
        stats = vp_experiment(db, queries, num_vps=num_vps, k=k, seed=seed)
        result.series.setdefault("Beijing", []).append(stats["vp_ub_factor"])
        result.series.setdefault("Beijing Random", []).append(
            stats["random_ub_factor"])
        result.series.setdefault("VP-kNN corr", []).append(
            stats["vp_knn_correlation"])
    return result
