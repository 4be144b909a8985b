"""Figs. 5(b)-(i): robustness sweeps against k and noise level n.

Each figure pair (b/c, d/e, f/g, h/i) is one noise protocol swept two ways:
correlation vs k at fixed n, and correlation vs n at fixed k.  The metric
set follows the figure legends: EDwP, EDR, LCSS, EDR-I, MA.

The drivers return ``SweepResult`` records; the benchmark wrappers and the
CLI print them with :func:`repro.eval.timing.format_series_table`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..core.trajectory import Trajectory
from ..eval.robustness import make_noisy_dataset, pair_correlations
from .common import (
    beijing_database,
    edr_interpolated_metric,
    robustness_metrics,
    suggest_eps,
)

__all__ = ["SweepResult", "robustness_sweep", "PAPER_PROTOCOL_FIGURES"]

#: protocol -> (figure vs k, figure vs n) as printed in the paper
PAPER_PROTOCOL_FIGURES = {
    "inter": ("5b", "5c"),
    "intra": ("5d", "5e"),
    "phase": ("5f", "5g"),
    "perturb": ("5h", "5i"),
}


@dataclass
class SweepResult:
    """One robustness sweep: x values plus one correlation series per metric."""

    protocol: str
    x_name: str                      # "k" or "noise %"
    x_values: List[float] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)


def _one_cell(
    clean: Sequence[Trajectory],
    protocol: str,
    k: int,
    noise: float,
    num_queries: int,
    seed: int,
    include_edr_i: bool,
) -> Dict[str, float]:
    """Mean correlation per metric for one (protocol, k, n) cell."""
    d1, d2 = make_noisy_dataset(clean, protocol, noise, seed)
    metrics = robustness_metrics(clean)
    rng = random.Random(seed)
    query_ids = rng.sample(range(len(d1)), min(num_queries, len(d1)))

    per_query = pair_correlations(d1, d2, metrics, k, query_ids)
    out = {name: float(np.mean(vals)) for name, vals in per_query.items()}

    if include_edr_i:
        eps = suggest_eps(clean)
        d1i, d2i, edr_metric = edr_interpolated_metric(d1, d2, eps=eps)
        vals = pair_correlations(d1i, d2i, {"EDR-I": edr_metric}, k, query_ids)
        out["EDR-I"] = float(np.mean(vals["EDR-I"]))
    return out


def robustness_sweep(
    protocol: str,
    vary: str,
    db_size: int = 60,
    k_values: Sequence[int] = (5, 10, 20, 30, 50),
    noise_values: Sequence[float] = (0.05, 0.25, 0.50, 0.75, 1.0),
    fixed_k: int = 10,
    fixed_noise: float = 0.05,
    num_queries: int = 3,
    include_edr_i: bool = True,
    seed: int = 7,
) -> SweepResult:
    """One of the eight robustness panels.

    ``vary`` is ``"k"`` (Figs. 5b/d/f/h: noise fixed at ``fixed_noise``) or
    ``"n"`` (Figs. 5c/e/g/i: k fixed at ``fixed_k``).  Database sizes and
    query counts default to laptop scale; README.md's benchmark matrix
    records the scales used for the shipped results.  Every
    query-vs-database table runs through the batched lockstep kernels.
    """
    clean = beijing_database(db_size, seed=seed)
    result = SweepResult(protocol=protocol,
                         x_name="k" if vary == "k" else "noise %")
    if vary == "k":
        cells = [(k, fixed_noise) for k in k_values]
        result.x_values = [float(k) for k in k_values]
    elif vary == "n":
        cells = [(fixed_k, n) for n in noise_values]
        result.x_values = [100.0 * n for n in noise_values]
    else:
        raise ValueError("vary must be 'k' or 'n'")

    for k, noise in cells:
        cell = _one_cell(clean, protocol, k, noise, num_queries, seed,
                         include_edr_i)
        for name, value in cell.items():
            result.series.setdefault(name, []).append(value)
    return result
