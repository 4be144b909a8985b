"""Index performance experiments: Figs. 5(j), 6(a), 6(b), 6(e), 6(f).

Retrieval-time comparisons of TrajTree against an EDwP sequential scan, the
EDR filter-and-refine index on uniformly re-interpolated data (EDR-I, the
paper's indexed comparator) and an MA sequential scan — plus the build-time
and θ-sensitivity studies.

All timings run at reduced, documented database scales (README.md):
absolute seconds are not comparable with the paper's Java testbed, but the
orderings and growth shapes are the reproduction targets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..baselines import EDRIndex, MAParams, get_distance
from ..core.trajectory import Trajectory
from ..datasets import generate_beijing, interpolate_dataset
from ..datasets.interpolation import corpus_target_spacing
from ..eval.knn import knn_scan
from ..index import TrajTree
from .common import beijing_database, suggest_eps

__all__ = ["QueryTimeResult", "run_fig5j", "run_scaling", "run_theta_sweep"]

#: Interpolation cap for the EDR-I comparator (keeps its quadratic DP sane).
EDR_I_MAX_POINTS = 96


@dataclass
class QueryTimeResult:
    """An x-sweep of wall-clock seconds per method (plus optional extras)."""

    x_name: str
    x_values: List[float] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    build_seconds: Dict[str, List[float]] = field(default_factory=dict)


def _queries(num: int, seed: int) -> List[Trajectory]:
    """Fresh out-of-database query trips."""
    return generate_beijing(num, seed=seed + 1000)


def _setup_methods(
    db: Sequence[Trajectory],
    seed: int,
    theta: float = 0.8,
    include_ma: bool = True,
):
    """Build all retrieval methods over one database.

    Returns ``(methods, build_seconds)`` where methods maps a name to a
    ``(query, k) -> result`` callable.
    """
    eps = suggest_eps(db)

    start = time.perf_counter()
    tree = TrajTree(db, theta=theta, normalized=True, seed=seed)
    tree_build = time.perf_counter() - start

    spacing = corpus_target_spacing(db)
    dbi = interpolate_dataset(db, spacing=spacing,
                              max_points=EDR_I_MAX_POINTS)
    start = time.perf_counter()
    edr_index = EDRIndex(dbi, eps=eps, num_references=6, seed=seed)
    edr_build = time.perf_counter() - start

    edwp_avg_fn = get_distance("edwp").fn
    gap = suggest_eps(db)
    ma_fn = get_distance("ma", ma_params=MAParams(gap_penalty=gap,
                                                  match_threshold=2 * eps)).fn

    def trajtree_knn(q: Trajectory, k: int):
        return tree.knn(q, k)

    def edwp_scan(q: Trajectory, k: int):
        return knn_scan(q, db, edwp_avg_fn, k)

    def edr_knn(q: Trajectory, k: int):
        qi = interpolate_dataset([q], spacing=spacing,
                                 max_points=EDR_I_MAX_POINTS)[0]
        return edr_index.knn(qi, k)

    def ma_scan(q: Trajectory, k: int):
        return knn_scan(q, db, ma_fn, k)

    methods = {
        "TrajTree": trajtree_knn,
        "EDwP-scan": edwp_scan,
        "EDR": edr_knn,
    }
    if include_ma:
        methods["MA"] = ma_scan
    builds = {"TrajTree": tree_build, "EDR": edr_build}
    return methods, builds


def _time_methods(methods, queries: Sequence[Trajectory], k: int) -> Dict[str, float]:
    """Total wall seconds per method over all queries at this k."""
    out: Dict[str, float] = {}
    for name, fn in methods.items():
        start = time.perf_counter()
        for q in queries:
            fn(q, k)
        out[name] = time.perf_counter() - start
    return out


def run_fig5j(
    db_size: int = 200,
    k_values: Sequence[int] = (5, 10, 20, 30, 50),
    num_queries: int = 3,
    seed: int = 7,
    include_ma: bool = True,
) -> QueryTimeResult:
    """Fig. 5(j): query time growth with k for all four methods.

    The TrajTree method (bounds, build and refinement alike) follows the
    global :func:`repro.core.set_backend` choice, which is how CLI
    ``--backend`` reaches it.
    """
    db = beijing_database(db_size, seed=seed)
    methods, _ = _setup_methods(db, seed, include_ma=include_ma)
    queries = _queries(num_queries, seed)
    result = QueryTimeResult(x_name="k",
                             x_values=[float(k) for k in k_values])
    for k in k_values:
        cell = _time_methods(methods, queries, k)
        for name, secs in cell.items():
            result.series.setdefault(name, []).append(secs)
    return result


def run_scaling(
    db_sizes: Sequence[int] = (50, 100, 200, 400),
    k: int = 10,
    num_queries: int = 3,
    seed: int = 7,
    include_ma: bool = True,
) -> QueryTimeResult:
    """Figs. 6(a) and 6(e): query time and build time vs database size.

    Backend as in :func:`run_fig5j` — the ``"numpy"`` backend runs
    TrajTree builds and queries through the batched bound/refinement
    kernels (identical results, see the benchmark gate in
    ``benchmarks/bench_fig6a_querytime_dbsize.py``).
    """
    result = QueryTimeResult(x_name="db size",
                             x_values=[float(s) for s in db_sizes])
    queries = _queries(num_queries, seed)
    for size in db_sizes:
        db = beijing_database(size, seed=seed)
        methods, builds = _setup_methods(db, seed, include_ma=include_ma)
        cell = _time_methods(methods, queries, k)
        for name, secs in cell.items():
            result.series.setdefault(name, []).append(secs)
        for name, secs in builds.items():
            result.build_seconds.setdefault(name, []).append(secs)
    return result


def run_theta_sweep(
    thetas: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 0.95),
    db_size: int = 150,
    k: int = 10,
    num_queries: int = 3,
    seed: int = 7,
) -> QueryTimeResult:
    """Figs. 6(b) and 6(f): TrajTree query and build time vs θ.

    θ trades lower-bound tightness against per-level bound computations;
    the paper finds query time minimized near 0.8 while build time rises
    monotonically with θ.  Backend as in :func:`run_fig5j`.
    """
    db = beijing_database(db_size, seed=seed)
    queries = _queries(num_queries, seed)
    result = QueryTimeResult(x_name="theta",
                             x_values=[float(t) for t in thetas])
    for theta in thetas:
        start = time.perf_counter()
        tree = TrajTree(db, theta=theta, normalized=True, seed=seed)
        build = time.perf_counter() - start
        start = time.perf_counter()
        for q in queries:
            tree.knn(q, k)
        query_secs = time.perf_counter() - start
        result.series.setdefault("TrajTree-query", []).append(query_secs)
        result.build_seconds.setdefault("TrajTree", []).append(build)
    return result
