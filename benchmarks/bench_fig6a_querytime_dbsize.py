"""Figs. 6(a)/6(e): query time and index build time vs database size.

Also hosts the end-to-end numpy-vs-python knn gate: TrajTree ``knn`` on
the numpy backend must return identical neighbor sets to the python
backend and be >= 4x faster on a >= 500-trajectory index (the node bound
is the same pass on both; what differs is exact refinement — see
DESIGN.md, "Index bound kernels").
"""

import math
import time

import pytest

from conftest import emit

from repro.datasets import generate_beijing
from repro.eval.timing import format_series_table
from repro.experiments import run_scaling
from repro.index import TrajTree

DB_SIZES = (40, 80, 160)
QUERIES = 2

#: Gate workload: the smallest scale the acceptance criterion names.
GATE_DB_SIZE = 500
GATE_QUERIES = 5
GATE_K = 10
GATE_MIN_SPEEDUP = 4.0


@pytest.fixture(scope="module")
def scaling_result():
    return run_scaling(db_sizes=DB_SIZES, k=10, num_queries=QUERIES, seed=7)


def test_fig6a_query_time_vs_dbsize(benchmark, results_dir, scaling_result):
    result = benchmark.pedantic(lambda: scaling_result, rounds=1, iterations=1)
    emit(results_dir, "fig6a",
         f"Fig. 6(a): total query seconds vs database size ({QUERIES} queries, k=10)",
         format_series_table("db size", result.x_values, result.series))

    # paper shape: every method's cost grows with database size, and the
    # index methods grow sublinearly relative to the scans
    for name, series in result.series.items():
        assert series[-1] >= series[0] * 0.8, name
    growth_tree = result.series["TrajTree"][-1] / result.series["TrajTree"][0]
    growth_scan = result.series["EDwP-scan"][-1] / result.series["EDwP-scan"][0]
    assert growth_tree <= growth_scan * 1.3


def test_fig6e_build_time_vs_dbsize(benchmark, results_dir, scaling_result):
    result = benchmark.pedantic(lambda: scaling_result, rounds=1, iterations=1)
    emit(results_dir, "fig6e",
         "Fig. 6(e): index construction seconds vs database size",
         format_series_table("db size", result.x_values,
                             result.build_seconds))

    # paper shape (Sec. IV-F analysis): superlinear but subquadratic growth
    builds = result.build_seconds["TrajTree"]
    size_ratio = DB_SIZES[-1] / DB_SIZES[0]
    growth = builds[-1] / max(builds[0], 1e-9)
    assert growth >= 1.0
    assert growth <= size_ratio ** 2 * 1.5


def test_numpy_knn_speedup_and_equivalence(results_dir):
    """Acceptance gate: ``knn`` on the numpy backend vs the python one.

    One tree (built once, with the batched build path), the same queries
    under both backends: neighbor id lists must be identical, distances
    must agree to < 1e-9, and numpy must be >= ``GATE_MIN_SPEEDUP``x
    faster end-to-end.  Timings are min-of-3 per
    backend — both backends run in the same process back-to-back, so the
    ratio is robust to noisy-neighbor CI runners.
    """
    db = generate_beijing(GATE_DB_SIZE, seed=7)
    queries = generate_beijing(GATE_QUERIES, seed=1007)

    build_start = time.perf_counter()
    tree = TrajTree(db, theta=0.8, normalized=True, seed=7,
                    backend="numpy")
    build_secs = time.perf_counter() - build_start

    def run_all():
        return [tree.knn(q, GATE_K) for q in queries]

    timings = {}
    answers = {}
    for backend in ("numpy", "python"):
        tree.backend = backend
        run_all()                          # warm caches, page in the tree
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            answers[backend] = run_all()
            best = min(best, time.perf_counter() - start)
        timings[backend] = best

    ids_numpy = [[tid for tid, _ in a] for a in answers["numpy"]]
    ids_python = [[tid for tid, _ in a] for a in answers["python"]]
    deviation = max(
        abs(da - db_)
        for a, b in zip(answers["numpy"], answers["python"])
        for (_, da), (_, db_) in zip(a, b)
    )
    speedup = timings["python"] / timings["numpy"]

    body = (
        f"index size          {GATE_DB_SIZE} trajectories\n"
        f"queries x k         {GATE_QUERIES} x {GATE_K}\n"
        f"build (numpy path)  {build_secs:.2f} s\n"
        f"knn python backend  {timings['python']:.3f} s\n"
        f"knn numpy backend   {timings['numpy']:.3f} s\n"
        f"speedup             {speedup:.2f}x (gate: >= "
        f"{GATE_MIN_SPEEDUP:.1f}x)\n"
        f"neighbor sets       {'identical' if ids_numpy == ids_python else 'DIFFER'}\n"
        f"max abs deviation   {deviation:.2e}\n"
    )
    emit(results_dir, "fig6a_bound_gate",
         "Gate: TrajTree knn end to end, numpy vs python backend",
         body)

    assert ids_numpy == ids_python, "neighbor sets differ across backends"
    assert deviation < 1e-9
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"numpy knn only {speedup:.2f}x faster than python "
        f"(gate requires >= {GATE_MIN_SPEEDUP:.1f}x)"
    )

