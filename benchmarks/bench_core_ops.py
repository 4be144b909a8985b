"""Microbenchmarks of the core operations (complexity sanity checks).

Not a paper figure: these keep the building blocks honest — EDwP and
EDwPsub are quadratic DPs, the box bound is linear in boxes × query
segments, and a TrajTree query should cost a fraction of a sequential
scan.

The backend-comparison tests measure the vectorized numpy kernel against
the pure-Python reference on the same 100-point trajectory pairs and
*assert* the headline contract of the dual-backend design: >= 5x faster in
its batched (lockstep) form with max abs deviation < 1e-9 (DESIGN.md,
"Dual-backend EDwP kernels").

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_core_ops.py -q
"""

import math
import time

import numpy as np
import pytest

from repro.core import Trajectory, edwp, edwp_avg, edwp_many
from repro.core.edwp_sub import edwp_sub
from repro.datasets import generate_beijing
from repro.index import TBoxSeq, TrajTree, edwp_sub_box_many

def _pair(n1, n2, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda n: Trajectory.from_xy(
        rng.normal(0, 1, (n, 2)).cumsum(axis=0)
    )
    return mk(n1), mk(n2)


@pytest.mark.parametrize("size", [10, 20, 40])
def test_bench_edwp(benchmark, size):
    a, b = _pair(size, size)
    benchmark(edwp, a, b)


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_bench_edwp_backend(benchmark, backend):
    """Single-pair EDwP at 100 points, per backend."""
    a, b = _pair(100, 100)
    benchmark(edwp, a, b, backend=backend)


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_bench_edwp_many_backend(benchmark, backend):
    """Batched EDwP (one query vs 32 targets) at 100 points, per backend."""
    rng = np.random.default_rng(3)
    mk = lambda: Trajectory.from_xy(rng.normal(0, 1, (100, 2)).cumsum(axis=0))
    query = mk()
    targets = [mk() for _ in range(32)]
    edwp_many(query, targets, backend=backend)     # warm coordinate caches
    benchmark(edwp_many, query, targets, backend=backend)


def test_backend_speedup_and_accuracy_100pt():
    """Acceptance gate: the vectorized kernel vs the pure-Python backend on
    100-point trajectory pairs — >= 5x faster batched, deviation < 1e-9."""
    rng = np.random.default_rng(7)
    mk = lambda: Trajectory.from_xy(rng.normal(0, 1, (100, 2)).cumsum(axis=0))
    query = mk()
    targets = [mk() for _ in range(32)]

    def best_of(fn, repeats=3):
        """Min-of-N wall clock: robust to noisy-neighbor CI runners."""
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
        return best, result

    edwp_many(query, targets, backend="numpy")     # warm coordinate caches
    numpy_secs, fast = best_of(
        lambda: edwp_many(query, targets, backend="numpy"))
    python_secs, reference = best_of(
        lambda: [edwp(query, t, backend="python") for t in targets])

    deviation = max(abs(r - f) for r, f in zip(reference, fast))
    speedup = python_secs / numpy_secs
    per_pair_py = python_secs / len(targets) * 1000
    per_pair_np = numpy_secs / len(targets) * 1000
    print(
        f"\n100-point pairs, batch of {len(targets)}: "
        f"python {per_pair_py:.2f} ms/pair, numpy {per_pair_np:.3f} ms/pair "
        f"-> {speedup:.1f}x, max abs deviation {deviation:.2e}"
    )
    assert deviation < 1e-9
    assert speedup >= 5.0, (
        f"vectorized kernel only {speedup:.1f}x faster than pure Python"
    )


def test_bench_edwp_avg(benchmark):
    a, b = _pair(25, 25)
    benchmark(edwp_avg, a, b)


def test_bench_edwp_sub(benchmark):
    a, b = _pair(15, 40)
    benchmark(edwp_sub, a, b)


def test_bench_box_lower_bound(benchmark):
    """The node bound as the search calls it: one query against the box
    sequences of a node's children (8 here) in one pass."""
    rng = np.random.default_rng(1)
    seqs = [
        TBoxSeq.from_trajectories([
            Trajectory.from_xy(rng.normal(0, 1, (12, 2)).cumsum(axis=0))
            for _ in range(5)
        ])
        for _ in range(8)
    ]
    q, _ = _pair(20, 2, seed=2)
    benchmark(edwp_sub_box_many, q, seqs)


@pytest.fixture(scope="module")
def small_tree():
    db = generate_beijing(80, seed=7)
    return TrajTree(db, num_vps=20, normalized=True, seed=0)


def test_bench_trajtree_query(benchmark, small_tree):
    q = generate_beijing(1, seed=555)[0]
    benchmark(small_tree.knn, q, 10)


def test_bench_sequential_scan(benchmark, small_tree):
    q = generate_beijing(1, seed=555)[0]
    benchmark(small_tree.knn_scan, q, 10)
