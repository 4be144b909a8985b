"""Forest scale gate: 50k trajectories built, stored, and queried (ISSUE 7).

The columnar store + sharded forest exist so the pipeline scales past the
single-tree comfort zone (ROADMAP item 2).  This gate packs **50,000**
synthetic trajectories into a :class:`~repro.store.ColumnarStore` without
ever materializing 50k Python objects (the arrays are built vectorized),
reloads it memory-mapped, builds a 100-shard :class:`TrajForest` from the
store, and checks three things:

* **scale** — the whole build+query run stays under a stated peak-RSS
  cap (``ru_maxrss``), i.e. memory stays arrays-plus-trees, with no
  hidden O(dataset) blowup per query;
* **exactness at scale** — forest kNN answers on sampled queries equal a
  chunked brute-force ``edwp_many`` scan of the *entire* store (the same
  batched kernel TrajTree leaf refinement uses; the tier-1 exactness
  suite pins tree == scan, so scan == single-tree oracle here) and take
  less time than that scan;
* **exactness vs a literal tree** — on a 2,000-trajectory subsample a
  real single TrajTree is built and the forest answers must match it
  bit-for-bit (the ``tests/test_forest_oracle.py`` contract, re-checked
  at gate scale).

The regenerated table lands in ``benchmarks/results/forest_gate.txt``
and is uploaded as a CI artifact.
"""

import resource
import time

import numpy as np
import pytest

from repro.core.edwp import edwp_many
from repro.index import TrajForest, TrajTree
from repro.index.trajtree import TrajTreeStats
from repro.store import ColumnarStore

from conftest import emit

N = 50_000
SHARDS = 100
QUERIES = 3            # sampled query positions, brute-force checked
K = 10
SUBSAMPLE = 2_000      # literal single-tree oracle size
RSS_CAP_MB = 600       # peak RSS cap for the whole build+query run

# Build parameters tuned for tiny (3-6 point) trajectories: shallow
# shard trees, few boxes — the gate exercises scale, not pruning.
TREE_KWARGS = dict(
    normalized=True, min_node_size=400,
    max_branching=2, max_boxes=3, backend="numpy",
)


def synthetic_store(n, seed=7):
    """n random-walk trajectories straight into columnar arrays — no
    per-trajectory Python objects, so generation is O(points) numpy."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(3, 7, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    points = np.empty((total, 3))
    points[:, :2] = rng.normal(0, 1, (total, 2)).cumsum(axis=0) * 5.0
    # per-trajectory clocks: cumulative gaps, restarted at each offset
    gaps = np.cumsum(rng.uniform(1.0, 30.0, total))
    points[:, 2] = gaps - np.repeat(gaps[offsets[:-1]], lengths)
    return ColumnarStore(points, offsets)


def brute_force_knn(query, store, k, chunk=5_000):
    """Top-k by chunked edwp_many scan of the whole store, under the
    library-wide ascending (distance, traj_id) tie order."""
    best = []
    for lo in range(0, len(store), chunk):
        trajs = [store.trajectory(p) for p in range(lo, min(lo + chunk,
                                                            len(store)))]
        dists = edwp_many(query, trajs, normalized=True, backend="numpy")
        for t, d in zip(trajs, dists):
            best.append((d, t.traj_id))
    best.sort()
    return [(tid, d) for d, tid in best[:k]]


def rss_mb():
    """Peak RSS of this process in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.mark.benchmark(group="forest-scale")
def test_forest_scale_gate(benchmark, results_dir, tmp_path):
    store_dir = tmp_path / "store"

    t0 = time.perf_counter()
    synthetic_store(N).save(store_dir)
    pack_s = time.perf_counter() - t0

    store = ColumnarStore.load(store_dir, mmap=True)
    assert len(store) == N

    def build():
        return TrajForest.from_store(store, num_shards=SHARDS, seed=7,
                                     **TREE_KWARGS)

    t0 = time.perf_counter()
    forest = benchmark.pedantic(build, rounds=1, iterations=1)
    build_s = time.perf_counter() - t0
    assert len(forest) == N
    assert forest.num_shards == SHARDS

    # exactness at scale: sampled forest answers vs full brute-force scan
    rng = np.random.default_rng(99)
    query_positions = rng.choice(N, QUERIES, replace=False)
    t0 = time.perf_counter()
    query_s_total = scan_s_total = 0.0
    stats = TrajTreeStats()
    for pos in query_positions:
        query = store.trajectory(int(pos))
        t1 = time.perf_counter()
        got = forest.knn(query, K, stats=stats)
        t2 = time.perf_counter()
        want = brute_force_knn(query, store, K)
        scan_s_total += time.perf_counter() - t2
        query_s_total += t2 - t1
        assert got == want, int(pos)
    check_s = time.perf_counter() - t0
    # the index has to beat the scan it replaces (ROADMAP item 1)
    assert query_s_total < scan_s_total

    # exactness vs a literal single tree, on a subsample
    sub = [store.trajectory(p) for p in range(SUBSAMPLE)]
    tree = TrajTree(sub, seed=7, **TREE_KWARGS)
    sub_forest = TrajForest(sub, num_shards=7, seed=7, **TREE_KWARGS)
    for pos in (0, 123, SUBSAMPLE - 1):
        assert sub_forest.knn(sub[pos], K) == tree.knn(sub[pos], K)

    peak_mb = rss_mb()
    assert peak_mb < RSS_CAP_MB, (
        f"peak RSS {peak_mb:.0f} MB exceeds the {RSS_CAP_MB} MB gate"
    )

    rows = [
        f"{'trajectories':<28}{N:>12,}",
        f"{'points':<28}{store.num_points:>12,}",
        f"{'store size (MB)':<28}{store.nbytes / 1e6:>12.1f}",
        f"{'shards':<28}{SHARDS:>12}",
        f"{'pack+save (s)':<28}{pack_s:>12.1f}",
        f"{'forest build (s)':<28}{build_s:>12.1f}",
        f"{'build rate (traj/s)':<28}{N / build_s:>12,.0f}",
        f"{'knn query, k=10 (ms)':<28}"
        f"{query_s_total / QUERIES * 1000:>12.1f}",
        f"{'brute-force scan (ms)':<28}"
        f"{scan_s_total / QUERIES * 1000:>12.1f}",
        f"{'exact distances per query':<28}"
        f"{stats.exact_computations / QUERIES:>12,.0f}",
        f"{'oracle check (s)':<28}{check_s:>12.1f}",
        f"{'peak RSS (MB)':<28}{peak_mb:>12.0f}",
        f"{'RSS gate (MB)':<28}{RSS_CAP_MB:>12}",
        "",
        f"gate: {QUERIES} sampled queries == brute-force edwp_many scan "
        f"of all {N:,}, and faster than it; subsample forest == single "
        f"TrajTree; peak RSS under {RSS_CAP_MB} MB",
    ]
    emit(results_dir, "forest_gate",
         f"Forest scale gate — {N:,} trajectories, {SHARDS} shards "
         f"(mmap'd columnar store)", "\n".join(rows))
