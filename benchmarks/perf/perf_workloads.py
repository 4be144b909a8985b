"""The four workloads of the perf harness.

Each workload measures the stack from outside, through the public
surfaces of ``core``, ``index``, ``store`` and ``service``:

``setup(seed, cleanup)``
    builds everything the timed phase needs from the seed alone and
    registers what must be undone (temp directories, the server
    subprocess, client connections) on the ``cleanup`` exit stack;
``measure(state, seconds)``
    the timed phase, closed loop: every caller waits for its reply;
``verify(state, measured)``
    compares the timed answers with oracles, outside the timed region,
    and returns ``(attempted, failed)``;
``layers(...)``
    the per-layer metrics of a traced run.

Why these four, which layer each stresses and which metric each should
move is written down in README.md next to this file.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.edwp import edwp, edwp_many
from repro.datasets.beijing import BeijingConfig, generate_beijing
from repro.index import persistence
from repro.index.forest import TrajForest
from repro.index.trajtree import TrajTree, TrajTreeStats
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.store import ColumnarStore

import perf_measure as pm
import perf_spans
from perf_measure import now

BACKEND = "numpy"
K = 10
HERE = Path(__file__).resolve().parent
#: Everything the harness writes lands here, inside the checkout.
WORK = pm.REPO_ROOT / ".bench_build" / "perf"

#: Shorter trips than the generator's default (about 10 points instead of
#: 30) so that a run fits several builds of a tree deep enough to prune.
BEIJING = BeijingConfig(min_hops=8, max_hops=24, sample_low=30.0,
                        sample_high=120.0)

#: ROADMAP's "1049 ms" forest shape: shallow shard trees over tiny
#: trajectories, so fan-out and merge dominate and pruning barely engages.
FOREST_KWARGS = dict(normalized=True, num_vps=2, vp_levels=1,
                     max_branching=2, max_boxes=3, backend=BACKEND)

SIZES = {
    "full": {
        "tree_knn": dict(replicas=6, n=60, queries=40),
        "forest_knn": dict(replicas=3, n=480, shards=6, leaf=40,
                           queries=70),
        "service_zipf": dict(replicas=3, n=400, shards=4, leaf=50, pool=120,
                             cache=60, warmup=240, clients=2),
        "build_update": dict(replicas=6, n=40, inserts=20, deletes=10,
                             reads=50),
    },
    # the single copy a traced run measures: enough distinct ops of every
    # kind for the per-kind percentiles
    "trace": {
        "tree_knn": dict(replicas=1, n=60, queries=240),
        "forest_knn": dict(replicas=1, n=480, shards=6, leaf=40,
                           queries=100),
        "service_zipf": dict(replicas=1, n=400, shards=4, leaf=50, pool=120,
                             cache=60, warmup=240, clients=2),
        "build_update": dict(replicas=1, n=40, inserts=40, deletes=20,
                             reads=300),
    },
    "smoke": {
        "tree_knn": dict(replicas=1, n=20, queries=6),
        "forest_knn": dict(replicas=1, n=60, shards=3, leaf=10, queries=4),
        "service_zipf": dict(replicas=1, n=40, shards=2, leaf=10, pool=8,
                             cache=4, warmup=8, clients=2),
        "build_update": dict(replicas=1, n=16, inserts=4, deletes=2,
                             reads=5),
    },
}


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #


def op_kinds(count: int, rng: random.Random) -> List[str]:
    """The tree_knn op mix: 70% knn / 15% range / 15% sub-trajectory knn."""
    return rng.choices(["knn", "range", "subknn"], weights=[70, 15, 15],
                       k=count)


def zipf_draws(pool: int, count: int, rng: np.random.Generator,
               s: float = 1.0) -> np.ndarray:
    """``count`` indices into a pool of ``pool`` entries, rank ``r`` drawn
    with probability proportional to ``r ** -s``."""
    weights = np.arange(1, pool + 1, dtype=np.float64) ** -s
    return rng.choice(pool, size=count, p=weights / weights.sum())


def update_sequence(n: int, inserts: int, deletes: int,
                    rng: random.Random) -> List[Tuple[str, int]]:
    """A seeded interleaving of inserts and deletes over a tree of ``n``.

    ``("insert", i)`` adds the ``i``-th extra trajectory under id
    ``n + i``; ``("delete", tid)`` removes an id that is live at that
    point (an original or an earlier insert), so no op can fail.
    """
    kinds = ["insert"] * inserts + ["delete"] * deletes
    rng.shuffle(kinds)
    live = list(range(n))
    out: List[Tuple[str, int]] = []
    inserted = 0
    for kind in kinds:
        if kind == "insert":
            out.append(("insert", inserted))
            live.append(n + inserted)
            inserted += 1
        else:
            out.append(("delete", live.pop(rng.randrange(len(live)))))
    return out


def tiny_store(n: int, rng: np.random.Generator,
               extent: float) -> ColumnarStore:
    """``n`` random walks of 3-6 points written straight into columnar
    arrays.  Starts are uniform over an ``extent`` square, so density —
    and with it how much a query refines — does not drift with the seed.
    """
    lengths = rng.integers(3, 7, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    first = offsets[:-1]
    steps = rng.normal(0.0, 5.0, (total, 2))
    steps[first] = rng.uniform(0.0, extent, (n, 2))
    walk = steps.cumsum(axis=0)
    points = np.empty((total, 3))
    points[:, :2] = walk - np.repeat(walk[first] - steps[first], lengths,
                                     axis=0)
    clock = np.cumsum(rng.uniform(1.0, 30.0, total))
    points[:, 2] = clock - np.repeat(clock[first], lengths)
    return ColumnarStore(points, offsets)


def forest_extent(n: int) -> float:
    return 20.0 * float(np.sqrt(n))


# ---------------------------------------------------------------------- #
# oracles and checks
# ---------------------------------------------------------------------- #


def same_answer(got: Sequence, want: Sequence, tol: float = 1e-9) -> bool:
    """Same ids in the same order, distances equal to ``tol`` relative
    (the backends agree bitwise on typical inputs; see the verify notes)."""
    if len(got) != len(want):
        return False
    for (gid, gd), (wid, wd) in zip(got, want):
        if gid != wid or abs(gd - wd) > tol * max(1.0, abs(wd)):
            return False
    return True


def brute_force_knn(query, store: ColumnarStore, k: int,
                    chunk: int = 2000) -> List[Tuple[int, float]]:
    """Top-k by a chunked ``edwp_many`` scan of the whole store."""
    best: List[Tuple[float, int]] = []
    for lo in range(0, len(store), chunk):
        trajs = [store.trajectory(p)
                 for p in range(lo, min(lo + chunk, len(store)))]
        dists = edwp_many(query, trajs, normalized=True, backend=BACKEND)
        best.extend((d, t.traj_id) for t, d in zip(trajs, dists))
    best.sort()
    return [(tid, d) for d, tid in best[:k]]


@contextlib.contextmanager
def python_backend(trees: Sequence[TrajTree]):
    """Run the enclosed queries on the reference backend."""
    for tree in trees:
        tree.backend = "python"
    try:
        yield
    finally:
        for tree in trees:
            tree.backend = BACKEND


def work_dir(cleanup: contextlib.ExitStack) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    cleanup.callback(shutil.rmtree, path, ignore_errors=True)
    return path


def dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


@dataclass
class Measured:
    """What one timed phase produced."""

    latencies_ms: List[float]          # the end-to-end latency samples
    ops: int                           # throughput numerator ...
    wall: float                        # ... and denominator, seconds
    answers: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    slowdown: float = 1.0              # measured / reported time

    @classmethod
    def from_rounds(cls, rounds: pm.Rounds, answers: list) -> "Measured":
        return cls(rounds.latencies_ms(), len(rounds.kinds), rounds.wall,
                   answers, {"rounds": rounds}, rounds.slowdown)


# ---------------------------------------------------------------------- #
# per-layer metrics shared by the workloads
# ---------------------------------------------------------------------- #


def p_or_none(values: Sequence[float], q: float,
              min_beyond: int) -> Optional[float]:
    try:
        return pm.percentile(values, q, min_beyond)
    except ValueError:
        return None


def query_span_metrics(spans: Sequence[Sequence],
                       op_wall: float) -> Dict[str, float]:
    """Search-path metrics from the spans of a traced query pass.

    A *query* is a ``TrajForest.knn`` span when the forest is in play,
    otherwise a top-level ``TrajTree`` query span; ``ms_per_query`` divides
    a layer's total time by the number of queries.
    """
    spans = [s for s in spans if s[2] is not None]
    if not spans:
        return {}
    tot = perf_spans.totals(spans)
    selfs = perf_spans.self_times(spans)
    forest = [i for i, s in enumerate(spans) if s[0] == "index.forest.knn"]
    tree_q = [i for i, s in enumerate(spans)
              if s[0] in perf_spans.QUERY_SPANS]
    roots = forest or tree_q
    if not roots:
        return {}
    nq = len(roots)
    out: Dict[str, float] = {}

    def per_query(metric: str, *names: str) -> None:
        rows = [tot[n] for n in names if n in tot]
        if rows:
            out[metric] = sum(r["total_s"] for r in rows) * 1e3 / nq

    def per_call(metric: str, name: str) -> None:
        if name in tot:
            out[metric] = tot[name]["count"] / tot[name]["calls"]

    per_query("core.edwp_many.ms_per_query", "core.edwp_many")
    per_call("core.edwp_many.pairs_per_call", "core.edwp_many")
    per_query("core.edwp_sub_many.ms_per_query", "core.edwp_sub_many")
    per_query("core.geometry.quick_bound.ms_per_query",
              "core.geometry.quick_bound")
    per_query("index.tboxseq.box_bound.ms_per_query",
              "index.tboxseq.box_bound")
    per_call("index.tboxseq.box_bound.seqs_per_call",
             "index.tboxseq.box_bound")
    per_query("index.vantage.rank.ms_per_query", "index.vantage.describe",
              "index.vantage.top_k")
    out["index.trajtree.self.ms_per_query"] = (
        sum(selfs[i] for i in tree_q) * 1e3 / nq
    )
    if forest:
        out["index.forest.self.ms_per_query"] = (
            sum(selfs[i] for i in forest) * 1e3 / nq
        )
        slowest: Dict[int, float] = {}
        shard_ms = []
        for i in tree_q:
            parent = spans[i][3]
            if parent >= 0 and spans[parent][0] == "index.forest.knn":
                ms = (spans[i][2] - spans[i][1]) * 1e3
                shard_ms.append(ms)
                slowest[parent] = max(slowest.get(parent, 0.0), ms)
        if shard_ms:
            out["index.forest.shard_knn.p50_ms"] = statistics.median(shard_ms)
            out["index.forest.shard_knn.max_ms_per_query"] = (
                sum(slowest.values()) / len(slowest)
            )
    if op_wall > 0:
        covered = sum(spans[i][2] - spans[i][1] for i in roots)
        out["bench.span_coverage_share"] = covered / op_wall
    return out


def setup_span_metrics(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Write-path and persistence metrics from the spans of a set-up."""
    spans = [s for s in spans if s[2] is not None]
    tot = perf_spans.totals(spans)
    out: Dict[str, float] = {}
    seconds = {
        "index.partition.s": "index.partition",
        "index.vantage.build.s": "index.vantage.build",
        "index.tboxseq.from_trajectories.s":
            "index.tboxseq.from_trajectories",
        "core.edwp_sub_fast_queries.s": "core.edwp_sub_fast_queries",
    }
    millis = {
        "index.persistence.save_tree.ms": "index.persistence.save_tree",
        "index.persistence.load_tree.ms": "index.persistence.load_tree",
        "index.persistence.save_forest.ms": "index.persistence.save_forest",
        "index.persistence.load_forest.ms": "index.persistence.load_forest",
        "index.warm_caches.ms": "index.warm_caches",
        "store.columnar.save.ms": "store.columnar.save",
        "store.columnar.load_mmap.ms": "store.columnar.load",
    }
    for metric, name in seconds.items():
        if name in tot:
            out[metric] = tot[name]["total_s"]
    for metric, name in millis.items():
        if name in tot:
            out[metric] = tot[name]["total_s"] * 1e3
    grow, build = "index.tboxseq.with_trajectory", "index.trajtree.build"
    if grow in tot and build in tot:
        out["index.trajtree.build.with_trajectory.share"] = (
            tot[grow]["total_s"] / tot[build]["total_s"])
    return out


def counter_metrics(prefix: str, stats: TrajTreeStats, calls: int,
                    db_size: int) -> Dict[str, float]:
    """Exact ``TrajTreeStats`` counters per query, plus the refined share
    (exact distances evaluated per query over the database size)."""
    names = ["exact_computations", "bound_computations"]
    if prefix == "index.trajtree":
        names += ["nodes_visited", "quick_bound_computations",
                  "members_pruned"]
    out = {f"{prefix}.{n}_per_query": getattr(stats, n) / calls
           for n in names}
    out[f"{prefix}.refined_share"] = (
        stats.exact_computations / calls / db_size
    )
    return out


def core_direct(trajs: Sequence) -> Dict[str, float]:
    a, b = trajs[0], trajs[1]
    batch = [trajs[i % len(trajs)] for i in range(128)]
    return {
        "core.edwp.pair_us": pm.time_call(lambda: edwp(a, b, backend=BACKEND)),
        "core.edwp_many.pair_us": pm.time_call(
            lambda: edwp_many(a, batch, backend=BACKEND)) / len(batch),
    }


class Workload:
    """Shared shape of the workloads (see the module docstring)."""

    name = ""
    #: whose peak RSS is reported: this process or its server subprocess
    rss_of_children = False

    def __init__(self, sizes: dict, min_beyond: int = pm.MIN_BEYOND):
        self.sizes = dict(sizes)
        self.replicas = self.sizes["replicas"]
        self.min_beyond = min_beyond

    def measure_traced(self, state, seconds: float,
                       recorder: perf_spans.SpanRecorder):
        """The timed phase again with the wrappers installed; returns the
        measurement and the spans it produced."""
        recorder.install()
        try:
            measured = self.measure(state, seconds)
        finally:
            recorder.uninstall()
        return measured, recorder.take()


# ---------------------------------------------------------------------- #
# tree_knn
# ---------------------------------------------------------------------- #


#: op kind -> (TrajTree query method, its brute-force oracle)
TREE_OPS = {
    "knn": ("knn", "knn_scan"),
    "range": ("range_query", "range_query_scan"),
    "subknn": ("subtrajectory_knn", "subtrajectory_knn_scan"),
}


@dataclass
class TreeState:
    tree: TrajTree
    db: list
    queries: list
    kinds: List[str]
    radius: float
    build_s: float
    points: int                      # st-points bulk-loaded in build_s
    dir: Path
    stats: TrajTreeStats = field(default_factory=TrajTreeStats)
    calls: int = 0


class TreeKnn(Workload):
    name = "tree_knn"

    def setup(self, seed: int, cleanup) -> TreeState:
        n, nq = self.sizes["n"], self.sizes["queries"]
        trajs = generate_beijing(n + nq, seed=seed, config=BEIJING)
        db, queries = trajs[:n], trajs[n:]
        tree, build_s = pm.Stopwatch(5).time(lambda: TrajTree(
            db, normalized=True, num_vps=8, backend=BACKEND, seed=seed))
        tree.warm_caches()
        probes = queries[:: max(1, nq // 9)]
        radius = statistics.median(tree.knn(q, K)[-1][1] for q in probes)
        kinds = op_kinds(nq, random.Random(seed))
        return TreeState(tree, db, queries, kinds, radius, build_s,
                         sum(len(t) for t in db), work_dir(cleanup))

    @staticmethod
    def _call(st: TreeState, kind: str, q, stats=None):
        query = getattr(st.tree, TREE_OPS[kind][0])
        return query(q, st.radius if kind == "range" else K, stats=stats)

    @staticmethod
    def _oracle(st: TreeState, kind: str, q):
        scan = getattr(st.tree, TREE_OPS[kind][1])
        return scan(q, st.radius if kind == "range" else K)

    def measure(self, st: TreeState, seconds: float) -> Measured:
        ops = [lambda kind=kind, q=q: self._call(st, kind, q, st.stats)
               for kind, q in zip(st.kinds, st.queries)]
        rounds, answers = pm.run_rounds(ops, st.kinds, seconds)
        st.calls += len(ops) * len(rounds.walls)
        return Measured.from_rounds(rounds, answers)

    def verify(self, st: TreeState, m: Measured) -> Tuple[int, int]:
        failed = 0
        for kind, q, got in zip(st.kinds, st.queries, m.answers):
            failed += not same_answer(got, self._oracle(st, kind, q))
        with python_backend([st.tree]):
            for kind, q, got in list(zip(st.kinds, st.queries,
                                         m.answers))[:3]:
                failed += not same_answer(got, self._call(st, kind, q))
        return len(m.answers) + 3, failed

    def footprint(self, st: TreeState) -> Tuple[int, int]:
        """(snapshot bytes, raw point bytes) of the index being queried."""
        path = st.dir / "tree.pkl"
        persistence.save_tree(st.tree, path)
        return dir_bytes(path), sum(t.data.nbytes for t in st.db)

    def layers(self, st: TreeState, base: Measured, traced: Measured,
               setup_spans, query_spans) -> Dict[str, float]:
        rounds = base.extra["rounds"]
        out = setup_span_metrics(setup_spans)
        out.update(query_span_metrics(
            query_spans, traced.extra["rounds"].raw_seconds))
        for kind in TREE_OPS:
            out[f"index.trajtree.{kind}.p50_ms"] = p_or_none(
                rounds.latencies_ms(kind), 0.5, self.min_beyond)
        out.update(counter_metrics("index.trajtree", st.stats, st.calls,
                                   len(st.db)))
        sample = [q for q, k in zip(st.queries, st.kinds) if k == "knn"][:30]
        t0 = now()
        for q in sample:
            st.tree.knn(q, K)
        t1 = now()
        for q in sample:
            st.tree.knn_scan(q, K)
        out["index.trajtree.scan_speedup"] = (now() - t1) / (t1 - t0)
        out["index.trajtree.height"] = st.tree.height()
        out["index.trajtree.node_count"] = st.tree.node_count()
        out.update(core_direct(st.db))
        return out


# ---------------------------------------------------------------------- #
# forest_knn
# ---------------------------------------------------------------------- #


@dataclass
class ForestState:
    forest: TrajForest
    store: ColumnarStore
    queries: list
    build_s: float
    points: int                      # st-points bulk-loaded in build_s
    dir: Path
    stats: TrajTreeStats = field(default_factory=TrajTreeStats)
    calls: int = 0


def build_forest(sizes: dict, seed: int, root: Path):
    """store arrays -> save -> mmap load -> forest -> save -> load -> warm:
    the path a served forest takes.  Returns the loaded forest, the
    mmap'd store, the build seconds and the rng the caller continues."""
    rng = np.random.default_rng(seed)
    n = sizes["n"]
    tiny_store(n, rng, forest_extent(n)).save(root / "store")
    store = ColumnarStore.load(root / "store", mmap=True)
    forest, build_s = pm.Stopwatch(5).time(lambda: TrajForest.from_store(
        store, num_shards=sizes["shards"], seed=seed,
        min_node_size=sizes["leaf"], **FOREST_KWARGS,
    ))
    persistence.save_forest(forest, root / "forest")
    forest = persistence.load_forest(root / "forest")
    forest.warm_caches()
    return forest, store, build_s, rng


class ForestKnn(Workload):
    name = "forest_knn"

    def setup(self, seed: int, cleanup) -> ForestState:
        root = work_dir(cleanup)
        forest, store, build_s, rng = build_forest(self.sizes, seed, root)
        queries = tiny_store(self.sizes["queries"], rng,
                             forest_extent(self.sizes["n"])).trajectories()
        return ForestState(forest, store, queries, build_s, store.num_points,
                           root)

    def measure(self, st: ForestState, seconds: float) -> Measured:
        forest, stats = st.forest, st.stats
        ops = [lambda q=q: forest.knn(q, K, stats=stats) for q in st.queries]
        kinds = ["knn"] * len(ops)
        rounds, answers = pm.run_rounds(ops, kinds, seconds)
        st.calls += len(ops) * len(rounds.walls)
        return Measured.from_rounds(rounds, answers)

    def verify(self, st: ForestState, m: Measured) -> Tuple[int, int]:
        failed = 0
        step = max(1, len(st.queries) // 10)
        sampled = list(zip(st.queries, m.answers))[::step][:10]
        for q, got in sampled:
            failed += not same_answer(got, brute_force_knn(q, st.store, K))
        with python_backend(st.forest.shards):
            for q, got in sampled[:3]:
                failed += not same_answer(got, st.forest.knn(q, K))
        return len(sampled) + 3, failed

    def footprint(self, st: ForestState) -> Tuple[int, int]:
        return dir_bytes(st.dir / "forest"), st.store.points.nbytes

    def layers(self, st: ForestState, base: Measured, traced: Measured,
               setup_spans, query_spans) -> Dict[str, float]:
        out = setup_span_metrics(setup_spans)
        out.update(query_span_metrics(
            query_spans, traced.extra["rounds"].raw_seconds))
        out.update(counter_metrics("index.forest", st.stats, st.calls,
                                   len(st.store)))
        shard_of = st.forest.shard_of
        out["index.forest.contributing_shards_per_query"] = statistics.mean(
            len({shard_of(tid) for tid, _ in answer})
            for answer in base.answers
        )
        snapshot, raw = self.footprint(st)
        out["index.persistence.snapshot_bytes"] = snapshot
        out["store.columnar.bytes_per_point"] = (
            dir_bytes(st.dir / "store") / st.store.num_points
        )
        positions = list(range(0, len(st.store), max(1, len(st.store) // 64)))
        out["store.columnar.trajectory_view.us"] = pm.time_call(
            lambda: [st.store.trajectory(p) for p in positions]
        ) / len(positions)
        return out


# ---------------------------------------------------------------------- #
# service_zipf
# ---------------------------------------------------------------------- #


@dataclass
class ServiceState:
    root: Path
    store: ColumnarStore
    pool: list
    warm: List[np.ndarray]           # cache-filling requests per client
    draws: List[np.ndarray]          # the timed request sequence per client
    build_s: float
    points: int                      # st-points bulk-loaded in build_s
    startup_s: float
    port: int
    loop: asyncio.AbstractEventLoop
    clients: List[ServiceClient]
    stats_before: dict
    forest: Optional[TrajForest] = None     # direct-library oracle ...
    oracle: Optional[list] = None           # ... and its answer per pool entry


def start_server(root: Path, cache: int, cleanup,
                 spans_out: Optional[Path] = None):
    """Spawn the server through the public CLI (or, traced, through the
    benchmark's launcher around that same CLI); returns (port, seconds
    from spawn to banner).  Stopping it is registered on ``cleanup``."""
    argv = ["--backend", BACKEND, "serve", "--forest", str(root / "forest"),
            "--port", "0", "--cache-size", str(cache)]
    if spans_out is None:
        cmd = [sys.executable, "-m", "repro"] + argv
    else:
        cmd = [sys.executable, str(HERE / "traced_server.py"),
               str(spans_out)] + argv
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(pm.REPO_ROOT / "src")
               + (os.pathsep + inherited if inherited else ""))
    t0 = now()
    with open(root / "server.err", "ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=root)
    cleanup.callback(stop_server, proc)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        banner = proc.stdout.readline().decode()
    finally:
        watchdog.cancel()
    if " on " not in banner:
        raise RuntimeError(
            f"server did not come up: {banner!r} "
            f"{(root / 'server.err').read_text()[-2000:]}"
        )
    return int(banner.rsplit(":", 1)[1]), now() - t0


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then SIGKILL if it does not leave; always
    waits, so no server outlives the harness."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    proc.stdout.close()


@dataclass
class Reply:
    """One request as its client saw it."""

    index: int                       # which pool entry was asked
    ms: float                        # round trip, as measured
    at: float                        # when the reply arrived
    results: Optional[list]          # None: the request failed ...
    meta: object                     # ... and this is the error code

    @property
    def hit(self) -> bool:
        return self.results is not None and self.meta["cache_hit"]


async def _client_loop(client: ServiceClient, pool: list,
                       draws: np.ndarray, deadline: Optional[float]) -> list:
    """One closed-loop caller: next request only after the reply."""
    replies = []
    for index in draws:
        t0 = now()
        if deadline is not None and t0 >= deadline:
            break
        try:
            results, meta = await client.knn(pool[int(index)], K)
        except protocol.ServiceError as exc:
            results, meta = None, exc.code
        at = now()
        replies.append(Reply(int(index), (at - t0) * 1e3, at, results, meta))
    return replies


async def _drive(clients, pool, draws, seconds: Optional[float]):
    """All clients at once, with the speed probe ticking beside them.
    Returns ``(replies, wall seconds, [(time, probe seconds), ...])``."""
    probes = [(now(), pm.probe())]

    async def tick():
        while True:
            await asyncio.sleep(0.02)
            probes.append((now(), pm.probe()))

    ticker = asyncio.ensure_future(tick())
    t0 = now()
    deadline = None if seconds is None else t0 + seconds
    try:
        per_client = await asyncio.gather(*(
            _client_loop(c, pool, d, deadline)
            for c, d in zip(clients, draws)
        ))
    finally:
        ticker.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await ticker
    wall = now() - t0
    probes.append((now(), pm.probe()))
    return [r for replies in per_client for r in replies], wall, probes


def at_nominal_speed(replies: Sequence[Reply], probes) -> List[float]:
    """Each round trip restated at the probe's nominal speed, using the
    two probes nearest the moment its reply arrived."""
    times = [t for t, _ in probes]
    out = []
    for reply in replies:
        hi = min(bisect.bisect_left(times, reply.at), len(probes) - 1)
        near = (probes[max(hi - 1, 0)][1] + probes[hi][1]) / 2.0
        out.append(reply.ms * pm.PROBE_NOMINAL_S / near)
    return out


class ServiceZipf(Workload):
    name = "service_zipf"
    rss_of_children = True

    def setup(self, seed: int, cleanup) -> ServiceState:
        sz = self.sizes
        root = work_dir(cleanup)
        _forest, store, build_s, rng = build_forest(sz, seed, root)
        pool = tiny_store(sz["pool"], rng,
                          forest_extent(sz["n"])).trajectories()
        clients_n = sz["clients"]
        warm = [zipf_draws(sz["pool"], sz["warmup"] // clients_n, rng)
                for _ in range(clients_n)]
        draws = [zipf_draws(sz["pool"], 200_000, rng)
                 for _ in range(clients_n)]
        port, startup_s = start_server(root, sz["cache"], cleanup)
        loop = asyncio.new_event_loop()
        cleanup.callback(loop.close)
        st = ServiceState(root, store, pool, warm, draws, build_s,
                          store.num_points, startup_s, port, loop, [], {})
        self._connect(st, cleanup)
        return st

    def _connect(self, st: ServiceState, cleanup) -> None:
        """Open the client connections, fill the cache, note the counters."""
        run = st.loop.run_until_complete
        st.clients = [
            run(ServiceClient.connect("127.0.0.1", st.port))
            for _ in range(self.sizes["clients"])
        ]
        for client in st.clients:
            cleanup.callback(lambda c=client: run(c.aclose()))
        run(_drive(st.clients, st.pool, st.warm, None))
        st.stats_before = run(st.clients[0].stats())

    def measure(self, st: ServiceState, seconds: float) -> Measured:
        run = st.loop.run_until_complete
        replies, wall, probes = run(
            _drive(st.clients, st.pool, st.draws, seconds))
        slowdown = (statistics.median(p for _, p in probes)
                    / pm.PROBE_NOMINAL_S)
        wall /= slowdown
        return Measured(
            at_nominal_speed(replies, probes), len(replies), wall, replies,
            {"before": st.stats_before,
             "after": run(st.clients[0].stats())}, slowdown,
        )

    def measure_traced(self, st: ServiceState, seconds: float, recorder):
        """Same topology, second server: the benchmark-owned launcher
        installs the wrappers, runs the same CLI and dumps its spans when
        SIGTERM drains it."""
        spans_out = st.root / "spans.json"
        with contextlib.ExitStack() as cleanup:
            port, _ = start_server(st.root, self.sizes["cache"], cleanup,
                                   spans_out)
            traced = dataclasses.replace(st, port=port, clients=[],
                                         stats_before={})
            self._connect(traced, cleanup)
            measured = self.measure(traced, seconds)
        spans = json.loads(spans_out.read_text())
        recorder.missing.extend(spans["missing"])
        return measured, spans["spans"]

    def _oracle(self, st: ServiceState) -> list:
        if st.oracle is None:
            forest = persistence.load_forest(st.root / "forest")
            forest.warm_caches()
            st.forest = forest
            st.oracle = [forest.knn(q, K) for q in st.pool]
        return st.oracle

    def verify(self, st: ServiceState, m: Measured) -> Tuple[int, int]:
        oracle = self._oracle(st)
        failed = 0
        for reply in m.answers:
            # ids and distances bit-equal after the JSON round trip
            failed += reply.results != oracle[reply.index]
        with python_backend(st.forest.shards):
            for index in range(min(3, len(st.pool))):
                failed += not same_answer(
                    oracle[index], st.forest.knn(st.pool[index], K))
        return len(m.answers) + min(3, len(st.pool)), failed

    def footprint(self, st: ServiceState) -> Tuple[int, int]:
        return dir_bytes(st.root / "forest"), st.store.points.nbytes

    def layers(self, st: ServiceState, base: Measured, traced: Measured,
               setup_spans, query_spans) -> Dict[str, float]:
        out = setup_span_metrics(setup_spans)
        out.update(query_span_metrics(query_spans, 0.0))
        ok = [r for r in base.answers if r.results is not None]
        hits = [r for r in ok if r.hit]
        misses = [r for r in ok if not r.hit]
        mb = self.min_beyond

        def p50(values):
            return p_or_none(values, 0.5, mb)

        out["service.client.rtt_hit.p50_ms"] = p50([r.ms for r in hits])
        out["service.client.rtt_miss.p50_ms"] = p50([r.ms for r in misses])
        out["service.server.submit_hit.p50_ms"] = p50(
            [r.meta["latency_ms"] for r in hits])
        out["service.server.submit_miss.p50_ms"] = p50(
            [r.meta["latency_ms"] for r in misses])
        out["service.wire_overhead_hit.p50_ms"] = p50(
            [r.ms - r.meta["latency_ms"] for r in hits])
        dispatch = [
            (s[2] - s[1]) * 1e3 for s in query_spans
            if s[0] == "index.forest.query_many" and s[2] is not None
        ]
        traced_miss = [
            r.meta["latency_ms"] for r in traced.answers
            if r.results is not None and not r.hit
        ]
        if dispatch and traced_miss:
            out["service.server.dispatch_overhead.p50_ms"] = (
                statistics.median(traced_miss) - statistics.median(dispatch)
            )
        out["service.cache.hit_ratio"] = len(hits) / max(1, len(ok))
        before, after = base.extra["before"], base.extra["after"]

        def grew(*path):
            """How much a ``stats`` counter (or dict of counters) grew
            over the timed phase."""
            a, b = after, before
            for key in path:
                a, b = a[key], b[key]
            if isinstance(a, dict):
                return sum(a.values()) - sum(b.values())
            return a - b

        batches = grew("batches", "dispatched")
        out["service.cache.evictions"] = grew("cache", "evictions")
        out["service.batcher.dispatches"] = batches
        out["service.batcher.mean_batch_size"] = (
            grew("batches", "requests") / batches if batches else 0.0)
        out["service.batcher.coalesced"] = grew("coalesced")
        out["service.admission.shed"] = grew("overload", "admission", "shed")
        out["service.errors"] = grew("errors")
        out["service.server.startup.s"] = st.startup_s
        out["index.persistence.snapshot_bytes"] = self.footprint(st)[0]
        out.update(codec_direct(st.pool[0], self._oracle(st)[0]))
        return out


def codec_direct(query, results) -> Dict[str, float]:
    """Stand-alone cost of each wire-codec step on one pool query."""
    request = protocol.QueryRequest("knn", query, K)
    line = protocol.encode_request(request)
    response = {"ok": True, "result": [[t, d] for t, d in results],
                "meta": {"latency_ms": 1.0, "cache_hit": True}}
    response_line = protocol.encode_response(response)
    return {
        "service.protocol.encode_request.us": pm.time_call(
            lambda: protocol.encode_request(request)),
        "service.protocol.decode_request.us": pm.time_call(
            lambda: protocol.request_from_obj(protocol.decode_request(line))),
        "service.protocol.encode_response.us": pm.time_call(
            lambda: protocol.encode_response(response)),
        "service.protocol.decode_response.us": pm.time_call(
            lambda: protocol.decode_response(response_line)),
        "service.protocol.query_digest.us": pm.time_call(
            lambda: protocol.query_digest(request)),
    }


# ---------------------------------------------------------------------- #
# build_update
# ---------------------------------------------------------------------- #


@dataclass
class UpdateState:
    tree: TrajTree
    db: list
    extra: list                      # trajectories the inserts add
    reads: list
    sequence: List[Tuple[str, int]]
    build_s: float
    points: int                      # st-points bulk-loaded in build_s
    dir: Path
    snapshot_bytes: int = 0
    raw_bytes: int = 0
    stats: TrajTreeStats = field(default_factory=TrajTreeStats)
    calls: int = 0
    updated: bool = False


class BuildUpdate(Workload):
    name = "build_update"

    def setup(self, seed: int, cleanup) -> UpdateState:
        sz = self.sizes
        n = sz["n"]
        trajs = generate_beijing(n + sz["inserts"] + sz["reads"], seed=seed,
                                 config=BEIJING)
        db = trajs[:n]
        extra = trajs[n:n + sz["inserts"]]
        reads = trajs[n + sz["inserts"]:]
        sequence = update_sequence(n, sz["inserts"], sz["deletes"],
                                   random.Random(seed))
        tree, build_s = pm.Stopwatch(5).time(lambda: TrajTree(
            db, normalized=True, num_vps=8, backend=BACKEND, seed=seed))
        return UpdateState(tree, db, extra, reads, sequence, build_s,
                           sum(len(t) for t in db), work_dir(cleanup))

    def _update(self, st: UpdateState) -> dict:
        """Phases b and c: the seeded updates, then save -> load -> warm."""
        n = len(st.db)
        lat = {"insert": [], "delete": []}
        failed = 0
        watch = pm.Stopwatch()

        def apply(kind, arg):
            try:
                if kind == "insert":
                    st.tree.insert(st.extra[arg], traj_id=n + arg)
                else:
                    st.tree.delete(arg)
            except (KeyError, ValueError):
                return 1
            return 0

        for kind, arg in st.sequence:
            wrong, took = watch.time(lambda: apply(kind, arg))
            failed += wrong
            lat[kind].append(took * 1e3)
        path = st.dir / "tree.pkl"
        t0 = now()
        persistence.save_tree(st.tree, path)
        t1 = now()
        st.tree = persistence.load_tree(path)
        t2 = now()
        st.tree.warm_caches()
        t3 = now()
        st.snapshot_bytes = dir_bytes(path)
        st.raw_bytes = sum(st.tree.get(t).data.nbytes for t in st.tree.ids())
        st.updated = True
        return {"update_ms": lat, "update_wall": watch.seconds,
                "update_failed": failed,
                "save_ms": (t1 - t0) * 1e3, "load_ms": (t2 - t1) * 1e3,
                "warm_ms": (t3 - t2) * 1e3}

    def measure(self, st: UpdateState, seconds: float) -> Measured:
        start = now()
        extra = {} if st.updated else self._update(st)
        tree, stats = st.tree, st.stats
        ops = [lambda q=q: tree.knn(q, K, stats=stats) for q in st.reads]
        rounds, answers = pm.run_rounds(ops, ["knn"] * len(ops),
                                        seconds - (now() - start))
        st.calls += len(ops) * len(rounds.walls)
        measured = Measured.from_rounds(rounds, answers)
        measured.extra.update(extra)
        return measured

    def verify(self, st: UpdateState, m: Measured) -> Tuple[int, int]:
        failed = m.extra.get("update_failed", 0)
        for q, got in zip(st.reads, m.answers):
            failed += not same_answer(got, st.tree.knn_scan(q, K))
        deleted = {tid for kind, tid in st.sequence if kind == "delete"}
        live = set(range(len(st.db) + len(st.extra))) - deleted
        failed += set(st.tree.ids()) != live
        with python_backend([st.tree]):
            for q, got in list(zip(st.reads, m.answers))[:3]:
                failed += not same_answer(got, st.tree.knn(q, K))
        return len(st.sequence) + len(m.answers) + 4, failed

    def footprint(self, st: UpdateState) -> Tuple[int, int]:
        return st.snapshot_bytes, st.raw_bytes

    def layers(self, st: UpdateState, base: Measured, traced: Measured,
               setup_spans, query_spans) -> Dict[str, float]:
        out = setup_span_metrics(setup_spans)
        out.update(query_span_metrics(
            query_spans, traced.extra["rounds"].raw_seconds))
        out.update(counter_metrics("index.trajtree", st.stats, st.calls,
                                   len(st.tree)))
        lat = base.extra["update_ms"]
        mb = self.min_beyond
        out["index.trajtree.insert.p50_ms"] = p_or_none(lat["insert"], 0.5, mb)
        out["index.trajtree.delete.p50_ms"] = p_or_none(lat["delete"], 0.5, mb)
        out["index.trajtree.update_ops_per_s"] = (
            len(st.sequence) / base.extra["update_wall"])
        out["index.trajtree.knn.p50_ms"] = p_or_none(
            base.extra["rounds"].latencies_ms(), 0.5, mb)
        out["index.persistence.save_tree.ms"] = base.extra["save_ms"]
        out["index.persistence.load_tree.ms"] = base.extra["load_ms"]
        out["index.warm_caches.ms"] = base.extra["warm_ms"]
        out["index.persistence.snapshot_bytes"] = st.snapshot_bytes
        out["index.trajtree.height"] = st.tree.height()
        out["index.trajtree.node_count"] = st.tree.node_count()
        out.update(core_direct(st.db))
        return out


WORKLOADS = {cls.name: cls for cls in (TreeKnn, ForestKnn, ServiceZipf,
                                       BuildUpdate)}
