"""Service resilience chaos gate (ISSUE 8).

One end-to-end pass over the fault model of DESIGN.md ("Fault model and
degraded serving"), every fault injected deterministically through
:mod:`repro.testing.faults`:

* a 16-shard ForestSnapshot is **damaged** — one shard truncated, one
  bit-flipped — and must load degraded (``on_shard_error="skip"``) with
  both failures named in the shard census;
* one **worker process is killed** mid-way through a parallel
  ``TrajForest.from_store`` build; the recovered forest must be
  bit-identical to an undisturbed serial build;
* the degraded forest is served over TCP while clients suffer **10%
  injected connection drops** (seeded, so the drop pattern is identical
  every run); retrying clients must get every answer, and every answer
  must be bit-identical to a healthy-shards-only oracle forest;
* the snapshot is **repaired** and the admin ``reload`` op swaps it in
  atomically; post-reload answers must match the full-forest oracle.

The service staying up is not a soft goal: any dropped query, any
mismatched answer, or a dead health endpoint fails the gate.  The
regenerated table lands in ``benchmarks/results/resilience_gate.txt``
and is uploaded as a CI artifact.
"""

import asyncio
import multiprocessing
import shutil
import time

import numpy as np
import pytest

from repro.index import TrajForest
from repro.index.persistence import load_forest, save_forest
from repro.service import (
    QueryService,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    serve,
)
from repro.store import ColumnarStore
from repro.testing.faults import FaultPlan, injected

from conftest import emit

N = 160                 # trajectories
SHARDS = 16
DAMAGED = (3, 8)        # shard_0003 truncated, shard_0008 bit-flipped
KILLED_SHARD = 5        # worker building this shard is killed
QUERIES = 24            # client queries under injected drops
DROP_RATE = 0.1
K = 5

TREE_KWARGS = dict(
    normalized=True, min_node_size=5,
    max_branching=2, max_boxes=3, backend="numpy",
)


def synthetic_store(n, seed=7):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(4, 8, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    points = np.empty((total, 3))
    points[:, :2] = rng.normal(0, 1, (total, 2)).cumsum(axis=0) * 5.0
    gaps = np.cumsum(rng.uniform(1.0, 30.0, total))
    points[:, 2] = gaps - np.repeat(gaps[offsets[:-1]], lengths)
    return ColumnarStore(points, offsets)


def damage_snapshot(root):
    """Truncate one shard, bit-flip another — two distinct failure
    modes, both of which the loader must catch and name."""
    truncated = root / f"shard_{DAMAGED[0]:04d}.pkl"
    truncated.write_bytes(truncated.read_bytes()[:100])
    flipped = root / f"shard_{DAMAGED[1]:04d}.pkl"
    raw = bytearray(flipped.read_bytes())
    raw[len(raw) // 2] ^= 0x20
    flipped.write_bytes(bytes(raw))


@pytest.mark.benchmark(group="service-resilience")
def test_service_resilience_gate(benchmark, results_dir, tmp_path):
    store_dir = tmp_path / "db.store"
    snap = tmp_path / "forest"
    pristine = tmp_path / "forest.pristine"

    synthetic_store(N).save(store_dir)
    store = ColumnarStore.load(store_dir, mmap=True)
    probes = [store.trajectory(int(p)) for p in
              np.random.default_rng(99).choice(N, QUERIES)]

    # ---- phase 1: worker kill during parallel build ------------------- #
    t0 = time.perf_counter()
    oracle = TrajForest.from_store(store_dir, num_shards=SHARDS, seed=7,
                                   **TREE_KWARGS)
    serial_s = time.perf_counter() - t0
    fork = multiprocessing.get_start_method() == "fork"
    if fork:
        kill_plan = FaultPlan().on(
            f"forest.build_shard:{KILLED_SHARD}", "exit", 17
        )
        t0 = time.perf_counter()
        with injected(kill_plan):
            forest = TrajForest.from_store(store_dir, num_shards=SHARDS,
                                           seed=7, workers=2, **TREE_KWARGS)
        killed_s = time.perf_counter() - t0
        assert KILLED_SHARD in forest.rebuilt_shards
        assert forest.ids() == oracle.ids()
        for q in probes[:4]:
            assert forest.knn(q, K) == oracle.knn(q, K)
    else:                               # pragma: no cover - non-fork hosts
        forest, killed_s = oracle, 0.0
    save_forest(forest, snap)
    shutil.copytree(snap, pristine)

    # ---- phase 2: damaged snapshot loads degraded --------------------- #
    damage_snapshot(snap)
    degraded = load_forest(snap, on_shard_error="skip")
    census = degraded.shard_census()
    assert census == {
        "total": SHARDS, "healthy": SHARDS - 2,
        "missing": census["missing"],
    }
    assert sorted(m["shard"] for m in census["missing"]) == list(DAMAGED)
    healthy_oracle = TrajForest.from_shards(
        [t for i, t in enumerate(oracle.shards) if i not in DAMAGED],
        scheme=oracle.scheme, seed=oracle.seed,
    )
    assert degraded.ids() == healthy_oracle.ids()

    # ---- phase 3: serve degraded under client connection drops -------- #
    async def drive():
        service = QueryService(
            degraded, ServiceConfig(window=0.001),
            loader=lambda: load_forest(snap, on_shard_error="skip"),
        )
        server = await serve(service, port=0)
        port = server.sockets[0].getsockname()[1]
        retry = RetryPolicy(attempts=8, base=0.001, cap=0.01, seed=11)
        drop_plan = FaultPlan(seed=5).on(
            "client.*", "drop", times=None, probability=DROP_RATE
        )

        async def one_client(cid, mine):
            client = await ServiceClient.connect("127.0.0.1", port,
                                                 retry=retry)
            answers = []
            for q in mine:
                results, meta = await client.knn(q, K)
                answers.append((results, meta["degraded"],
                                tuple(meta["missing_shards"])))
            await client.aclose()
            return answers

        t0 = time.perf_counter()
        with injected(drop_plan):
            per_client = await asyncio.gather(*(
                one_client(c, probes[c::4]) for c in range(4)
            ))
        degraded_s = time.perf_counter() - t0
        drops = drop_plan.fired()
        checker = await ServiceClient.connect("127.0.0.1", port)
        health = await checker.health()
        await checker.aclose()
        assert health["status"] == "degraded"
        assert health["shards"]["healthy"] == SHARDS - 2

        # every client query answered, every answer == healthy-only oracle
        answered = 0
        for c, answers in enumerate(per_client):
            for q, (results, flag, missing) in zip(probes[c::4], answers):
                assert results == healthy_oracle.knn(q, K)
                assert flag is True
                assert missing == DAMAGED
                answered += 1
        assert answered == QUERIES

        # ---- phase 4: repair + atomic reload -> full oracle ----------- #
        for i in DAMAGED:
            shutil.copy2(pristine / f"shard_{i:04d}.pkl",
                         snap / f"shard_{i:04d}.pkl")
        admin = await ServiceClient.connect("127.0.0.1", port)
        summary = await admin.reload()
        assert summary["degraded"] is False
        assert summary["shards"]["healthy"] == SHARDS
        for q in probes[:6]:
            results, meta = await admin.knn(q, K)
            assert results == oracle.knn(q, K)
            assert meta["degraded"] is False
        healed = await admin.health()
        assert healed["status"] == "ready"
        await admin.aclose()

        server.close()
        await server.wait_closed()
        await service.aclose()
        return drops, degraded_s

    drops, degraded_s = benchmark.pedantic(
        lambda: asyncio.run(drive()), rounds=1, iterations=1
    )
    assert drops > 0, "the seeded drop plan never fired"

    rows = [
        f"{'trajectories':<32}{N:>10,}",
        f"{'shards':<32}{SHARDS:>10}",
        f"{'damaged shards':<32}{str(DAMAGED):>10}",
        f"{'serial build (s)':<32}{serial_s:>10.1f}",
        f"{'build with worker kill (s)':<32}{killed_s:>10.1f}"
        + ("" if fork else "  (skipped: no fork)"),
        f"{'client queries':<32}{QUERIES:>10}",
        f"{'injected connection drops':<32}{drops:>10}",
        f"{'degraded serving (s)':<32}{degraded_s:>10.2f}",
        "",
        "gate: worker-killed build == serial build; degraded answers == "
        f"healthy-{SHARDS - 2}-shard oracle with degraded flag + missing "
        "shards on every answer; post-repair reload == full "
        f"{SHARDS}-shard oracle; zero queries lost to "
        f"{DROP_RATE:.0%} connection drops",
    ]
    emit(results_dir, "resilience_gate",
         f"Service resilience gate — {SHARDS}-shard forest, 2 damaged "
         f"shards, {DROP_RATE:.0%} client drops, 1 worker kill",
         "\n".join(rows))
