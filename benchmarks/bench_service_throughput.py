"""Query service throughput: coalesced dispatch vs naive serial (ISSUE 6).

32 concurrent clients draw from a small hot query pool against the same
warm index under two service configurations:

* **coalesced** — the production defaults in miniature: a coalescing
  window, in-batch singleflight, and an LRU result cache;
* **naive** — ``window=0.0, max_batch=1, cache_capacity=0``: every
  request is its own dispatch, nothing is shared.

Both must return results identical to the serial oracle; the coalesced
configuration must clear **2x** the naive throughput (the classic
coalescing win: each distinct hot query is computed ~once instead of
once per request).  The regenerated table lands in
``benchmarks/results/service_gate.txt`` and is uploaded as a CI
artifact.
"""

import asyncio
import time

import pytest

from repro.datasets import generate_beijing
from repro.index import TrajTree
from repro.service import QueryRequest, QueryService, ServiceConfig

from conftest import emit

DB_SIZE = 120
POOL = 12           # distinct hot queries
CLIENTS = 32
ROUNDS = 4          # requests per client

SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def tree():
    db = generate_beijing(DB_SIZE, seed=7)
    t = TrajTree(db, normalized=True, seed=7, backend="numpy")
    t.warm_caches()
    return t


@pytest.fixture(scope="module")
def workloads(tree):
    """Per-client request lists over the hot pool (seeded, knn-heavy).

    Each pool entry is one *fixed* (kind, query, param) triple — the
    digest keys on all three, so varying the param per draw would explode
    the distinct-computation count and the pool would not be hot at all.
    """
    import random

    pool_queries = generate_beijing(POOL, seed=1007)
    pool = [
        QueryRequest("range", q, 250.0) if i % 4 == 3
        else QueryRequest("knn", q, 2 + (i % 4))
        for i, q in enumerate(pool_queries)
    ]
    rng = random.Random(0)
    return [
        [pool[rng.randrange(POOL)] for _ in range(ROUNDS)]
        for _ in range(CLIENTS)
    ]


def serial_oracle(tree, request):
    if request.kind == "knn":
        return tree.knn(request.query, int(request.param))
    return tree.range_query(request.query, float(request.param))


def run_clients(tree, config, workloads):
    """Drive the concurrent client fleet; returns (wall_s, answers, stats)."""

    async def run():
        service = QueryService(tree, config, warm=False)   # already warm

        async def client(requests):
            answers = []
            for request in requests:
                answers.append(await service.submit(request))
            return answers

        start = time.perf_counter()
        got = await asyncio.gather(*(client(w) for w in workloads))
        wall = time.perf_counter() - start
        await service.aclose()
        return wall, got, service.stats_dict()

    return asyncio.run(run())


def test_service_coalescing_throughput_gate(tree, workloads, results_dir):
    expected = [[serial_oracle(tree, r) for r in w] for w in workloads]
    total = CLIENTS * ROUNDS

    naive = ServiceConfig(window=0.0, max_batch=1, cache_capacity=0)
    coalesced = ServiceConfig(window=0.005, max_batch=64, cache_capacity=256)

    wall_naive, got_naive, stats_naive = run_clients(tree, naive, workloads)
    wall_coal, got_coal, stats_coal = run_clients(tree, coalesced, workloads)

    # correctness first: both modes are oracle-exact
    for got in (got_naive, got_coal):
        for client_got, client_want in zip(got, expected):
            for answer, want in zip(client_got, client_want):
                assert answer.results == want

    speedup = wall_naive / wall_coal
    rows = []
    for label, wall, stats in (
        ("naive", wall_naive, stats_naive),
        ("coalesced", wall_coal, stats_coal),
    ):
        latency = stats["latency"]
        rows.append(
            f"{label:<10} {total / wall:>8.1f} qps"
            f"  p50 {latency['p50_ms']:>7.2f} ms"
            f"  p99 {latency['p99_ms']:>7.2f} ms"
            f"  computed {stats['computed']:>3d}/{total}"
            f"  cache hits {stats['cache_hits']:>3d}"
            f"  max batch {stats['batches']['max_size']:>2d}"
        )
    body = "\n".join(rows + [
        f"speedup    {speedup:.2f}x (gate: >= {SPEEDUP_FLOOR:.1f}x)",
    ])
    emit(results_dir, "service_gate",
         f"Query service throughput — {CLIENTS} clients x {ROUNDS} requests, "
         f"{POOL} distinct hot queries, db={DB_SIZE}", body)

    # the coalesced mode must actually have shared work...
    assert stats_coal["computed"] < total
    assert stats_coal["cache_hits"] + stats_coal["coalesced"] > 0
    # ...and convert it into throughput
    assert speedup >= SPEEDUP_FLOOR, (
        f"coalesced dispatch only {speedup:.2f}x over naive serial "
        f"(floor {SPEEDUP_FLOOR:.1f}x)"
    )
