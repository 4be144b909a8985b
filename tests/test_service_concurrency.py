"""Concurrency oracle for the query service (ISSUE 6).

The service's whole contract is that coalescing, caching, batching and
backpressure are *invisible* in the results: N concurrent clients issuing
random kNN / range / subtrajectory-kNN queries must receive bit-identical
answers to serial library calls on the same index.  These tests lift the
suite's reference-backend oracle pattern to the service layer — randomized
workloads (seeded, several draws) checked element-for-element against
``TrajTree.knn`` / ``range_query`` / ``subtrajectory_knn``.
"""

import asyncio
import random

import pytest

from repro.core import BACKENDS
from repro.datasets import generate_beijing
from repro.index import TrajTree
from repro.service import (
    QueryRequest,
    QueryService,
    ServiceClient,
    ServiceConfig,
    serve,
)

DB_SIZE = 36
POOL = 10


# The service contract must hold over every kernel tier, so the whole
# module runs once per backend (ISSUE 9).  The comparison is always
# service-vs-serial on the *same* tree, so no cross-backend tolerance is
# involved; backend equivalence has its own oracle tests.
@pytest.fixture(scope="module", params=BACKENDS)
def tree(request):
    db = generate_beijing(DB_SIZE, seed=7)
    return TrajTree(db, normalized=True, num_vps=6, seed=7,
                    backend=request.param)


@pytest.fixture(scope="module")
def query_pool(tree):
    """Distinct query trajectories, disjoint from the indexed db."""
    return generate_beijing(POOL, seed=1007)


def random_requests(tree, query_pool, rng, count):
    """Random (kind, query, param) triples over the pool.

    Range radii are drawn around each query's true 4-NN distance so range
    results are non-trivially populated.
    """
    out = []
    for _ in range(count):
        query = query_pool[rng.randrange(len(query_pool))]
        kind = rng.choice(("knn", "range", "subtrajectory_knn"))
        if kind == "knn":
            param = rng.randint(1, 6)
        elif kind == "subtrajectory_knn":
            param = rng.randint(1, 4)
        else:
            anchor = tree.knn(query, 4)[-1][1]
            param = anchor * rng.uniform(0.5, 1.5)
        out.append((kind, query, param))
    return out


def serial_oracle(tree, request):
    kind, query, param = request
    if kind == "knn":
        return tree.knn(query, int(param))
    if kind == "range":
        return tree.range_query(query, float(param))
    return tree.subtrajectory_knn(query, int(param))


class TestInProcessConcurrency:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_clients_match_serial_oracle(self, tree, query_pool,
                                                    seed):
        """N async clients, coalescing on: every result equals the serial
        library call, and at least some requests actually shared a batch."""
        if tree.backend != "numpy" and seed != 0:
            pytest.skip("full seed sweep runs on the numpy tier only; the "
                        "python tier covers the dispatch path with one seed")
        rng = random.Random(seed)
        clients = 12
        per_client = 4
        workloads = [
            random_requests(tree, query_pool, rng, per_client)
            for _ in range(clients)
        ]
        expected = [[serial_oracle(tree, r) for r in w] for w in workloads]

        async def run():
            service = QueryService(tree, ServiceConfig(
                window=0.02, max_batch=16, cache_capacity=64,
            ))

            async def client(requests):
                answers = []
                for kind, query, param in requests:
                    answers.append(
                        await service.submit(QueryRequest(kind, query, param))
                    )
                return answers

            got = await asyncio.gather(*(client(w) for w in workloads))
            await service.aclose()
            return got, service

        got, service = asyncio.run(run())

        for client_got, client_want in zip(got, expected):
            for answer, want in zip(client_got, client_want):
                assert answer.results == want

        # the workload is concurrent, so coalescing must have happened
        metas = [a.meta for answers in got for a in answers]
        assert max(m["batch_size"] for m in metas) >= 2
        stats = service.stats_dict()
        assert stats["completed"] == clients * per_client
        assert stats["errors"] == {}
        # every completed request is exactly one of: cache hit, computed,
        # or a coalesced duplicate sharing a computation
        shared = sum(
            1 for m in metas if not m["cache_hit"] and not m["computed"]
        )
        assert stats["cache_hits"] + stats["computed"] + shared == len(metas)

    def test_duplicate_heavy_workload_is_singleflighted(self, tree,
                                                        query_pool):
        """32 concurrent requests over 4 distinct queries: results exact,
        and far fewer computations than requests."""
        requests = [
            QueryRequest("knn", query_pool[i % 4], 3) for i in range(32)
        ]
        expected = [tree.knn(query_pool[i % 4], 3) for i in range(32)]

        async def run():
            service = QueryService(tree, ServiceConfig(
                window=0.02, max_batch=64, cache_capacity=64,
            ))
            answers = await asyncio.gather(
                *(service.submit(r) for r in requests)
            )
            await service.aclose()
            return answers, service

        answers, service = asyncio.run(run())
        assert [a.results for a in answers] == expected
        stats = service.stats_dict()
        # 4 distinct digests: at most a handful of computations (a dup can
        # land in a later batch before the cache fills, but never 32)
        assert stats["computed"] <= 8
        assert stats["tree"]["nodes_visited"] > 0

    def test_query_many_matches_and_shares_duplicates(self, tree,
                                                      query_pool):
        """The tree-level multi-query entry point: order-preserving,
        oracle-exact, duplicates share one computation."""
        rng = random.Random(3)
        requests = random_requests(tree, query_pool, rng, 10)
        requests = requests + [requests[2], requests[5]]   # exact dups
        out = tree.query_many(requests)
        assert len(out) == len(requests)
        for request, (results, stats) in zip(requests, out):
            assert results == serial_oracle(tree, request)
            assert stats.nodes_visited > 0
        assert out[10] is out[2]
        assert out[11] is out[5]


class TestTCPConcurrency:
    def test_tcp_clients_match_serial_oracle(self, tree, query_pool):
        """Concurrent TCP connections through the JSON-line protocol get
        oracle-exact results (floats survive the JSON roundtrip exactly)."""
        rng = random.Random(11)
        workloads = [
            random_requests(tree, query_pool, rng, 3) for _ in range(8)
        ]
        expected = [[serial_oracle(tree, r) for r in w] for w in workloads]

        async def run():
            service = QueryService(tree, ServiceConfig(
                window=0.01, max_batch=32, cache_capacity=64,
            ))
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]

            async def client(requests):
                conn = await ServiceClient.connect(port=port)
                try:
                    answers = []
                    for kind, query, param in requests:
                        if kind == "knn":
                            got = await conn.knn(query, int(param))
                        elif kind == "range":
                            got = await conn.range_query(query, float(param))
                        else:
                            got = await conn.subtrajectory_knn(
                                query, int(param)
                            )
                        answers.append(got)
                    assert await conn.ping()
                    return answers
                finally:
                    await conn.aclose()

            got = await asyncio.gather(*(client(w) for w in workloads))
            probe = await ServiceClient.connect(port=port)
            stats = await probe.stats()
            await probe.aclose()
            server.close()
            await server.wait_closed()
            await service.aclose()
            return got, stats

        got, stats = asyncio.run(run())
        for client_got, client_want in zip(got, expected):
            for (results, meta), want in zip(client_got, client_want):
                assert results == want
                assert meta["latency_ms"] >= 0.0
                assert set(meta["tree_stats"]) >= {
                    "nodes_visited", "bound_computations",
                    "exact_computations",
                }
        assert stats["completed"] == sum(len(w) for w in workloads)
        assert stats["index"]["trajectories"] == DB_SIZE
