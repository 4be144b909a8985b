"""Forest-vs-tree oracle suite (ISSUE 7).

The sharded :class:`~repro.index.forest.TrajForest` claims *exactness*:
for any shard count and either assignment scheme, every query — knn,
range, subtrajectory-knn, and the batched ``query_many`` — returns ids,
distances and ordering bit-identical to a single
:class:`~repro.index.TrajTree` over the unsharded dataset, under the
library-wide ascending ``(distance, traj_id)`` tie order.  These tests
pin that claim over the shard-count × k matrix, both schemes, the
store-backed build paths, and the forest served through
:class:`~repro.service.QueryService` under concurrency (reusing the
serial-oracle pattern of ``tests/test_service_concurrency.py``).
"""

import asyncio
import itertools
import random

import pytest

from repro.core import Trajectory
from repro.datasets import generate_beijing
from repro.index import (
    SHARD_SCHEMES,
    TrajForest,
    TrajTree,
    assign_shards,
    ensure_query_index,
    trajtree,
)
from repro.service import QueryRequest, QueryService, ServiceConfig
from repro.store import ColumnarStore

from test_service_concurrency import random_requests, serial_oracle

DB_SIZE = 36
SHARD_COUNTS = (1, 2, 4, 7)
KS = (1, 5, 20)


@pytest.fixture(scope="module")
def db():
    return generate_beijing(DB_SIZE, seed=7)


@pytest.fixture(scope="module")
def tree(db):
    """The single-tree oracle over the unsharded dataset."""
    return TrajTree(db, normalized=True, num_vps=6, seed=7, backend="numpy")


@pytest.fixture(scope="module")
def queries(db):
    return generate_beijing(6, seed=1007)


@pytest.fixture(scope="module")
def forests(db):
    """One forest per shard count (module-scoped: builds are the cost)."""
    return {
        shards: TrajForest(db, num_shards=shards, normalized=True,
                           num_vps=6, seed=7, backend="numpy")
        for shards in SHARD_COUNTS
    }


# ---------------------------------------------------------------------- #
# the shard-count × k matrix
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("k", KS)
def test_knn_matches_single_tree(forests, tree, queries, shards, k):
    """Forest knn == tree knn: same ids, same distances (bit-identical),
    same order, for every shard count and k — including k past the
    dataset (k=20 per shard of ≤36/7 trajectories exercises short
    per-shard lists in the merge)."""
    forest = forests[shards]
    for query in queries:
        assert forest.knn(query, k) == tree.knn(query, k)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_range_matches_single_tree(forests, tree, queries, shards):
    forest = forests[shards]
    for query in queries:
        # radii straddling the 4-NN distance make results non-trivial
        anchor = tree.knn(query, 4)[-1][1]
        for radius in (anchor * 0.5, anchor, anchor * 1.5):
            assert forest.range_query(query, radius) == \
                tree.range_query(query, radius)


def test_range_rejects_nan_radius(forests, queries):
    for radius in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            forests[4].range_query(queries[0], radius)


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("k", (1, 5))
def test_subtrajectory_knn_matches_single_tree(forests, tree, queries,
                                               shards, k):
    forest = forests[shards]
    for query in queries[:3]:
        assert forest.subtrajectory_knn(query, k) == \
            tree.subtrajectory_knn(query, k)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("k", KS)
def test_knn_matches_single_tree_traversing(small_refine_flush, forests,
                                            tree, queries, shards, k):
    """The matrix again with the crossover at 4, so shards and oracle
    descend through their frontier heaps instead of being refined whole
    at the root."""
    test_knn_matches_single_tree(forests, tree, queries, shards, k)


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("k", (1, 5))
def test_subtrajectory_knn_matches_single_tree_traversing(
        small_refine_flush, forests, tree, queries, shards, k):
    test_subtrajectory_knn_matches_single_tree(forests, tree, queries,
                                               shards, k)


@pytest.mark.parametrize("flush", (trajtree.REFINE_FLUSH, 4))
def test_any_shard_visit_order_same_answers(monkeypatch, forests, tree,
                                            queries, flush):
    """The shards share one answer heap and one pruning threshold, so
    *work* depends on the order they are walked in — answers must not:
    all 24 orders of 4 shards are bit-identical to the single tree."""
    monkeypatch.setattr(trajtree, "REFINE_FLUSH", flush)
    want = [(tree.knn(q, 5), tree.subtrajectory_knn(q, 3))
            for q in queries[:2]]
    for order in itertools.permutations(forests[4].shards):
        forest = TrajForest.from_shards(order)
        for q, (knn, sub) in zip(queries, want):
            assert forest.knn(q, 5) == knn
            assert forest.subtrajectory_knn(q, 3) == sub


@pytest.mark.parametrize("flush", (trajtree.REFINE_FLUSH, 4))
def test_tie_group_cut_by_k_prefers_smaller_id_in_later_shard(
        monkeypatch, db, queries, flush):
    """Trajectory 9 stored three more times, under ids 900 / 500 / 36 in
    shards 0 / 1 / 2 (round-robin by position): the copies tie at every
    distance, so any k that cuts the group must keep the smaller ids even
    though their shards are walked last — a threshold that pruned ties,
    or a heap that kept the first arrival, would return 900."""
    monkeypatch.setattr(trajtree, "REFINE_FLUSH", flush)
    copies = [Trajectory(db[9].data, traj_id=tid, validate=False)
              for tid in (900, 500, 36)]
    data = copies + list(db)
    forest = TrajForest(data, num_shards=3, normalized=True, num_vps=6,
                        seed=7, backend="numpy")
    assert [forest.shard_of(tid) for tid in (900, 500, 36)] == [0, 1, 2]
    oracle = TrajTree(data, normalized=True, num_vps=6, seed=7,
                      backend="numpy")
    # db[9] itself ties its three copies at 0.0; the other queries tie
    # them at some positive distance wherever they rank
    for query in [db[9]] + list(queries[:3]):
        for k in (1, 2, 3, 4, 12):
            got = forest.knn(query, k)
            assert got == oracle.knn(query, k) == oracle.knn_scan(query, k)
            assert forest.subtrajectory_knn(query, k) == \
                oracle.subtrajectory_knn_scan(query, k)
    assert forest.knn(db[9], 2) == [(9, 0.0), (36, 0.0)]
    assert forest.knn(db[9], 3) == [(9, 0.0), (36, 0.0), (500, 0.0)]


def test_tie_order_is_distance_then_id(forests, tree, db):
    """The documented tie policy: a query *in* the database ties at
    d=0 only with itself, and equal distances order by ascending id —
    identical between forest and tree."""
    forest = forests[4]
    for query in db[:4]:
        got = forest.knn(query, 5)
        assert got == tree.knn(query, 5)
        assert got[0] == (query.traj_id, 0.0)
        assert got == sorted(got, key=lambda r: (r[1], r[0]))


@pytest.mark.parametrize("scheme", SHARD_SCHEMES)
def test_both_schemes_same_answers(db, tree, queries, scheme):
    """Shard assignment affects balance only, never answers."""
    forest = TrajForest(db, num_shards=5, scheme=scheme, normalized=True,
                        num_vps=6, seed=7, backend="numpy")
    assert len(forest) == DB_SIZE
    for query in queries[:3]:
        assert forest.knn(query, 5) == tree.knn(query, 5)


def test_query_many_matches_tree_and_singleflights(forests, tree, queries):
    """Batched dispatch: order-preserving, oracle-exact per request, and
    duplicate requests share one (results, stats) object — the same
    contract TrajTree.query_many pins."""
    forest = forests[4]
    rng = random.Random(3)
    requests = random_requests(tree, queries, rng, 10)
    requests = requests + [requests[1], requests[6]]   # exact dups
    out = forest.query_many(requests)
    want = tree.query_many(requests)
    assert len(out) == len(requests)
    for (results, stats), (want_results, _) in zip(out, want):
        assert results == want_results
        assert stats.nodes_visited > 0
    assert out[10] is out[1]
    assert out[11] is out[6]
    with pytest.raises(ValueError, match="unknown query kind"):
        forest.query_many([("nope", queries[0], 1)])


# ---------------------------------------------------------------------- #
# sharding mechanics
# ---------------------------------------------------------------------- #


def test_assign_shards_round_robin_balance():
    groups = assign_shards(list(range(10)), 4, "round_robin")
    assert [len(g) for g in groups] == [3, 3, 2, 2]
    assert sorted(p for g in groups for p in g) == list(range(10))
    # position i goes to shard i % num_shards
    assert groups[1] == [1, 5, 9]


def test_assign_shards_hash_is_a_partition_and_id_stable():
    ids = [3, 11, 42, 7, 100, 255]
    groups = assign_shards(ids, 3, "hash")
    assert sorted(p for g in groups for p in g) == list(range(len(ids)))
    # hash keys on the *id*: reordering the dataset moves positions but
    # keeps each id's shard
    by_id = {}
    for g in groups:
        for pos in g:
            by_id[ids[pos]] = [ids[p] for p in g]
    reordered = list(reversed(ids))
    regroups = assign_shards(reordered, 3, "hash")
    for g in regroups:
        members = sorted(reordered[p] for p in g)
        assert members == sorted(by_id[reordered[g[0]]])


def test_shard_count_clamped_and_validated(db):
    forest = TrajForest(db[:3], num_shards=10, normalized=True,
                        num_vps=2, seed=7, backend="numpy")
    assert forest.num_shards == 3
    with pytest.raises(ValueError, match="num_shards"):
        assign_shards([1, 2], 0)
    with pytest.raises(ValueError, match="unknown shard scheme"):
        assign_shards([1, 2], 2, scheme="alphabetical")
    with pytest.raises(ValueError, match="empty database"):
        TrajForest([], num_shards=2)


def test_container_surface_matches_tree(forests, tree, db):
    forest = forests[4]
    assert len(forest) == len(tree) == DB_SIZE
    assert forest.ids() == tree.ids()
    assert forest.num_shards == 4
    for tid in (0, 17, DB_SIZE - 1):
        assert tid in forest
        shard = forest.shard_of(tid)
        assert tid in forest.shards[shard].ids()
        assert forest.get(tid).traj_id == tid
    assert DB_SIZE + 5 not in forest
    # aggregates are elementwise sums over shards
    summary = forest.storage_summary()
    per_shard = [t.storage_summary() for t in forest.shards]
    for key in per_shard[0]:
        assert summary[key] == sum(s[key] for s in per_shard)


# ---------------------------------------------------------------------- #
# store-backed builds
# ---------------------------------------------------------------------- #


def test_from_store_views_match_object_backed(db, tree, queries, tmp_path):
    """Store round-trip then forest build: mmap'd zero-copy views produce
    the same forest answers as the original objects."""
    store_path = tmp_path / "store"
    ColumnarStore.from_trajectories(db).save(store_path)
    forest = TrajForest.from_store(
        store_path, num_shards=4, normalized=True, num_vps=6, seed=7,
        backend="numpy",
    )
    for query in queries[:3]:
        assert forest.knn(query, 5) == tree.knn(query, 5)


def test_from_store_parallel_equals_serial(db, tmp_path):
    """Worker-process builds are bit-identical to in-process builds:
    shard seeds derive from shard indices, not from worker scheduling."""
    store_path = tmp_path / "store"
    ColumnarStore.from_trajectories(db).save(store_path)
    kwargs = dict(num_shards=3, normalized=True, num_vps=4, seed=7,
                  backend="numpy")
    serial = TrajForest.from_store(store_path, workers=1, **kwargs)
    parallel = TrajForest.from_store(store_path, workers=2, **kwargs)
    query = db[5]
    assert parallel.knn(query, 6) == serial.knn(query, 6)
    assert parallel.ids() == serial.ids()
    assert [t.ids() for t in parallel.shards] == \
        [t.ids() for t in serial.shards]


# ---------------------------------------------------------------------- #
# the forest behind the query service
# ---------------------------------------------------------------------- #


def test_forest_conforms_to_query_index(forests):
    ensure_query_index(forests[4])   # must not raise
    with pytest.raises(TypeError, match="QueryIndex.*missing"):
        ensure_query_index(object())


@pytest.mark.parametrize("seed", [0, 1])
def test_service_over_forest_matches_serial_oracle(forests, tree, queries,
                                                   seed):
    """The concurrency oracle of test_service_concurrency, served by a
    forest: N async clients with coalescing and caching on, every answer
    equal to the *serial single-tree* call."""
    forest = forests[4]
    rng = random.Random(seed)
    workloads = [
        random_requests(tree, queries, rng, 4) for _ in range(8)
    ]
    expected = [[serial_oracle(tree, r) for r in w] for w in workloads]

    async def run():
        service = QueryService(forest, ServiceConfig(
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
    stats = service.stats_dict()
    assert stats["completed"] == sum(len(w) for w in workloads)
    assert stats["errors"] == {}
    assert stats["index"]["trajectories"] == DB_SIZE


def test_service_set_tree_swaps_tree_for_forest(tree, forests, queries):
    """set_tree accepts a forest via the QueryIndex protocol; the swap
    bumps the snapshot and answers stay oracle-exact."""

    async def run():
        service = QueryService(tree, ServiceConfig(cache_capacity=8))
        before = await service.submit(QueryRequest("knn", queries[0], 5))
        snapshot = service.set_tree(forests[2])
        after = await service.submit(QueryRequest("knn", queries[0], 5))
        await service.aclose()
        return before, after, snapshot, service

    before, after, snapshot, service = asyncio.run(run())
    assert snapshot == 1
    assert before.results == after.results == tree.knn(queries[0], 5)
    assert after.meta["snapshot_id"] == 1
    assert service.tree is forests[2]
