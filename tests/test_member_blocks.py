"""Whole-node refinement on arrays: Rule 2's block filter and member blocks.

``TrajTree._members_within`` decides Rule 2 for a whole member block with
two cheap bounds on the rectangle distance and runs the ten-candidate
``polyline_rects_distance`` only on the rows they leave open.  Its keep set
and ``members_pruned`` must equal the scalar rule's — kept below, verbatim,
as the oracle — float for float: on hypothesis inputs at coordinate scales
from 1e-300 to 1e200, and on the two pinned rounding cases the cheap
bounds exist to get right.

The member blocks themselves (``TrajTree._block``) are derived data: built
once per node between updates, dropped on the path an insert or delete
changes, never pickled, and safe to build from concurrent first queries.
"""

import functools
import math
import pickle
import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BACKENDS, Trajectory, edwp, use_backend
from repro.datasets import generate_beijing
from repro.index import TrajForest, TrajTree, save_tree
from repro.index import trajtree
from repro.index.tboxseq import TBoxSeq, edwp_sub_box
from repro.index.trajtree import MemberBlock, TrajTreeStats, _Node

from test_backend_matrix import trajectories

SCALES = (1.0, 1e-300, 1e-150, 1e150, 1e200)


def members_within_scalar(self, query, members, raws, limit, normalized,
                          stats):
    """The scalar Rule 2 this module's filter replaced, verbatim: the
    members whose own lower bound does not pass ``limit``.

    Per-member bound: the larger of ``raws[i]`` (the raw bound of the
    node the member came from) and the member's own rectangle's, over
    its own length.  The rest count in ``stats.members_pruned``.
    """
    if not members:
        return members
    quick_raws = (
        self._quick_bounds_many_raw(
            query, [t.bounding_rect() for _, t in members])
        if self.use_quick_bound else [0.0] * len(members)
    )
    kept = [
        member
        for member, raw, qraw in zip(members, raws, quick_raws)
        if self._normalize_bound(
            query, member[1].length, max(raw, qraw), normalized) <= limit
    ]
    stats.members_pruned += len(members) - len(kept)
    return kept


@functools.lru_cache(maxsize=None)
def rule2_tree(use_quick_bound):
    """A tree whose only role is to carry ``use_quick_bound``."""
    return TrajTree(generate_beijing(2, seed=0), num_vps=2,
                    use_quick_bound=use_quick_bound, backend="numpy")


def scaled(traj, scale):
    return Trajectory(traj.data * [scale, scale, 1.0], validate=False)


def oracle_bounds(tree, query, trajs, raw, normalized):
    """Each member's scalar bound, as the oracle evaluates it."""
    qraws = (tree._quick_bounds_many_raw(
        query, [t.bounding_rect() for t in trajs])
        if tree.use_quick_bound else [0.0] * len(trajs))
    return [tree._normalize_bound(query, t.length, max(raw, q), normalized)
            for t, q in zip(trajs, qraws)]


def assert_decisions_equal(query, trajs, raw, normalized, use_quick_bound):
    """Every limit drawn from the oracle's own bounds (ties land on
    ``<=``), the floats either side of each, 0 and inf: same kept ids and
    the same ``members_pruned``."""
    tree = rule2_tree(use_quick_bound)
    ids = list(range(len(trajs)))
    block = MemberBlock(ids, trajs)
    bounds = oracle_bounds(tree, query, trajs, raw, normalized)
    candidates = {0.0, math.inf}
    for b in bounds:
        candidates |= {b, math.nextafter(b, -math.inf),
                       math.nextafter(b, math.inf)}
    for limit in sorted(c for c in candidates if not math.isnan(c)):
        want_stats, got_stats = TrajTreeStats(), TrajTreeStats()
        want = [tid for tid, _ in members_within_scalar(
            tree, query, list(zip(ids, trajs)), [raw] * len(trajs), limit,
            normalized, want_stats)]
        got = block.ids[tree._members_within(
            query, block, raw, limit, normalized, got_stats)].tolist()
        assert got == want, limit
        assert got_stats.members_pruned == want_stats.members_pruned
        assert type(got_stats.members_pruned) is int


# The ten-candidate pass overflows at 1e200 (in both versions of the rule).
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestRule2DecisionIdentity:
    @settings(max_examples=150, deadline=None)
    @given(query=trajectories(min_len=2),
           members=st.lists(trajectories(), min_size=1, max_size=8),
           scale=st.sampled_from(SCALES),
           normalized=st.booleans(),
           use_quick_bound=st.booleans(),
           raw_pick=st.integers(-1, 8))
    def test_block_filter_equals_scalar_rule(self, query, members, scale,
                                             normalized, use_quick_bound,
                                             raw_pick):
        query = scaled(query, scale)
        members = [scaled(t, scale) for t in members]
        # raw: 0, or one member's own rectangle bound (a tie with qraw)
        qraws = TrajTree._quick_bounds_many_raw(
            query, [t.bounding_rect() for t in members])
        raw = 0.0 if raw_pick < 0 else float(qraws[raw_pick % len(qraws)])
        assert_decisions_equal(query, members, raw, normalized,
                               use_quick_bound)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("normalized", [False, True])
    def test_vertex_rounded_past_the_query_box(self, scale, normalized):
        """``a + 1.0 * (b - a)`` lands one ulp past ``b`` = max x of Q, so
        the computed distance to a rectangle one ulp right of ``b`` is 0
        while the unbanded rectangle gap is not: the gap bound must leave
        the row open."""
        query = Trajectory.from_xy([(-1.4 * scale, 0.0), (0.3 * scale, 0.0)])
        x = math.nextafter(0.3 * scale, math.inf)
        member = Trajectory.from_xy([(x, 0.0), (x + scale, 0.0)])
        for raw in (0.0, 1e-30 * scale):
            assert_decisions_equal(query, [member], raw, normalized, True)

    @pytest.mark.parametrize("scale", SCALES)
    def test_nearest_vertex_is_sqrt_not_hypot(self, scale):
        """At this offset ``hypot`` is one ulp below ``sqrt(dx*dx +
        dy*dy)``, the value the ten-candidate pass computes: a vertex bound
        through ``hypot`` would keep a row the scalar rule prunes."""
        dx, dy = 2.32413861607486 * scale, 1.4885903365160598 * scale
        query = Trajectory.from_xy([(0.0, 0.0), (-scale, 0.0)])
        member = Trajectory.from_xy([(dx, dy), (dx + scale, dy + scale)])
        assert_decisions_equal(query, [member], 0.0, False, True)


# --------------------------------------------------------------------- #
# member block lifecycle
# --------------------------------------------------------------------- #


def answers_equal_scan(tree, queries, k=4):
    for q in queries:
        assert tree.knn(q, k) == tree.knn_scan(q, k)
        assert (tree.subtrajectory_knn(q, k)
                == tree.subtrajectory_knn_scan(q, k))
        radius = tree.knn_scan(q, k)[-1][1]
        assert tree.range_query(q, radius) == tree.range_query_scan(q, radius)


def walk_nodes(tree):
    nodes = [tree.root]
    while nodes:
        node = nodes.pop()
        yield node
        nodes.extend(node.children)


class TestBlockLifecycle:
    @pytest.mark.parametrize("traverse", [False, True])
    def test_updates_keep_answers_equal_to_scan(self, traverse, request):
        if traverse:
            request.getfixturevalue("small_refine_flush")
        trips = generate_beijing(50, seed=3)
        queries = generate_beijing(3, seed=103)
        tree = TrajTree(trips[:30], normalized=True, num_vps=4, seed=3,
                        backend="numpy")
        answers_equal_scan(tree, queries)
        rng = random.Random(3)
        extra = iter(trips[30:])
        for step in range(12):
            if step % 3 == 2:
                tree.delete(rng.choice(tree.ids()))
            else:
                tree.insert(next(extra))
            answers_equal_scan(tree, queries[step % 3:step % 3 + 1])

    def test_a_block_is_built_once_per_node_between_updates(self,
                                                             monkeypatch):
        built = []

        class Spy(MemberBlock):
            __slots__ = ()

            def __init__(self, ids, trajs):
                built.append(tuple(ids))
                super().__init__(ids, trajs)

        monkeypatch.setattr(trajtree, "MemberBlock", Spy)
        tree = TrajTree(generate_beijing(40, seed=4), normalized=True,
                        num_vps=4, seed=4, backend="numpy")
        queries = generate_beijing(4, seed=104)
        for q in queries:
            tree.knn(q, 3)
            tree.range_query(q, 0.5)
        assert built == [tuple(tree.root.subtree_ids)]
        tree.insert(generate_beijing(1, seed=999)[0], traj_id=1000)
        assert tree.root.block is None
        for q in queries:
            tree.knn(q, 3)
        assert built[1:] == [tuple(tree.root.subtree_ids)]
        tree.delete(1000)
        tree.knn(queries[0], 3)
        assert len(built) == 3 and 1000 not in built[2]

    def test_warm_caches_builds_the_blocks_queries_read(self,
                                                         small_refine_flush):
        tree = TrajTree(generate_beijing(40, seed=5), num_vps=4, seed=5,
                        min_node_size=3, backend="numpy")
        tree.warm_caches()
        warmed = {id(node): node.block for node in walk_nodes(tree)
                  if node.block is not None}
        assert warmed
        for node in walk_nodes(tree):
            if id(node) in warmed:
                assert node.block.ids.tolist() == node.subtree_ids
        for q in generate_beijing(3, seed=105):
            tree.knn(q, 3)
            tree.range_query(q, 1e9)
        for node in walk_nodes(tree):
            if id(node) in warmed:
                assert node.block is warmed[id(node)]

    def test_blocks_are_never_pickled(self, tmp_path):
        def build():
            return TrajTree(generate_beijing(30, seed=6), normalized=True,
                            num_vps=4, seed=6, backend="numpy")

        fresh, queried = build(), build()
        queried.warm_caches()
        for q in generate_beijing(3, seed=106):
            queried.knn(q, 3)
        assert queried.root.block is not None
        save_tree(fresh, tmp_path / "fresh.pkl")
        save_tree(queried, tmp_path / "queried.pkl")
        payload = (tmp_path / "queried.pkl").read_bytes()
        assert payload == (tmp_path / "fresh.pkl").read_bytes()
        assert b"MemberBlock" not in payload
        # and the bytes are the ones pickle wrote before the block slot
        # existed: the default state of the other slots, nothing else
        for node in walk_nodes(queried):
            del node.block
        original = (_Node.__getstate__, _Node.__setstate__)
        try:
            del _Node.__getstate__, _Node.__setstate__
            default = pickle.dumps(queried, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            _Node.__getstate__, _Node.__setstate__ = original
        assert default == pickle.dumps(fresh,
                                       protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(default).root.block is None

    def test_concurrent_first_queries_on_a_cold_tree(self):
        db = generate_beijing(40, seed=8)
        queries = generate_beijing(8, seed=108)
        oracle = TrajTree(db, normalized=True, num_vps=4, seed=8,
                          backend="numpy")
        expected = [(oracle.knn(q, 3), oracle.range_query(q, 0.4))
                    for q in queries]
        for _ in range(5):
            cold = TrajTree(generate_beijing(40, seed=8), normalized=True,
                            num_vps=4, seed=8, backend="numpy")
            barrier = threading.Barrier(len(queries))
            results = [None] * len(queries)

            def worker(i):
                barrier.wait()
                results[i] = (cold.knn(queries[i], 3),
                              cold.range_query(queries[i], 0.4))

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(queries))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
            assert results == expected
            assert cold.root.block.ids.tolist() == cold.root.subtree_ids


def forest_walks(n, seed):
    """The ``forest_knn`` benchmark's 3-6 point walks, starts uniform over
    a ``20 * sqrt(n)`` square."""
    rng = np.random.default_rng(seed)
    extent = 20.0 * math.sqrt(n)
    out = []
    for tid in range(n):
        pts = rng.normal(0.0, 5.0, (int(rng.integers(3, 7)), 2)).cumsum(0)
        out.append(Trajectory.from_xy(pts + rng.uniform(0, extent, 2),
                                      traj_id=tid))
    return out


def test_forest_flush_counts_members_not_chunks():
    """480 walks in 6 shards of 80: every shard is refined whole, and the
    deferral buffer flushes once it holds 128 *members* — after the second
    shard — so later shards prune against a real k-th distance.  A trigger
    counting chunks would flush only at the end: 480 exact distances per
    query.  The pinned total is the one this test measured on the scalar
    implementation."""
    forest = TrajForest(forest_walks(480, 0), num_shards=6, seed=0,
                        normalized=True, num_vps=2, vp_levels=1,
                        min_node_size=40, max_branching=2, max_boxes=3,
                        backend="numpy")
    stats = TrajTreeStats()
    for q in forest_walks(20, 1):
        forest.knn(q, 10, stats=stats)
    assert (stats.exact_computations, stats.members_pruned) == FOREST_PINNED


#: (exact_computations, members_pruned) summed over the 20 queries.
FOREST_PINNED = (5516, 4084)


@pytest.mark.parametrize("backend", BACKENDS)
def test_theorem2_counterexample(backend):
    """Q = (0,-2) -> (0,0) against T, the same path with a vertex added at
    (0,-1): EDwP is 0, so the bound over T's own tBoxSeq must be 0 too —
    the pair on which a box-DP bound read 0.889 (DESIGN.md, "Index bound
    kernels")."""
    query = Trajectory.from_xy([(0, -2), (0, 0)])
    target = Trajectory.from_xy([(0, -2), (0, -1), (0, 0)])
    with use_backend(backend):
        bound = edwp_sub_box(query, TBoxSeq.from_trajectories([target]))
    assert bound <= edwp(query, target, backend=backend)
