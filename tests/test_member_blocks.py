"""Whole-node refinement on arrays: Rule 2's block filter and member blocks.

``TrajTree._members_within`` decides Rule 2 for a whole member block with
two cheap bounds on the rectangle distance and runs the ten-candidate
``polyline_rects_distance`` only on the rows they leave open.  Its keep set
and ``members_pruned`` must equal the scalar rule's — kept below as the
oracle, with the rounding margin the box bound gives up written out per
member — float for float: on hypothesis inputs at coordinate scales from
1e-300 to 1e200, and on the two pinned rounding cases the cheap bounds
exist to get right.

The member blocks themselves (``TrajTree._block``) are derived data: built
once per node between updates, dropped on the path an insert or delete
changes, never pickled, and safe to build from concurrent first queries.
"""

import functools
import itertools
import math
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BACKENDS, Trajectory, edwp, use_backend
from repro.core.geometry import polyline_rects_distance
from repro.datasets import generate_beijing
from repro.index import TrajForest, TrajTree, save_tree
from repro.index import trajtree
from repro.index.tboxseq import TBoxSeq, edwp_sub_box
from repro.index.trajtree import MemberBlock, TrajTreeStats, _Node

from test_backend_matrix import trajectories

SCALES = (1.0, 1e-300, 1e-150, 1e150, 1e200)


EPS = float(np.finfo(np.float64).eps)


def member_rect_raw(query, traj, two_sided=False):
    """The rectangle bound of one member, scalar: ``2 · d · len(Q)``, or
    ``2 · d · (len(Q) + len(T))`` when ``two_sided`` (EDwP's coverage
    counts the member's pieces too), with ``d`` the ten-candidate distance
    to its rectangle less ``32 ε · max|coordinate| + 1e-300`` (0 past
    1e150), the product shrunk by ``1 - 2^-30`` — the box bound's margin
    (DESIGN.md, "Index bound kernels")."""
    rect = traj.bounding_rect()
    d = float(polyline_rects_distance(query.spatial(), [rect])[0])
    scale = max(max(abs(c) for c in rect), float(np.abs(query.coords()).max()))
    if not scale <= 1e150:
        return 0.0
    d = d - (32 * EPS * scale + 1e-300)
    coverage = query.length + traj.length if two_sided else query.length
    return 2.0 * (d if d > 0.0 else 0.0) * coverage * (1.0 - 2.0 ** -30)


def members_within_scalar(self, query, members, raws, limit, normalized,
                          stats, two_sided):
    """The scalar Rule 2 this module's filter replaced: the members whose
    own lower bound does not pass ``limit``.

    Per-member bound: the larger of ``raws[i]`` (the raw bound of the
    node the member came from) and the member's own rectangle's
    (:func:`member_rect_raw`), over its own length.  The rest count in
    ``stats.members_pruned``.
    """
    if not members:
        return members
    quick_raws = (
        [member_rect_raw(query, t, two_sided) for _, t in members]
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


def oracle_bounds(tree, query, trajs, raw, normalized, two_sided):
    """Each member's scalar bound, as the oracle evaluates it."""
    qraws = ([member_rect_raw(query, t, two_sided) for t in trajs]
             if tree.use_quick_bound else [0.0] * len(trajs))
    return [tree._normalize_bound(query, t.length, max(raw, q), normalized)
            for t, q in zip(trajs, qraws)]


def assert_decisions_equal(query, trajs, raw, normalized, use_quick_bound,
                           two_sided):
    """Every limit drawn from the oracle's own bounds (ties land on
    ``<=``), the floats either side of each, 0 and inf: same kept ids and
    the same ``members_pruned``."""
    tree = rule2_tree(use_quick_bound)
    ids = list(range(len(trajs)))
    block = MemberBlock(ids, trajs)
    bounds = oracle_bounds(tree, query, trajs, raw, normalized, two_sided)
    candidates = {0.0, math.inf}
    for b in bounds:
        candidates |= {b, math.nextafter(b, -math.inf),
                       math.nextafter(b, math.inf)}
    for limit in sorted(c for c in candidates if not math.isnan(c)):
        want_stats, got_stats = TrajTreeStats(), TrajTreeStats()
        want = [tid for tid, _ in members_within_scalar(
            tree, query, list(zip(ids, trajs)), [raw] * len(trajs), limit,
            normalized, want_stats, two_sided)]
        got = block.ids[tree._members_within(
            query, block, raw, limit, normalized, got_stats,
            two_sided=two_sided)].tolist()
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
           two_sided=st.booleans(),
           raw_pick=st.integers(-1, 8))
    def test_block_filter_equals_scalar_rule(self, query, members, scale,
                                             normalized, use_quick_bound,
                                             two_sided, raw_pick):
        query = scaled(query, scale)
        members = [scaled(t, scale) for t in members]
        # the vectorized quick bound is the same margined one-sided value
        assert list(map(float.hex, TrajTree._quick_bounds_many_raw(
            query, [t.bounding_rect() for t in members]))) == [
            member_rect_raw(query, t).hex() for t in members]
        # raw: 0, or one member's own rectangle bound (a tie with qraw)
        qraws = [member_rect_raw(query, t, two_sided) for t in members]
        raw = 0.0 if raw_pick < 0 else qraws[raw_pick % len(qraws)]
        assert_decisions_equal(query, members, raw, normalized,
                               use_quick_bound, two_sided)

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
        for raw, two_sided in itertools.product((0.0, 1e-30 * scale),
                                                (False, True)):
            assert_decisions_equal(query, [member], raw, normalized, True,
                                   two_sided)

    @pytest.mark.parametrize("scale", SCALES)
    def test_nearest_vertex_is_sqrt_not_hypot(self, scale):
        """At this offset ``hypot`` is one ulp below ``sqrt(dx*dx +
        dy*dy)``, the value the ten-candidate pass computes: a vertex bound
        through ``hypot`` would keep a row the scalar rule prunes."""
        dx, dy = 2.32413861607486 * scale, 1.4885903365160598 * scale
        query = Trajectory.from_xy([(0.0, 0.0), (-scale, 0.0)])
        member = Trajectory.from_xy([(dx, dy), (dx + scale, dy + scale)])
        for two_sided in (False, True):
            assert_decisions_equal(query, [member], 0.0, False, True,
                                   two_sided)


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
def test_rect_bounds_give_up_the_box_bound_margin(scale):
    """A member whose rectangle lies within the rounding band of the query
    gets a rectangle bound of 0: the quick bound reads 0, and Rule 2 keeps
    it at limit 0, where the unmargined ``2 · d · len(Q)`` would prune."""
    query = Trajectory.from_xy([(0.0, 0.0), (scale, 0.0)])
    gap = 16 * EPS * scale          # half the band
    member = Trajectory.from_xy([(0.0, gap), (scale, 2 * scale)])
    assert polyline_rects_distance(query.spatial(),
                                   [member.bounding_rect()])[0] > 0.0
    assert TrajTree._quick_bounds_many_raw(
        query, [member.bounding_rect()]) == [0.0]
    for two_sided in (False, True):
        stats = TrajTreeStats()
        kept = rule2_tree(True)._members_within(
            query, MemberBlock([7], [member]), 0.0, 0.0, False, stats,
            two_sided=two_sided)
        assert kept.tolist() == [0] and stats.members_pruned == 0


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


@functools.lru_cache(maxsize=None)
def walk_forest():
    """480 walks in 6 shards of 80: every shard root is refined whole."""
    return TrajForest(forest_walks(480, 0), num_shards=6, seed=0,
                      normalized=True, num_vps=2, vp_levels=1,
                      min_node_size=40, max_branching=2, max_boxes=3,
                      backend="numpy")


def test_forest_flush_counts_members_not_chunks():
    """On the 480-walk forest the buffer passes 128 *members* after the
    second shard, with the heap still unfilled and no frontier left to
    prune: deferral goes on, and the owner's last flush holds all 480 rows.
    It screens them with Rule 2 against the 10th smallest of their upper
    bounds and refines the survivors in one call.  The pinned totals are
    this screened flush's; the two-step flush (10 nearest by rectangle
    refined first, the rest screened against their k-th distance) gave
    (1498, 8102), the one-step flush after the second shard (5516, 4084),
    and a flush that never screens would refine all 9,600 rows."""
    stats = TrajTreeStats()
    for q in forest_walks(20, 1):
        walk_forest().knn(q, 10, stats=stats)
    assert (stats.exact_computations, stats.members_pruned) == FOREST_PINNED


#: (exact_computations, members_pruned) summed over the 20 queries.
FOREST_PINNED = (405, 9195)


def test_forest_refines_the_nearest_k_first(monkeypatch):
    """Per query: one ``edwp_many`` call, of the rows the upper-bound
    screen leaves (at least the k with the smallest upper bounds, fewer
    than ``REFINE_FLUSH``, so no two-step); every one of the 480 members
    is refined or screened, once."""
    calls = []
    kernel = trajtree.edwp_many

    def spy(query, trajs, **kwargs):
        calls.append(len(trajs))
        return kernel(query, trajs, **kwargs)

    monkeypatch.setattr(trajtree, "edwp_many", spy)
    for q in forest_walks(20, 1):
        calls.clear()
        stats = TrajTreeStats()
        walk_forest().knn(q, 10, stats=stats)
        assert len(calls) == 1 and 10 <= calls[0] < trajtree.REFINE_FLUSH
        assert stats.exact_computations == calls[0]
        assert stats.exact_computations + stats.members_pruned == 480


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["knn", "subtrajectory_knn"])
def test_flush_trigger_fires_mid_walk_with_an_unfilled_heap(
        backend, kind, monkeypatch):
    """With ``REFINE_FLUSH = 16`` and no VP step to fill the heap, whole
    nodes reach the trigger while the heap is unfilled and the frontier is
    not empty: the trigger fires (screened first for knn; for sub-knn,
    whose rows have no upper bound, a two-step flush, since 16 rows exceed
    the 10 answers missing) and the walk goes on against the k-th distance
    it gives.  Answers equal the scan on a tree and on a forest."""
    monkeypatch.setattr(trajtree, "REFINE_FLUSH", 16)
    fired = []
    flush = trajtree.TopK.flush

    def spy(self):
        caller = sys._getframe(1).f_locals      # _best_first's, or an owner's
        if (caller.get("whole") and caller.get("cands")
                and len(self.ans) < self.k):
            fired.append(sum(map(len, self.pending)))
        flush(self)

    monkeypatch.setattr(trajtree.TopK, "flush", spy)
    trips = generate_beijing(40, seed=9)
    params = dict(normalized=True, num_vps=4, vp_levels=0, min_node_size=5,
                  seed=9, backend=backend)
    tree = TrajTree(trips, **params)
    forest = TrajForest(trips, num_shards=2, **params)
    for index in (tree, forest):
        fired.clear()
        for q in generate_beijing(3, seed=109):
            assert (getattr(index, kind)(q, 10)
                    == getattr(tree, f"{kind}_scan")(q, 10))
        assert fired and min(fired) >= 16


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
