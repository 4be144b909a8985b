"""The flush screens before it refines: soundness of both member bounds.

``TopK.flush`` prunes a deferred member when Rule 2's lower bound — for
EDwP the two-sided ``2 · d · (len(Q) + len(T))`` — passes the k-th
smallest of the heap's distances and the deferred rows' upper bounds
``2 · D · (len(Q) + len(T))`` (``TrajTree._rect_uppers``; DESIGN.md,
"Upper bounds screen the flush").  Both bounds are checked here against
the *computed* distance of both backends on adversarial and re-sampled
inputs at coordinate scales from 1e-300 to 1e200; the search is checked
to refine no row the limit in force excludes, and no member twice, and to
leave everything as it was where no row has an upper bound.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BACKENDS, Trajectory, edwp_many
from repro.datasets import generate_beijing
from repro.index import TrajForest, TrajTree, trajtree
from repro.index.trajtree import MemberBlock, TopK, TrajTreeStats

from test_backend_matrix import trajectories
from test_member_blocks import member_rect_raw, rule2_tree, scaled
from test_properties import resampled_groups

SCALES = (1e-300, 1.0, 1e150, 1e200)


def assert_bounds_bracket(query, members, normalized, backend):
    """Two-sided lower bound <= computed distance <= upper bound, per
    member, and Rule 2 keeps each member at its own distance as limit."""
    block = MemberBlock(list(range(len(members))), members)
    ds = np.asarray(edwp_many(query, members, normalized=normalized,
                              backend=backend), dtype=np.float64)
    uppers = TrajTree._rect_uppers(query, block, normalized)
    for d, upper in zip(ds.tolist(), uppers.tolist()):
        assert d <= upper, (d, upper)
    tree = rule2_tree(True)
    for i, d in enumerate(ds.tolist()):
        lower = tree._normalize_bound(
            query, members[i].length,
            member_rect_raw(query, members[i], two_sided=True), normalized)
        assert lower <= d, (lower, d)
        kept = tree._members_within(query, block.take([i]), 0.0, d,
                                    normalized, TrajTreeStats(),
                                    two_sided=True)
        assert kept.tolist() == [0]


# The ten-candidate pass and the DP overflow at 1e200 (to inf, never past
# an upper bound, which is inf there).
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBoundsBracketTheComputedDistance:
    @settings(max_examples=120, deadline=None)
    @given(query=trajectories(min_len=2),
           members=st.lists(trajectories(), min_size=1, max_size=6),
           scale=st.sampled_from(SCALES), normalized=st.booleans(),
           backend=st.sampled_from(BACKENDS))
    def test_adversarial_shapes(self, query, members, scale, normalized,
                                backend):
        assert_bounds_bracket(scaled(query, scale),
                              [scaled(t, scale) for t in members],
                              normalized, backend)

    @settings(max_examples=120, deadline=None)
    @given(case=resampled_groups(), scale=st.sampled_from(SCALES),
           normalized=st.booleans(), backend=st.sampled_from(BACKENDS))
    def test_resampled_copies(self, case, scale, normalized, backend):
        """Re-sampled copies of the query are the members whose distance
        comes nearest the lower bound."""
        query, group = case
        assert_bounds_bracket(scaled(query, scale),
                              [scaled(t, scale) for t in group],
                              normalized, backend)


class TestUpperBoundEdges:
    def test_rows_without_a_bound_get_inf(self):
        """No segments (EDwP is inf), no length on either side, and a
        scale past 1e150: ``inf``, so they never set the limit."""
        query = Trajectory.from_xy([(0, 0), (3, 4)])
        still = Trajectory.from_xy([(5, 5), (5, 5)])
        rows = [Trajectory.from_xy([(1, 1)]), still,
                Trajectory.from_xy([(0, 0), (1e151, 0)]),
                Trajectory.from_xy([(1, 0), (2, 0)])]
        for normalized in (False, True):
            uppers = TrajTree._rect_uppers(
                query, MemberBlock([0, 1, 2, 3], rows), normalized)
            assert math.isinf(uppers[0]) and math.isinf(uppers[2])
            assert np.isfinite(uppers[[1, 3]]).all()
            point = Trajectory.from_xy([(2, 2), (2, 2)])
            assert math.isinf(TrajTree._rect_uppers(
                point, MemberBlock([1], [still]), normalized)[0])

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("normalized", [False, True])
    def test_zero_length_query_or_member(self, backend, normalized):
        """One side without length: the bound is still finite and sound;
        both without: ``inf``."""
        point = Trajectory.from_xy([(2, 2), (2, 2), (2, 2)])
        walk = Trajectory.from_xy([(0, 0), (3, 4), (6, 0)])
        assert_bounds_bracket(point, [walk, point], normalized, backend)
        assert_bounds_bracket(walk, [point, walk], normalized, backend)


def refine_spy(monkeypatch, log, normalized):
    """Wrap ``TopK.flush``: per flush with upper bounds, the limit the
    heap and the deferred rows give, each row's Rule-2 bound (the scalar
    oracle, two-sided), the ids the flush refines and how many it
    screens."""
    flush = TopK.flush

    def spy(self):
        rows = [(tid, t, raw) for chunk, raw in zip(self.pending, self.raws)
                for tid, t in zip(chunk.ids.tolist(), chunk)]
        refine, refined = self.refine, []
        if rows and self.upper is not None:
            query = self.query
            tree = rule2_tree(True)
            block = MemberBlock([r[0] for r in rows], [r[1] for r in rows])
            limit = self.limit(self.upper(block, None))
            bounds = {tid: tree._normalize_bound(
                query, t.length,
                max(raw, member_rect_raw(query, t, two_sided=True)),
                normalized) for tid, t, raw in rows}

            def counting(batch):
                refined.extend(batch.ids.tolist())
                return refine(batch)

            self.refine = counting
            before = self.stats.members_pruned
            flush(self)
            self.refine = refine
            log.append((limit, bounds, refined,
                        self.stats.members_pruned - before))
        else:
            flush(self)

    monkeypatch.setattr(TopK, "flush", spy)


@pytest.mark.usefixtures("small_refine_flush")
@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("kind", ["tree", "forest"])
def test_no_row_past_the_limit_is_refined(monkeypatch, normalized, kind):
    """On a traversing tree (or 3-shard forest), every flush refines only
    rows whose Rule-2 bound is within the limit in force, and some flushes
    have a finite one; answers equal the scan.  (Here the rows a flush
    could screen were already screened against the k-th distance when
    their node was deferred; the flush's own screen prunes at contract
    size, ``test_member_blocks.test_forest_refines_the_nearest_k_first``.)"""
    trips = generate_beijing(60, seed=5)
    params = dict(normalized=normalized, seed=5, min_node_size=5,
                  backend="numpy")
    index = (TrajTree(trips, **params) if kind == "tree"
             else TrajForest(trips, num_shards=3, **params))
    oracle = TrajTree(trips, **params)
    log = []
    refine_spy(monkeypatch, log, normalized)
    limited = 0
    for q in generate_beijing(5, seed=113):
        assert index.knn(q, 5) == oracle.knn_scan(q, 5)
        for limit, bounds, refined, pruned in log:
            assert all(bounds[tid] <= limit for tid in refined)
            assert pruned == len(bounds) - len(refined)
            limited += limit < math.inf
        log.clear()
    assert limited > 0


@pytest.mark.usefixtures("small_refine_flush")
@pytest.mark.parametrize("method", ["knn", "subtrajectory_knn"])
@pytest.mark.parametrize("kind", ["tree", "forest"])
def test_no_member_is_refined_twice(monkeypatch, method, kind):
    """Whole nodes (and shards) are disjoint, so a search defers each
    member at most once: no id reaches the refine kernel twice in one
    query, on a traversing tree and on a 3-shard forest."""
    trips = generate_beijing(60, seed=5)
    params = dict(normalized=True, seed=5, min_node_size=5, backend="numpy")
    index = (TrajTree(trips, **params) if kind == "tree"
             else TrajForest(trips, num_shards=3, **params))
    oracle = TrajTree(trips, **params)
    refined = []
    for name in ("edwp_many", "edwp_sub_many"):
        def spy(query, batch, *args, _kernel=getattr(trajtree, name),
                **kwargs):
            if isinstance(batch, MemberBlock):      # not the scan's list
                refined.extend(batch.ids.tolist())
            return _kernel(query, batch, *args, **kwargs)
        monkeypatch.setattr(trajtree, name, spy)
    for q in generate_beijing(5, seed=113):
        refined.clear()
        stats = TrajTreeStats()
        assert (getattr(index, method)(q, 5, stats=stats)
                == getattr(oracle, f"{method}_scan")(q, 5))
        assert len(refined) == len(set(refined)) == stats.exact_computations
        assert stats.nodes_visited > 1


@pytest.mark.parametrize("k", [12, 20])
@pytest.mark.parametrize("kind", ["tree", "forest"])
def test_k_at_least_the_database_screens_nothing(k, kind):
    """With fewer than k upper bounds (or exactly k: every row's lower
    bound is within its own upper bound, so within the largest) the limit
    screens no one: every member is refined."""
    trips = generate_beijing(12, seed=14)
    params = dict(normalized=True, num_vps=4, seed=14, backend="numpy")
    index = (TrajTree(trips, **params) if kind == "tree"
             else TrajForest(trips, num_shards=3, **params))
    oracle = TrajTree(trips, **params)
    for q in generate_beijing(3, seed=114):
        stats = TrajTreeStats()
        assert index.knn(q, k, stats=stats) == oracle.knn_scan(q, k)
        assert (stats.exact_computations, stats.members_pruned) == (12, 0)


#: Summed ``TrajTreeStats`` of 4 queries (knn k=5, range 0.3, sub-knn k=5)
#: on 60 Beijing trips without the quick bound: without the quick bound no
#: row has an upper bound, so nothing may move.  Re-measured when the
#: vantage-point step went (it drew from the build's generator, so tree
#: shapes below the root changed): equal, field for field, to the commit
#: before that run with ``vp_levels=0``.
WITHOUT_QUICK_BOUND = {
    (128, "tree", "knn"): (4, 0, 240, 0, 0, 0),
    (128, "tree", "range"): (4, 0, 240, 0, 0, 0),
    (128, "tree", "subtrajectory_knn"): (4, 0, 240, 0, 0, 0),
    (128, "forest", "knn"): (12, 0, 240, 0, 0, 0),
    (128, "forest", "range"): (12, 0, 240, 0, 0, 0),
    (128, "forest", "subtrajectory_knn"): (12, 0, 240, 0, 0, 0),
    (4, "tree", "knn"): (140, 19, 133, 155, 0, 0),
    (4, "tree", "range"): (2, 9, 4, 10, 0, 0),
    (4, "tree", "subtrajectory_knn"): (50, 23, 45, 69, 0, 0),
    (4, "forest", "knn"): (122, 46, 162, 156, 0, 0),
    (4, "forest", "range"): (31, 11, 50, 14, 0, 0),
    (4, "forest", "subtrajectory_knn"): (54, 114, 63, 156, 0, 5),
}


@pytest.mark.parametrize("flush", [128, 4])
def test_without_the_quick_bound_nothing_moves(flush, monkeypatch):
    monkeypatch.setattr(trajtree, "REFINE_FLUSH", flush)
    trips = generate_beijing(60, seed=11)
    params = dict(normalized=True, num_vps=4, min_node_size=5, seed=11,
                  use_quick_bound=False, backend="numpy")
    oracle = TrajTree(trips, **params)
    for name, index in (("tree", TrajTree(trips, **params)),
                        ("forest", TrajForest(trips, num_shards=3,
                                              **params))):
        for kind, param in (("knn", 5), ("range", 0.3),
                            ("subtrajectory_knn", 5)):
            stats = TrajTreeStats()
            method = {"range": "range_query"}.get(kind, kind)
            scan = getattr(oracle, f"{method}_scan")
            for q in generate_beijing(4, seed=111):
                assert (getattr(index, method)(q, param, stats=stats)
                        == scan(q, param))
            assert astuple(stats) == WITHOUT_QUICK_BOUND[flush, name, kind]
