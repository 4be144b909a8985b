"""Anytime query budgets (ISSUE 10).

The anytime contract, tested at every layer it crosses:

* **Unit**: ``QueryBudget`` validation and wire round-trip,
  ``BudgetTracker`` charging / sticky exhaustion / fan-out splitting
  (with an injectable fake clock, so deadline behavior is deterministic),
  ``combine_budgets`` tightening, ``bound_factor_for`` edge cases.
* **Bit-identity**: an *unlimited* budget returns an ``AnytimeResult``
  that compares equal to the plain no-budget answer — on both distance
  backends.
* **Soundness**: for any finite budget that actually truncates, every
  returned distance is ≤ ``bound_factor`` × the true k-th distance
  (measured against the linear-scan oracle via
  :func:`repro.eval.ubfactor.anytime_factor`), on both backends.
* **Hard ceiling**: ``max_bounds`` is never exceeded by
  ``stats.bound_computations``.
* **Forest census**: per-shard exactness matches per-shard truth when a
  fake clock passes the deadline at one shard's injected fault point.
"""

import math

import pytest

from repro import edwp, edwp_avg
from repro.core.edwp_sub import edwp_sub
from repro.datasets import generate_beijing
from repro.eval.ubfactor import anytime_factor
from repro.index import (
    AnytimeResult,
    BudgetTracker,
    QueryBudget,
    TrajForest,
    TrajTree,
    combine_budgets,
)
from repro.index.budget import as_tracker, bound_factor_for
from repro.index.trajtree import TrajTreeStats
from repro.testing.faults import FaultPlan, injected

BACKENDS = ("python", "numpy")


@pytest.fixture(scope="module")
def db():
    return generate_beijing(40, seed=11)


@pytest.fixture(scope="module")
def queries(db):
    return generate_beijing(4, seed=23)


@pytest.fixture(scope="module")
def tree(db):
    return TrajTree(db, normalized=True, num_vps=6, seed=7)


@pytest.fixture(scope="module")
def tree_for(db):
    """Trees keyed ``(backend, normalized)``, each built once per module."""
    built = {}

    def get(backend, normalized):
        key = (backend, normalized)
        if key not in built:
            built[key] = TrajTree(db, normalized=normalized, num_vps=6,
                                  seed=7, backend=backend)
        return built[key]

    return get


#: Both callers of the shared best-first engine.
KINDS = ("knn", "subtrajectory_knn")


def _truth(kind, normalized):
    """The exact distance a ``kind`` query reports on such a tree."""
    if kind == "subtrajectory_knn":
        return edwp_sub              # raw EDwPsub, never normalized
    return edwp_avg if normalized else edwp


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------- #
# unit: QueryBudget / BudgetTracker / helpers
# ---------------------------------------------------------------------- #


class TestQueryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueryBudget(deadline=0.0)
        with pytest.raises(ValueError):
            QueryBudget(deadline=-1.0)
        with pytest.raises(ValueError):
            QueryBudget(max_bounds=-1)
        with pytest.raises(ValueError):
            QueryBudget(epsilon=-0.1)
        with pytest.raises(ValueError):
            QueryBudget(epsilon=float("nan"))
        assert QueryBudget().unlimited
        assert not QueryBudget(max_bounds=0).unlimited
        assert not QueryBudget(epsilon=0.5).unlimited

    def test_wire_round_trip(self):
        b = QueryBudget(deadline=0.25, max_bounds=100, epsilon=0.5)
        assert QueryBudget.from_dict(b.to_dict()) == b
        assert QueryBudget.from_dict({}) == QueryBudget()
        with pytest.raises(ValueError):
            QueryBudget.from_dict({"bogus": 1})
        with pytest.raises((TypeError, ValueError)):
            QueryBudget.from_dict({"max_bounds": 1.5})

    def test_budgets_are_hashable_by_value(self):
        a = QueryBudget(max_bounds=5)
        b = QueryBudget(max_bounds=5)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_combine_takes_the_tighter_knob(self):
        a = QueryBudget(deadline=1.0, max_bounds=100, epsilon=0.1)
        b = QueryBudget(deadline=0.5, epsilon=0.4)
        c = combine_budgets(a, b)
        assert c.deadline == 0.5
        assert c.max_bounds == 100
        assert c.epsilon == 0.4
        assert combine_budgets(None, None) is None
        assert combine_budgets(a, None) == a
        assert combine_budgets(None, b) == b


class TestBudgetTracker:
    def test_bounds_charge_and_sticky_exhaustion(self):
        t = QueryBudget(max_bounds=10).tracker()
        assert t.exhausted() is None
        t.charge_bounds(6)
        assert t.remaining_bounds() == 4
        assert t.exhausted() is None
        t.charge_bounds(4)
        assert t.remaining_bounds() == 0
        assert t.exhausted() == "bounds"
        # sticky: once exhausted, stays exhausted
        assert t.exhausted() == "bounds"

    def test_deadline_with_fake_clock(self):
        clock = FakeClock()
        t = QueryBudget(deadline=0.5).tracker(clock=clock)
        assert t.exhausted() is None
        clock.now += 0.4
        assert t.exhausted() is None
        clock.now += 0.2
        assert t.exhausted() == "deadline"

    def test_split_shares_deadline_and_divides_bounds(self):
        clock = FakeClock()
        t = QueryBudget(deadline=1.0, max_bounds=10).tracker(clock=clock)
        kids = t.split(3)
        assert len(kids) == 3
        for kid in kids:
            assert kid.deadline_at == t.deadline_at
            assert kid.max_bounds == 4       # ceil(10 / 3)
        clock.now += 2.0
        assert all(k.exhausted() == "deadline" for k in kids)

    def test_as_tracker_normalizes(self):
        assert as_tracker(None) is None
        t = QueryBudget().tracker()
        assert as_tracker(t) is t
        assert isinstance(as_tracker(QueryBudget()), BudgetTracker)
        with pytest.raises(TypeError):
            as_tracker(42)


class TestBoundFactor:
    def test_edge_cases(self):
        pairs = [(1, 1.0), (2, 2.0)]
        assert bound_factor_for(pairs, 3, 0.5) == math.inf   # fewer than k
        assert bound_factor_for(pairs, 2, 4.0) == 1.0        # within residual
        assert bound_factor_for(pairs, 2, 0.0) == math.inf   # no information
        assert bound_factor_for(pairs, 2, 1.0) == 2.0

    def test_anytime_result_is_list_compatible(self):
        pairs = [(1, 1.0)]
        r = AnytimeResult(pairs, exact=False, reason="bounds",
                          residual_bound=0.5, bound_factor=2.0)
        assert r == pairs                     # list equality ignores flags
        assert not r.exact and r.reason == "bounds"
        meta = r.meta_dict()
        assert meta["exact"] is False
        assert meta["bound_factor"] == 2.0
        exact = AnytimeResult(pairs)
        assert exact.exact and exact.meta_dict()["residual_bound"] is None


# ---------------------------------------------------------------------- #
# tree-level contract, both backends
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
class TestAnytimeContract:
    def test_unlimited_budget_is_bit_identical(self, db, queries, backend):
        t = TrajTree(db, normalized=True, num_vps=6, seed=7, backend=backend)
        for q in queries:
            plain = t.knn(q, 5)
            budgeted = t.knn(q, 5, budget=QueryBudget())
            assert isinstance(budgeted, AnytimeResult)
            assert budgeted.exact and budgeted.reason is None
            assert budgeted == plain
            sub = t.subtrajectory_knn(q, 3, budget=QueryBudget())
            assert sub.exact and sub == t.subtrajectory_knn(q, 3)
            radius = plain[-1][1] * 1.1
            rng = t.range_query(q, radius, budget=QueryBudget())
            assert rng.exact and rng == t.range_query(q, radius)

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_truncated_answers_are_sound(self, db, queries, tree_for,
                                         backend, kind, normalized):
        search = getattr(tree_for(backend, normalized), kind)
        truncated = 0
        for q in queries:
            for max_bounds in (0, 1, 3, 8):
                r = search(q, 5, budget=QueryBudget(max_bounds=max_bounds))
                if r.exact:
                    assert r == search(q, 5)
                    continue
                truncated += 1
                assert r.reason == "bounds"
                if math.isfinite(r.bound_factor):
                    realized = anytime_factor(
                        r, q, db, 5, distance=_truth(kind, normalized))
                    assert realized <= r.bound_factor + 1e-9
        assert truncated > 0      # the budgets above do truncate

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_epsilon_bounds_the_error(self, db, queries, tree_for, backend,
                                      kind, normalized):
        search = getattr(tree_for(backend, normalized), kind)
        eps = 0.5
        saw_epsilon_stop = False
        for q in queries:
            r = search(q, 5, budget=QueryBudget(epsilon=eps))
            realized = anytime_factor(
                r, q, db, 5, distance=_truth(kind, normalized))
            assert realized <= 1.0 + eps + 1e-9
            if not r.exact:
                saw_epsilon_stop = True
                assert r.reason == "epsilon"
                assert r.bound_factor <= 1.0 + eps + 1e-12
        # epsilon may or may not trigger per query; the soundness
        # bound above holds either way.
        del saw_epsilon_stop


class TestBudgetMechanics:
    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_max_bounds_is_a_hard_ceiling(self, tree_for, queries, kind,
                                          normalized):
        search = getattr(tree_for(None, normalized), kind)
        for q in queries:
            for max_bounds in (0, 1, 5, 20):
                stats = TrajTreeStats()
                search(q, 5, stats=stats,
                       budget=QueryBudget(max_bounds=max_bounds))
                assert stats.bound_computations <= max_bounds

    def test_exhausted_deadline_truncates_immediately(self, tree, queries):
        clock = FakeClock()
        tracker = QueryBudget(deadline=0.5).tracker(clock=clock)
        clock.now += 1.0              # blown before the search starts
        r = tree.knn(queries[0], 5, budget=tracker)
        assert not r.exact and r.reason == "deadline"

    def test_range_truncation_is_a_subset(self, tree, queries,
                                          small_refine_flush):
        q = queries[0]
        radius = tree.knn(q, 8)[-1][1] * 1.2
        full = tree.range_query(q, radius)
        r = tree.range_query(q, radius, budget=QueryBudget(max_bounds=1))
        assert not r.exact
        assert set(r) <= set(full)

    def test_query_many_accepts_budgets(self, tree, queries):
        q = queries[0]
        budget = QueryBudget(max_bounds=0)
        out = tree.query_many([
            ("knn", q, 5),
            ("knn", q, 5, budget),
            ("knn", q, 5, budget),
            ("knn", q, 5, QueryBudget()),
        ])
        plain, _ = out[0]
        assert plain == tree.knn(q, 5)
        truncated, _ = out[1]
        assert not truncated.exact
        # same (query, budget) singleflights to one computation
        assert out[1][0] is out[2][0]
        # unlimited-budget result is distinct from, but equal to, plain
        assert out[3][0] == plain and out[3][0].exact


# ---------------------------------------------------------------------- #
# the same contract on a tree that traverses
# ---------------------------------------------------------------------- #
#
# The 40-trajectory tree is refined whole at the root (no bound is ever
# charged, only ``max_bounds=0`` truncates).  With the crossover at 4
# (conftest's ``small_refine_flush``) every budget above bites mid-search.


@pytest.mark.usefixtures("small_refine_flush")
class TestAnytimeContractTraversing(TestAnytimeContract):
    pass


@pytest.mark.usefixtures("small_refine_flush")
class TestBudgetMechanicsTraversing(TestBudgetMechanics):
    pass


# ---------------------------------------------------------------------- #
# forest fan-out and the partial-exactness census
# ---------------------------------------------------------------------- #


class TestForestBudgets:
    @pytest.fixture(scope="class")
    def forest(self, db):
        return TrajForest(db, num_shards=3, normalized=True, num_vps=6,
                          seed=7)

    def test_unlimited_budget_merges_exact(self, forest, tree, queries):
        for q in queries:
            r = forest.knn(q, 5, budget=QueryBudget())
            assert r.exact and r.shard_exact == [True, True, True]
            assert r == tree.knn(q, 5)

    def test_census_matches_injected_shard_delay(self, forest, queries):
        q = queries[0]
        # The clock passes the deadline exactly when shard 2's fault point
        # fires, so shards 0 and 1 (queried before it) answer exactly and
        # shard 2 comes back deadline-truncated, however long they take.
        plan = FaultPlan().on("forest.query_shard:2", "delay", 0.0)
        budget = QueryBudget(deadline=0.1).tracker(
            clock=lambda: 100.0 + plan.fired())
        with injected(plan):
            r = forest.knn(q, 5, budget=budget)
        assert plan.fired() == 1
        assert r.shard_exact == [True, True, False]
        assert not r.exact and r.reason == "deadline"
        # partial answers stay sound: the merged list is a valid ranking
        # over whatever the healthy shards returned
        assert r == sorted(r, key=lambda p: (p[1], p[0]))

    def test_forest_bounds_split(self, forest, queries):
        q = queries[0]
        r = forest.knn(q, 5, budget=QueryBudget(max_bounds=0))
        assert not r.exact and r.reason == "bounds"
        assert r.shard_exact == [False, False, False]


@pytest.mark.usefixtures("small_refine_flush")
class TestForestBudgetsTraversing(TestForestBudgets):
    """Shards that traverse: ``max_bounds`` splits bite inside each shard,
    and a truncated shard's deferred members still reach the final flush
    its forest owns."""

    def test_truncated_forest_answers_are_sound(self, forest, db, queries):
        truncated = 0
        for q in queries:
            for max_bounds in (0, 3, 9, 24):
                r = forest.knn(q, 5, budget=QueryBudget(max_bounds=max_bounds))
                assert r.exact == all(r.shard_exact)
                if r.exact:
                    assert r == forest.knn(q, 5)
                    continue
                truncated += 1
                if math.isfinite(r.bound_factor):
                    realized = anytime_factor(r, q, db, 5, distance=edwp_avg)
                    assert realized <= r.bound_factor + 1e-9
        assert truncated > 0
