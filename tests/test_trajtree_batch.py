"""TrajTree batched queries and per-index backend selection."""

import pytest

from repro.core import use_backend
from repro.index import TrajTree


@pytest.fixture(scope="module")
def database():
    from repro.datasets import generate_beijing

    return generate_beijing(50, seed=11)


@pytest.fixture(scope="module")
def queries():
    from repro.datasets import generate_beijing

    return generate_beijing(4, seed=1234)


@pytest.fixture(scope="module")
def tree(database):
    return TrajTree(database, num_vps=15, normalized=True, seed=0)


class TestKnnBatch:
    def test_matches_sequential_knn(self, tree, queries):
        batch = tree.knn_batch(queries, k=5)
        assert batch == [tree.knn(q, 5) for q in queries]

    def test_empty_batch(self, tree):
        assert tree.knn_batch([], k=3) == []

    def test_batch_results_are_exact(self, tree, queries):
        for q, result in zip(queries, tree.knn_batch(queries, k=4)):
            assert [tid for tid, _ in result] == [
                tid for tid, _ in tree.knn_scan(q, 4)]


class TestBackendParity:
    """The numpy-backed tree answers exactly like the reference tree."""

    def test_knn_matches_python_tree(self, database, queries, tree):
        fast_tree = TrajTree(database, num_vps=15, normalized=True, seed=0,
                             backend="numpy")
        for q in queries:
            ref = tree.knn(q, 5)
            fast = fast_tree.knn(q, 5)
            assert [tid for tid, _ in ref] == [tid for tid, _ in fast]
            for (_, d_ref), (_, d_fast) in zip(ref, fast):
                assert d_fast == pytest.approx(d_ref, abs=1e-9)

    def test_range_query_matches(self, database, queries):
        fast_tree = TrajTree(database, num_vps=15, normalized=True, seed=0,
                             backend="numpy")
        q = queries[0]
        radius = fast_tree.knn_scan(q, 5)[-1][1] * 1.01
        hits = fast_tree.range_query(q, radius)
        assert [tid for tid, _ in hits] == [
            tid for tid, _ in fast_tree.range_query_scan(q, radius)]

    def test_global_backend_applies_to_default_tree(self, database, queries,
                                                    tree):
        with use_backend("numpy"):
            fast_tree = TrajTree(database, num_vps=15, normalized=True,
                                 seed=0)
            result = fast_tree.knn(queries[0], 5)
        assert [tid for tid, _ in result] == [
            tid for tid, _ in tree.knn(queries[0], 5)]


@pytest.mark.usefixtures("small_refine_flush")
class TestKnnBatchTraversing(TestKnnBatch):
    """The same properties with the crossover at 4."""
