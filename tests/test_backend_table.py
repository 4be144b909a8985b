"""The one kernel-tier table (ISSUE 21): fallback order, every dispatcher
wired to its op, and the deleted options staying deleted."""

import inspect
from pathlib import Path

import pytest

import repro
from repro import Trajectory, TrajTree, cross_matrix, edwp, edwp_many
from repro import pairwise_matrix
from repro.baselines import (
    directed_hausdorff, discrete_frechet, dissim, dtw, dtw_many, edr,
    edr_many, erp, erp_many, frechet_many, lcss_distance_many, lcss_length,
)
from repro.baselines import fast
from repro.core import backend as backend_mod
from repro.core import edwp_fast
from repro.core.backend import tier_kernel
from repro.core.edwp_sub import (
    edwp_sub, edwp_sub_fast, edwp_sub_fast_queries, edwp_sub_many,
    prefix_dist,
)

SRC = Path(repro.__file__).resolve().parent

T1 = Trajectory([(0, 0, 0), (3, 4, 1), (6, 0, 2)])
T2 = Trajectory([(1, 1, 0), (4, 5, 1), (7, 1, 2), (8, 2, 3)])


class TestFallbackOrder:
    def test_python_runs_the_callers_reference_loop(self):
        for op in ("edwp", "dtw", "edwp_sub_box", "no_such_op"):
            assert tier_kernel(op, "python") is None

    def test_numpy_has_a_kernel_or_none(self):
        assert tier_kernel("edwp", "numpy") is edwp_fast.edwp_numpy
        assert tier_kernel("dtw", "numpy") is fast.dtw_numpy
        assert tier_kernel("no_such_op", "numpy") is None

    def test_the_box_bound_has_no_tier(self):
        """The node bound is one vectorized pass on every backend."""
        for backend in ("python", "numpy"):
            assert not [op for op in backend_mod._table(backend)
                        if op.startswith("edwp_sub_box")]

    def test_none_follows_the_global_switch(self):
        assert tier_kernel("edwp", None) is None      # default: python
        with repro.use_backend("numpy"):
            assert tier_kernel("edwp", None) is edwp_fast.edwp_numpy

    def test_selection_errors_are_the_typed_ones(self):
        with pytest.raises(repro.UnknownBackendError):
            tier_kernel("edwp", "cuda")

    def test_banded_lcss_has_no_kernel_on_any_tier(self, monkeypatch):
        """``delta > 0`` is reference-only: the numpy tier's unbanded
        kernel must not be asked."""
        def boom(*args):
            raise AssertionError("banded LCSS reached the unbanded kernel")

        monkeypatch.setitem(backend_mod._table("numpy"), "lcss_length", boom)
        assert lcss_length(T1, T2, 1.5, delta=1, backend="numpy") \
            == lcss_length(T1, T2, 1.5, delta=1, backend="python")


#: op -> a call of its dispatching function that is past every base case.
DISPATCHERS = {
    "edwp": lambda b: edwp(T1, T2, backend=b),
    "edwp_many": lambda b: edwp_many(T1, [T2], backend=b),
    "edwp_sub": lambda b: edwp_sub(T1, T2, backend=b),
    "edwp_sub_many": lambda b: edwp_sub_many(T1, [T2], backend=b),
    "edwp_sub_fast": lambda b: edwp_sub_fast(T1, T2, backend=b),
    "edwp_sub_fast_queries":
        lambda b: edwp_sub_fast_queries([T1], T2, backend=b),
    "prefix_dist": lambda b: prefix_dist(T1, T2, backend=b),
    "dtw": lambda b: dtw(T1, T2, backend=b),
    "dtw_many": lambda b: dtw_many(T1, [T2], backend=b),
    "edr": lambda b: edr(T1, T2, 0.5, backend=b),
    "edr_many": lambda b: edr_many(T1, [T2], 0.5, backend=b),
    "erp": lambda b: erp(T1, T2, backend=b),
    "erp_many": lambda b: erp_many(T1, [T2], backend=b),
    "lcss_length": lambda b: lcss_length(T1, T2, 0.5, backend=b),
    "lcss_length_many":
        lambda b: lcss_distance_many(T1, [T2], 0.5, backend=b),
    "frechet": lambda b: discrete_frechet(T1, T2, backend=b),
    "frechet_many": lambda b: frechet_many(T1, [T2], backend=b),
    "dissim": lambda b: dissim(T1, T2, backend=b),
    "directed_hausdorff": lambda b: directed_hausdorff(T1, T2, backend=b),
}


def test_every_table_op_has_a_dispatcher():
    assert set(DISPATCHERS) == set(backend_mod._table("numpy"))


@pytest.mark.parametrize("op", sorted(DISPATCHERS))
@pytest.mark.parametrize("backend", ["numpy"])
def test_dispatcher_runs_its_tier_kernel(op, backend, monkeypatch):
    """A misspelt op would silently run the reference loop — and still
    pass every differential test.  Swap the table entry for a sentinel."""
    class Reached(Exception):
        pass

    def sentinel(*args, **kwargs):
        raise Reached

    monkeypatch.setitem(backend_mod._table(backend), op, sentinel)
    with pytest.raises(Reached):
        DISPATCHERS[op](backend)
    DISPATCHERS[op]("python")        # the reference never asks the table


class TestDeletedOptionsStayDeleted:
    @pytest.mark.parametrize("fn", [edwp_many, TrajTree.knn_batch,
                                    cross_matrix, pairwise_matrix])
    def test_no_workers_parameter(self, fn):
        assert "workers" not in inspect.signature(fn).parameters

    def test_experiment_entry_points_take_no_backend(self):
        from repro.eval.ubfactor import vp_experiment
        from repro.experiments import common, fig5_robust, fig5a, fig6cd
        from repro.experiments import fig6_index, table1

        for fn in (common.robustness_metrics, common.classification_metrics,
                   common.edr_interpolated_metric, table1.run_table1,
                   fig5a.run_fig5a, fig5_robust.robustness_sweep,
                   fig5_robust._one_cell, fig6cd.run_fig6c,
                   fig6cd.run_fig6d, fig6_index.run_fig5j,
                   fig6_index.run_scaling, fig6_index.run_theta_sweep,
                   fig6_index._setup_methods, vp_experiment):
            assert "backend" not in inspect.signature(fn).parameters, fn

    def test_only_the_backend_module_knows_the_native_package(self):
        """Once ``core/backend.py`` alone imported ``repro._native``; the
        package and its numba kernels are deleted, so no module names
        either.  ``TestNativeFallback`` in ``test_backend_matrix`` pins
        that ``"native"`` is an unknown backend at every selection
        point."""
        offenders = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if any(word in path.read_text(encoding="utf-8")
                   for word in ("numba", "_native"))
        ]
        assert offenders == []

    def test_no_thread_pools_or_hand_written_tier_chains(self):
        for path in SRC.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert "ThreadPoolExecutor" not in text, path
            assert 'resolved == "' not in text, path
