"""The batched distance-matrix engine: pairwise_matrix / cross_matrix."""

import numpy as np
import pytest

from repro import pairwise_matrix, cross_matrix
from repro.baselines import DistanceSpec, get_distance, list_distances, ma
from repro.core import Trajectory, use_backend


@pytest.fixture(scope="module")
def trajs():
    rng = np.random.default_rng(3)
    lengths = [4, 9, 1, 15, 7, 2, 11]
    return [
        Trajectory.from_xy(rng.normal(0, 5, (n, 2)).cumsum(axis=0),
                           traj_id=i)
        for i, n in enumerate(lengths)
    ]


class TestPairwiseMatrix:
    @pytest.mark.parametrize("metric,params", [
        ("dtw", {}),
        ("edr", {"eps": 3.0}),
        ("lcss", {"eps": 3.0}),
        ("erp", {}),
        ("frechet", {}),
        ("hausdorff", {}),
        ("edwp", {}),
    ])
    def test_symmetry_and_consistency(self, trajs, metric, params):
        spec = get_distance(metric, **params)
        mat = pairwise_matrix(trajs, metric, backend="numpy", **params)
        assert mat.shape == (len(trajs), len(trajs))
        assert np.array_equal(mat, mat.T)
        ref = np.array([[spec.fn(a, b) for b in trajs] for a in trajs])
        assert np.array_equal(np.isinf(mat), np.isinf(ref))
        finite = np.isfinite(ref)
        assert np.abs(mat[finite] - ref[finite]).max() < 1e-9
        assert np.allclose(np.diag(mat), 0.0, atol=1e-9)

    def test_backends_agree(self, trajs):
        a = pairwise_matrix(trajs, "dtw", backend="python")
        b = pairwise_matrix(trajs, "dtw", backend="numpy")
        assert np.abs(a - b).max() < 1e-9

    def test_follows_global_backend(self, trajs):
        with use_backend("numpy"):
            mat = pairwise_matrix(trajs, "dtw")
        assert np.abs(mat - pairwise_matrix(trajs, "dtw")).max() < 1e-9

    def test_ma_computes_full_matrix(self, trajs):
        """MA is asymmetric: the spec flags it and the engine must not
        mirror the upper triangle."""
        spec = get_distance("ma")
        assert not spec.symmetric
        mat = pairwise_matrix(trajs, "ma")
        ref = np.array([[ma(a, b) for b in trajs] for a in trajs])
        assert np.abs(mat - ref).max() < 1e-12
        assert not np.array_equal(mat, mat.T)

    def test_forced_symmetric_override(self, trajs):
        full = pairwise_matrix(trajs, "dtw", backend="numpy",
                               symmetric=False)
        mirrored = pairwise_matrix(trajs, "dtw", backend="numpy",
                                   symmetric=True)
        assert np.abs(full - mirrored).max() < 1e-9

    def test_accepts_prebuilt_spec(self, trajs):
        spec = get_distance("lcss", eps=3.0, backend="numpy")
        mat = pairwise_matrix(trajs, spec)
        assert np.abs(
            mat - pairwise_matrix(trajs, "lcss", eps=3.0, backend="numpy")
        ).max() == 0.0

    def test_spec_plus_params_rejected(self, trajs):
        spec = get_distance("dtw")
        with pytest.raises(TypeError):
            pairwise_matrix(trajs, spec, eps=1.0)

    def test_empty_trajectory_entries(self, trajs):
        withempty = list(trajs) + [Trajectory([])]
        mat = pairwise_matrix(withempty, "dtw", backend="numpy")
        assert np.all(np.isinf(mat[-1, :-1]))
        assert np.all(np.isinf(mat[:-1, -1]))
        assert mat[-1, -1] == 0.0


class TestCrossMatrix:
    def test_matches_pairwise_block(self, trajs):
        queries = trajs[:3]
        mat = cross_matrix(queries, trajs, "dtw", backend="numpy")
        assert mat.shape == (3, len(trajs))
        square = pairwise_matrix(trajs, "dtw", backend="numpy")
        assert np.abs(mat - square[:3]).max() < 1e-9

    def test_every_registry_metric_runs(self, trajs):
        small = [t for t in trajs if len(t) >= 2][:3]
        for name in list_distances():
            params = {"eps": 3.0} if name in ("edr", "lcss") else {}
            mat = cross_matrix(small, small, name, **params)
            assert mat.shape == (3, 3)
            assert np.all(np.isfinite(mat))

    def test_unknown_metric(self, trajs):
        with pytest.raises(KeyError):
            cross_matrix(trajs, trajs, "sspd")

