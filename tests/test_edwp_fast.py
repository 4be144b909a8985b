"""The numpy EDwP backend: equivalence with the reference DP + backend API.

DESIGN.md ("Dual-backend EDwP kernels") promises the vectorized kernel
matches the pure-Python reference to float tolerance on every input,
including degenerate ones.  These tests enforce the promise on the single
pair, sub-distance and batched entry points, and pin down the backend
selection API.
"""

import math

import numpy as np
import pytest

from repro.core import (
    BACKENDS,
    Trajectory,
    edwp,
    edwp_avg,
    edwp_many,
    get_backend,
    set_backend,
    use_backend,
)
from repro.core import edwp_fast
from repro.core.edwp_sub import edwp_sub, edwp_sub_fast, prefix_dist

TOL = 1e-9


def random_trajectory(rng, n, duplicate_point=False):
    """Random-walk trajectory; optionally with a zero-length segment."""
    xy = rng.normal(0, 1, (n, 2)).cumsum(axis=0)
    if duplicate_point and n > 2:
        xy[n // 2] = xy[n // 2 - 1]
    return Trajectory.from_xy(xy)


class TestKernelEquivalence:
    """Property: edwp_fast == reference DP on random trajectory pairs."""

    def test_random_pairs_match_reference(self, rng):
        for trial in range(60):
            a = random_trajectory(rng, int(rng.integers(2, 30)),
                                  duplicate_point=trial % 5 == 0)
            b = random_trajectory(rng, int(rng.integers(2, 30)),
                                  duplicate_point=trial % 7 == 0)
            assert edwp(a, b, backend="numpy") == pytest.approx(
                edwp(a, b, backend="python"), abs=TOL)

    def test_sub_distances_match_reference(self, rng):
        for trial in range(30):
            a = random_trajectory(rng, int(rng.integers(2, 15)),
                                  duplicate_point=trial % 4 == 0)
            b = random_trajectory(rng, int(rng.integers(2, 30)))
            for fn in (edwp_sub, edwp_sub_fast, prefix_dist):
                assert fn(a, b, backend="numpy") == pytest.approx(
                    fn(a, b, backend="python"), abs=TOL)

    def test_two_point_trajectories(self, rng):
        for _ in range(20):
            a = random_trajectory(rng, 2)
            b = random_trajectory(rng, 2)
            assert edwp(a, b, backend="numpy") == pytest.approx(
                edwp(a, b, backend="python"), abs=TOL)

    def test_all_duplicate_points(self):
        """Every segment zero-length: the projection guards must not NaN."""
        a = Trajectory.from_xy([(2.0, 2.0)] * 5)
        b = Trajectory.from_xy([(3.0, 3.0)] * 4)
        ref = edwp(a, b, backend="python")
        assert edwp(a, b, backend="numpy") == pytest.approx(ref, abs=TOL)
        assert math.isfinite(ref)

    def test_identity_is_zero(self, rng):
        t = random_trajectory(rng, 12)
        assert edwp(t, t, backend="numpy") == pytest.approx(0.0, abs=TOL)

    def test_trivial_base_cases(self):
        empty = Trajectory([])
        point = Trajectory([(5.0, 5.0, 0.0)])
        seg = Trajectory.from_xy([(0, 0), (1, 1)])
        for backend in BACKENDS:
            assert edwp(empty, empty, backend=backend) == 0.0
            assert edwp(point, point, backend=backend) == 0.0
            assert edwp(point, seg, backend=backend) == math.inf
            assert edwp(seg, empty, backend=backend) == math.inf

    def test_paper_appendix_anchors(self, paper_appendix_trajectories):
        """The numpy backend reproduces the paper's exact numbers too."""
        t1, t2, t3 = paper_appendix_trajectories
        assert edwp(t1, t2, backend="numpy") == pytest.approx(1.0)
        assert edwp(t2, t3, backend="numpy") == pytest.approx(1.0)
        assert edwp(t1, t3, backend="numpy") == pytest.approx(4.0)

    def test_edwp_avg_matches(self, fig2_trajectories):
        t1, t2 = fig2_trajectories
        assert edwp_avg(t1, t2, backend="numpy") == pytest.approx(
            edwp_avg(t1, t2, backend="python"), abs=TOL)


class TestEdwpMany:
    def test_matches_sequential_loop(self, rng):
        query = random_trajectory(rng, 15)
        targets = [
            random_trajectory(rng, int(rng.integers(2, 40)),
                              duplicate_point=i % 4 == 0)
            for i in range(30)
        ]
        reference = [edwp(query, t, backend="python") for t in targets]
        for backend in BACKENDS:
            batch = edwp_many(query, targets, backend=backend)
            assert batch == pytest.approx(reference, abs=TOL)

    def test_chunking_covers_large_batches(self, rng, monkeypatch):
        """More targets than one lockstep sweep still come back in order:
        one row under the cap, exactly at it, and one over (two sweeps)."""
        query = random_trajectory(rng, 6)
        cap_rows = 8
        monkeypatch.setattr(edwp_fast, "SWEEP_CELLS",
                            cap_rows * (len(query) + 2))
        for rows in (cap_rows - 1, cap_rows, cap_rows + 1):
            targets = [
                random_trajectory(rng, int(rng.integers(2, 10)))
                for _ in range(rows)
            ]
            reference = [edwp(query, t, backend="python") for t in targets]
            assert edwp_many(query, targets, backend="numpy") == pytest.approx(
                reference, abs=TOL)

    def test_segmentless_targets_get_inf(self, rng):
        query = random_trajectory(rng, 5)
        targets = [Trajectory([(1.0, 1.0, 0.0)]), random_trajectory(rng, 8),
                   Trajectory([])]
        for backend in BACKENDS:
            batch = edwp_many(query, targets, backend=backend)
            assert batch[0] == math.inf and batch[2] == math.inf
            assert math.isfinite(batch[1])

    def test_normalized(self, rng):
        query = random_trajectory(rng, 9)
        targets = [random_trajectory(rng, 7) for _ in range(5)]
        expected = [edwp_avg(query, t) for t in targets]
        for backend in BACKENDS:
            assert edwp_many(
                query, targets, normalized=True, backend=backend
            ) == pytest.approx(expected, abs=TOL)

    def test_empty_batch(self, rng):
        assert edwp_many(random_trajectory(rng, 4), []) == []


class TestBackendSelection:
    def test_default_is_python(self):
        assert get_backend() == "python"

    def test_set_backend_roundtrip(self):
        previous = set_backend("numpy")
        try:
            assert previous == "python"
            assert get_backend() == "numpy"
        finally:
            set_backend(previous)

    def test_use_backend_restores_on_exit(self):
        with use_backend("numpy"):
            assert get_backend() == "numpy"
        assert get_backend() == "python"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("numpy"):
                raise RuntimeError("boom")
        assert get_backend() == "python"

    def test_global_backend_drives_dispatch(self, rng, monkeypatch):
        """With the global backend set, plain edwp() runs the fast kernel."""
        calls = []
        real = edwp_fast.dp_sweep
        monkeypatch.setattr(
            edwp_fast, "dp_sweep",
            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        a, b = random_trajectory(rng, 5), random_trajectory(rng, 6)
        with use_backend("numpy"):
            edwp(a, b)
        assert calls, "global numpy backend did not reach the fast kernel"

    def test_explicit_kwarg_overrides_global(self, rng, monkeypatch):
        calls = []
        real = edwp_fast.dp_sweep
        monkeypatch.setattr(
            edwp_fast, "dp_sweep",
            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        a, b = random_trajectory(rng, 5), random_trajectory(rng, 6)
        with use_backend("numpy"):
            edwp(a, b, backend="python")
        assert not calls
        edwp(a, b, backend="numpy")
        assert calls

    def test_unknown_backend_rejected(self, rng):
        a, b = random_trajectory(rng, 3), random_trajectory(rng, 3)
        with pytest.raises(ValueError, match="unknown backend"):
            edwp(a, b, backend="cuda")
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cuda")


class TestCoordsCache:
    def test_coords_is_cached_and_contiguous(self, rng):
        t = random_trajectory(rng, 7)
        first = t.coords()
        assert first.flags["C_CONTIGUOUS"]
        assert first.shape == (7, 2)
        assert t.coords() is first
        np.testing.assert_array_equal(first, t.data[:, :2])

    def test_complex_view_matches_points(self, rng):
        t = random_trajectory(rng, 5)
        z = edwp_fast.trajectory_complex(t)
        assert z.dtype == np.complex128
        np.testing.assert_array_equal(z.real, t.data[:, 0])
        np.testing.assert_array_equal(z.imag, t.data[:, 1])

    def test_pickle_drops_cache_and_rebuilds(self, rng):
        """Index snapshots must not carry the cache, and a loaded
        trajectory must still serve the numpy backend."""
        import pickle

        t = random_trajectory(rng, 6)
        t.coords()                              # warm the cache
        clone = pickle.loads(pickle.dumps(t))
        assert clone._coords is None
        assert edwp(t, clone, backend="numpy") == pytest.approx(0.0, abs=TOL)
