"""The one-sweep lockstep kernel against the kernels it replaced.

``repro.core.edwp_fast.dp_sweep`` is one diagonal body for both batch
orientations, drops rows as the wavefront passes their corner and runs
both EDwPsub passes in one sweep, over cell-major buffers with both
insertions stacked.  None of that may change a byte: the kernels it
replaced — ``dp_last_rows`` / ``dp_own_rows`` (every row over every
diagonal, one mode per sweep) and the row-major ``dp_sweep_rowmajor`` —
are kept in ``lockstep_oracle.py`` and compared with ``np.array_equal``.
The second half counts sweeps: a search refines a node it does not
descend into with exactly one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Trajectory, edwp_fast
from repro.core.edwp import BACKENDS, edwp_many
from repro.core.edwp_sub import edwp_sub, edwp_sub_many
from repro.datasets.beijing import BeijingConfig, generate_beijing
from repro.index.forest import TrajForest
from repro.index.trajtree import TrajTree, TrajTreeStats

import lockstep_oracle as oracle
from test_backend_matrix import (MATRIX_BACKENDS, assert_lists_match,
                                 assert_matches, free_coord, trajectories)
from test_least_growth import FOREST_KWARGS, tiny_walks

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def walks(draw, points):
    """A free-coordinate trajectory of exactly ``points`` points."""
    return Trajectory([(draw(free_coord), draw(free_coord), float(i))
                       for i in range(points)])


@st.composite
def skewed_batches(draw):
    """Batches whose *lengths* are the adversarial part: one row, all rows
    equally long, one 40-point outlier among 4-point rows, or the ragged
    adversarial mix (duplicate points, collinear runs, segmentless rows)."""
    shape = draw(st.sampled_from(["one", "equal", "outlier", "ragged"]))
    if shape == "one":
        return [draw(trajectories(min_len=2))]
    if shape == "equal":
        points = draw(st.integers(2, 8))
        return draw(st.lists(walks(points), min_size=2, max_size=6))
    if shape == "outlier":
        rows = draw(st.lists(walks(4), min_size=1, max_size=5))
        rows.insert(draw(st.integers(0, len(rows))), draw(walks(40)))
        return rows
    rows = draw(st.lists(trajectories(min_len=1, max_len=10), max_size=7))
    rows.append(draw(trajectories(min_len=2)))      # one row has a segment
    return rows


def pack_sorted(batch):
    """What ``_lockstep_batches`` hands a kernel: the rows with a segment,
    length-sorted and padded."""
    live = sorted((t for t in batch if t.num_segments > 0), key=len)
    return live, edwp_fast._pack([edwp_fast.trajectory_complex(t)
                                  for t in live])


def in_extent(segs, columns):
    return np.arange(columns)[None, :] <= segs[:, None]


def sweep_args(z, Z, segs, orientation, free_every):
    """``dp_sweep``'s arguments for query points ``z`` against packed rows:
    the batch on the second side (``"targets"``) or the first
    (``"queries"``); ``free_every=2`` lists every row twice, as
    ``_sub_row_min`` does."""
    if free_every == 2:
        Z, segs = np.repeat(Z, 2, axis=0), np.repeat(segs, 2)
    shared = np.full(len(segs), len(z) - 1)
    if orientation == "targets":
        return z[None, :], shared, Z, segs, free_every
    return Z, segs, z[None, :], shared, free_every


def assert_rowmajor_identical(args):
    """The whole by-diagonal output, every cell: ``inf`` (and the ``nan``
    an overflowing projection makes on both sides) in the same places."""
    with np.errstate(all="ignore"):
        new = edwp_fast.dp_sweep(*args)
        old = oracle.dp_sweep_rowmajor(*args)
    assert np.array_equal(new, old, equal_nan=True)


def pinned_points():
    """A query and seven length-sorted rows of seeded random walks, one
    with a zero-length segment and one on integer coordinates."""
    rng = np.random.default_rng(25)

    def walk(n):
        return np.cumsum(rng.standard_normal(n) + 1j * rng.standard_normal(n))

    rows = [walk(n) for n in sorted(rng.integers(2, 12, size=7))]
    rows[1][1] = rows[1][0]
    rows[3] = np.round(rows[3])
    return walk(6), rows


class TestKernelIdentity:
    """``np.array_equal`` with the parent's kernels, never a tolerance."""

    @SETTINGS
    @given(query=trajectories(min_len=2), batch=skewed_batches(),
           free=st.booleans())
    def test_last_rows(self, query, batch, free):
        """Every in-extent cell of every last row (the corner is one of
        them); the sweep leaves ``inf`` past a row's own columns."""
        live, (Z2, segs) = pack_sorted(batch)
        z1 = edwp_fast.trajectory_complex(query)
        new = edwp_fast._last_rows(z1, Z2, segs, free_every=int(free))
        old = oracle.dp_last_rows(z1, Z2, free_start_row=free)
        own = in_extent(segs, new.shape[1])
        assert np.array_equal(new[own], old[own])
        assert np.all(np.isinf(new[~own]))
        rows = np.arange(len(segs))
        assert np.array_equal(new[rows, segs], old[rows, segs])

    @SETTINGS
    @given(query=trajectories(min_len=2), batch=skewed_batches())
    def test_one_sweep_sub_equals_two_passes(self, query, batch):
        live, (Z2, segs) = pack_sorted(batch)
        z1 = edwp_fast.trajectory_complex(query)
        both = np.minimum(oracle.dp_last_rows(z1, Z2, free_start_row=True),
                          oracle.dp_last_rows(z1, Z2, free_start_row=False))
        want = np.where(in_extent(segs, both.shape[1]), both,
                        np.inf).min(axis=1)
        assert np.array_equal(edwp_fast._sub_row_min(z1, Z2, segs), want)
        assert edwp_fast.edwp_sub_many_numpy(query, live) == want.tolist()

    @SETTINGS
    @given(batch=skewed_batches(), target=trajectories(min_len=2))
    def test_pivot_columns(self, batch, target):
        """``edwp_sub_fast_queries`` columns: the batch on the first side."""
        live, (Z1, segs) = pack_sorted(batch)
        z2 = edwp_fast.trajectory_complex(target)
        want = oracle.dp_own_rows(Z1, z2, segs, free_start_row=True)
        new = edwp_fast.dp_sweep(Z1, segs, z2[None, :],
                                 np.full(len(segs), len(z2) - 1),
                                 free_every=1)
        # by-diagonal layout: row b's own last row starts at column segs[b]
        for b, n1 in enumerate(segs):
            assert np.array_equal(new[b, n1:n1 + len(z2)], want[b])
        assert (edwp_fast.edwp_sub_fast_queries_numpy(live, target)
                == want.min(axis=1).tolist())

    def test_cut_batches_are_the_same_bytes(self, monkeypatch):
        """Where a batch is cut changes how many sweeps run, not a value."""
        trips = generate_beijing(41, seed=5)
        whole = edwp_fast.edwp_sub_many_numpy(trips[0], trips[1:])
        monkeypatch.setattr(edwp_fast, "SWEEP_CELLS", 1)
        assert edwp_fast.edwp_sub_many_numpy(trips[0], trips[1:]) == whole

    @SETTINGS
    @given(query=trajectories(min_len=2), batch=skewed_batches(),
           orientation=st.sampled_from(["targets", "queries"]),
           free_every=st.sampled_from([0, 1, 2]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_whole_output_equals_rowmajor(self, query, batch, orientation,
                                          free_every, scale):
        """The cell-major kernel with both insertions stacked against the
        row-major one they replaced: the same bytes in every cell."""
        _, (Z, segs) = pack_sorted(batch)
        z = edwp_fast.trajectory_complex(query) * scale
        assert_rowmajor_identical(
            sweep_args(z, Z * scale, segs, orientation, free_every))

    @pytest.mark.parametrize("scale", [1e-310, 1e-150, 1e150, 1e200])
    def test_whole_output_equals_rowmajor_at_extreme_scales(self, scale):
        """Subnormal to overflowing coordinates, where a change of
        arithmetic (or of numpy's complex-``abs`` loop) would show first."""
        query, rows = pinned_points()
        Z, segs = edwp_fast._pack([r * scale for r in rows])
        for orientation in ("targets", "queries"):
            for free_every in (0, 1, 2):
                assert_rowmajor_identical(sweep_args(
                    query * scale, Z, segs, orientation, free_every))

    def test_exact_ties_keep_the_reference_priority(self):
        """On a 4 x 4 integer grid candidates tie exactly and only the
        strict-``<`` order (rep, then ins on T1, then T2) decides which
        position a cell carries; a few hundred seeded cases reach every
        tie the fold can get wrong."""
        rng = np.random.default_rng(0)

        def grid(n):
            return (rng.integers(0, 4, size=n)
                    + 1j * rng.integers(0, 4, size=n)).astype(complex)

        for case in range(400):
            rows = [grid(n) for n in
                    sorted(rng.integers(2, 8, size=int(rng.integers(1, 6))))]
            Z, segs = edwp_fast._pack(rows)
            z = grid(int(rng.integers(2, 8)))
            assert_rowmajor_identical(sweep_args(
                z, Z, segs, ("queries", "targets")[case % 2],
                int(rng.integers(0, 3))))

    @pytest.mark.parametrize("kernel", ["edwp_many_numpy",
                                        "edwp_sub_many_numpy",
                                        "edwp_sub_fast_queries_numpy"])
    def test_one_row_sweeps_equal_rowmajor(self, kernel, monkeypatch):
        """``SWEEP_CELLS = 1`` cuts every batch to one-row sweeps."""
        trips = generate_beijing(25, seed=11, config=TRIPS)
        monkeypatch.setattr(edwp_fast, "SWEEP_CELLS", 1)
        args = (trips[1:], trips[0]) if "queries" in kernel \
            else (trips[0], trips[1:])
        new = getattr(edwp_fast, kernel)(*args)
        monkeypatch.setattr(edwp_fast, "dp_sweep", oracle.dp_sweep_rowmajor)
        assert getattr(edwp_fast, kernel)(*args) == new

    @SETTINGS
    @given(batch=skewed_batches())
    def test_pack_equals_rowwise(self, batch):
        points = [edwp_fast.trajectory_complex(t) for t in batch
                  if t.num_segments > 0]
        Z, segs = edwp_fast._pack(points)
        Z_old, segs_old = oracle.pack_rowwise(points)
        assert Z.dtype == Z_old.dtype and segs.dtype == segs_old.dtype
        assert np.array_equal(Z, Z_old) and np.array_equal(segs, segs_old)


@pytest.mark.parametrize("backend", MATRIX_BACKENDS)
class TestAgainstReference:
    """The public entry points stay within the backend matrix's tolerance
    of the python reference on the skewed batches too."""

    @SETTINGS
    @given(query=trajectories(), batch=skewed_batches())
    def test_many(self, backend, query, batch):
        assert_lists_match(edwp_many(query, batch, backend="python"),
                           edwp_many(query, batch, backend=backend))
        assert_lists_match(edwp_sub_many(query, batch, backend="python"),
                           edwp_sub_many(query, batch, backend=backend))

    @SETTINGS
    @given(t=trajectories(), s=trajectories(max_len=40))
    def test_sub_pair(self, backend, t, s):
        assert_matches(edwp_sub(t, s, backend="python"),
                       edwp_sub(t, s, backend=backend))


# --------------------------------------------------------------------- #
# sweep counts
# --------------------------------------------------------------------- #

#: The perf harness's trips (benchmarks/perf BEIJING): ~10 points each.
TRIPS = BeijingConfig(min_hops=8, max_hops=24, sample_low=30.0,
                      sample_high=120.0)


@pytest.fixture
def sweeps(monkeypatch):
    """Spy on the diagonal kernel: ``sweeps()`` is the calls so far."""
    calls = []
    real = edwp_fast.dp_sweep

    def spy(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(edwp_fast, "dp_sweep", spy)
    return lambda: len(calls)


@pytest.fixture(scope="module")
def beijing_tree():
    trips = generate_beijing(64, seed=7, config=TRIPS)
    tree = TrajTree(trips[:60], normalized=True, num_vps=8, backend="numpy",
                    seed=7)
    radius = tree.knn(trips[60], 10)[-1][1]
    return tree, trips[60:], radius


def tree_queries(tree, radius):
    return [
        (tree.knn, tree.knn_scan, 10),
        (tree.subtrajectory_knn, tree.subtrajectory_knn_scan, 10),
        (tree.range_query, tree.range_query_scan, radius),
    ]


class TestSweepCounts:
    def test_small_tree_queries_are_one_sweep(self, beijing_tree, sweeps):
        tree, queries, radius = beijing_tree
        for search, scan, param in tree_queries(tree, radius):
            for q in queries:
                stats = TrajTreeStats()
                before = sweeps()
                got = search(q, param, stats=stats)
                assert sweeps() - before == 1
                assert (stats.exact_computations + stats.members_pruned
                        == len(tree))
                assert stats.bound_computations == 0
                assert got == scan(q, param)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_small_flush_still_traverses(self, beijing_tree, backend,
                                         monkeypatch, small_refine_flush):
        tree, queries, radius = beijing_tree
        monkeypatch.setattr(tree, "backend", backend)
        for search, scan, param in tree_queries(tree, radius):
            stats = TrajTreeStats()
            for q in queries:
                assert search(q, param, stats=stats) == scan(q, param)
            assert stats.bound_computations > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_range_bounds_members_of_traversed_leaves(
            self, beijing_tree, backend, monkeypatch, small_refine_flush):
        """A leaf reached by traversal hands over only the members whose
        own bound is within the radius; the rest count as member-pruned."""
        tree, queries, radius = beijing_tree
        monkeypatch.setattr(tree, "backend", backend)
        for q in queries:
            stats = TrajTreeStats()
            assert (tree.range_query(q, radius, stats=stats)
                    == tree.range_query_scan(q, radius))
            assert stats.bound_computations > 0
            assert stats.members_pruned > 0
            assert (stats.exact_computations + stats.members_pruned
                    <= len(tree))

    def test_forest_knn_is_at_most_three_sweeps(self, sweeps):
        walks_ = tiny_walks(484, seed=3)
        forest = TrajForest(walks_[:480], num_shards=6, backend="numpy",
                            **FOREST_KWARGS)
        single = TrajTree(walks_[:480], backend="numpy", **FOREST_KWARGS)
        for q in walks_[480:]:
            stats = TrajTreeStats()
            before = sweeps()
            got = forest.knn(q, 10, stats=stats)
            assert sweeps() - before <= 3
            assert got == single.knn_scan(q, 10)
