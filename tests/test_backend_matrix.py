"""Two-backend differential harness.

One parameterized oracle matrix runs shared hypothesis strategies over
every dual-backend kernel — the EDwP family and the five baseline DPs —
and checks the ``"numpy"`` backend against the pure-Python reference to
``1e-9`` relative (exact for the integer edit/match counts and for
``inf``).  The Theorem-2 box bound is one pass on every backend; the
matrix checks that the switch leaves it unmoved and that it matches its
scalar definition.

The strategies deliberately cover the shapes that break DP kernels:
ragged length pairs, length-1 trajectories (zero segments), duplicate
points (zero-length segments, degenerate projections), collinear runs
(projection clamps at ``t = 0``/``t = 1``), and quarter-grid coordinates
with matched epsilons so EDR's inclusive ``<= eps`` and LCSS's strict
``< eps`` are probed exactly *at* the boundary.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import Trajectory, edwp, edwp_avg, edwp_many, set_backend, use_backend
from repro.core.edwp import (
    BACKENDS,
    BackendError,
    UnknownBackendError,
    resolve_backend,
)
from repro.core.edwp_sub import (
    edwp_sub,
    edwp_sub_fast,
    edwp_sub_fast_queries,
    edwp_sub_many,
    prefix_dist,
)
from repro.baselines.dtw import dtw, dtw_many
from repro.baselines.edr import edr, edr_many
from repro.baselines.erp import erp, erp_many
from repro.baselines.frechet import discrete_frechet, frechet_many
from repro.baselines.lcss import lcss_distance_many, lcss_length
from repro.baselines.registry import get_distance
from repro.index.tboxseq import TBoxSeq, edwp_sub_box, edwp_sub_box_many

from helpers import assert_bound_matches

#: The non-reference columns of the matrix, each checked against python.
MATRIX_BACKENDS = ["numpy"]


def assert_matches(ref, got, pair=()):
    """Cross-backend agreement: exact for ints and inf, 1e-9 relative for
    float costs, and near zero 1e-12 absolute times ``max(1, n · c)`` for
    the ``pair`` of trajectories compared (``n`` their points, ``c`` their
    largest coordinate magnitude): a cost that is 0 in exact arithmetic
    keeps the rounding of sums of that size, so unit-scale inputs keep
    1e-12."""
    if isinstance(ref, int):
        assert got == ref
    elif math.isinf(ref):
        assert math.isinf(got) and (got > 0) == (ref > 0)
    else:
        scale = 1.0
        if pair:
            scale = max(1.0, sum(map(len, pair))
                        * max(float(abs(t.spatial()).max()) for t in pair))
        assert abs(got - ref) <= max(1e-9 * abs(ref), 1e-12 * scale)


def assert_lists_match(ref, got, query=None, targets=()):
    """:func:`assert_matches` per row; given the ``query`` and the
    ``targets``, row ``i``'s floor scales with ``(query, targets[i])``."""
    assert len(ref) == len(got)
    for i, (r, g) in enumerate(zip(ref, got)):
        assert_matches(r, g, () if query is None else (query, targets[i]))


# --------------------------------------------------------------------- #
# shared strategies
# --------------------------------------------------------------------- #

# Quarter-grid coordinates: deltas between any two values are exact
# multiples of 0.25, so an eps drawn from the same grid lands matches
# exactly on the inclusive/strict boundary.
grid_coord = st.integers(min_value=-8, max_value=8).map(lambda k: k * 0.25)
free_coord = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def trajectories(draw, min_len=1, max_len=10, coord=free_coord):
    """Trajectory strategy mixing the adversarial shapes.

    ``random``: arbitrary points; ``dup``: points resampled from a small
    pool, forcing exact duplicates (zero-length segments); ``collinear``:
    points on one line with monotone or repeated parameters (projection
    clamps); plain length-1 draws fall out of ``min_len=1``.
    """
    n = draw(st.integers(min_len, max_len))
    mode = draw(st.sampled_from(["random", "dup", "collinear"]))
    if mode == "dup":
        pool = [
            (draw(coord), draw(coord))
            for _ in range(draw(st.integers(1, max(1, n // 2 + 1))))
        ]
        pts = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    elif mode == "collinear":
        x0, y0 = draw(coord), draw(coord)
        dx, dy = draw(coord), draw(coord)
        steps = [draw(st.integers(0, 3)) for _ in range(n)]
        pts, s = [], 0
        for k in steps:
            s += k
            pts.append((x0 + dx * s, y0 + dy * s))
    else:
        pts = [(draw(coord), draw(coord)) for _ in range(n)]
    return Trajectory([(x, y, float(i)) for i, (x, y) in enumerate(pts)])


def batches(**kwargs):
    return st.lists(trajectories(**kwargs), min_size=0, max_size=5)


eps_grid = st.sampled_from([0.25, 0.5, 1.0])

MATRIX_SETTINGS = settings(max_examples=25, deadline=None)

# Pinned box-bound inputs from the subnormal range, which the free-coordinate
# strategy only reaches by luck: distances whose square underflows to 0, and
# a segment delta small enough to overflow the projection quotients to inf.
SUBNORMAL_BASE = Trajectory([
    (32.53741809216267, 50.0), (1e-200, 2.2e-308),
    (-50.0, -9.734766108902889), (8.100079331535227, 45.172126886951744),
    (35.30290175679053, 1e-200),
])
SUBNORMAL_DIST_QUERY = Trajectory([(46.814642891768614, 1.0),
                                   (-38.77353271420918, 0.0)])
SUBNORMAL_DELTA_QUERY = Trajectory([(0.0, 0.0), (5e-324, 5.0), (3.0, 5.0)])


# --------------------------------------------------------------------- #
# the oracle matrix
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", MATRIX_BACKENDS)
class TestBackendMatrix:
    """numpy over every kernel, python as ground truth."""

    @MATRIX_SETTINGS
    @given(t1=trajectories(), t2=trajectories())
    def test_edwp_and_avg(self, backend, t1, t2):
        assert_matches(edwp(t1, t2, backend="python"),
                       edwp(t1, t2, backend=backend))
        assert_matches(edwp_avg(t1, t2, backend="python"),
                       edwp_avg(t1, t2, backend=backend))

    @MATRIX_SETTINGS
    @given(q=trajectories(), targets=batches())
    def test_edwp_many(self, backend, q, targets):
        assert_lists_match(
            edwp_many(q, targets, backend="python"),
            edwp_many(q, targets, backend=backend),
        )
        assert_lists_match(
            edwp_many(q, targets, normalized=True, backend="python"),
            edwp_many(q, targets, normalized=True, backend=backend),
        )

    @MATRIX_SETTINGS
    @given(t=trajectories(), s=trajectories())
    def test_edwp_sub_family(self, backend, t, s):
        assert_matches(edwp_sub(t, s, backend="python"),
                       edwp_sub(t, s, backend=backend))
        assert_matches(edwp_sub_fast(t, s, backend="python"),
                       edwp_sub_fast(t, s, backend=backend))
        assert_matches(prefix_dist(t, s, backend="python"),
                       prefix_dist(t, s, backend=backend))

    @MATRIX_SETTINGS
    @given(t=trajectories(), targets=batches())
    def test_edwp_sub_many(self, backend, t, targets):
        assert_lists_match(
            edwp_sub_many(t, targets, backend="python"),
            edwp_sub_many(t, targets, backend=backend),
        )

    @MATRIX_SETTINGS
    @given(queries=batches(), s=trajectories())
    def test_edwp_sub_fast_queries(self, backend, queries, s):
        assert_lists_match(
            edwp_sub_fast_queries(queries, s, backend="python"),
            edwp_sub_fast_queries(queries, s, backend=backend),
        )

    @MATRIX_SETTINGS
    @given(t1=trajectories(min_len=0), t2=trajectories(min_len=0),
           window=st.sampled_from([0, 2]))
    def test_dtw(self, backend, t1, t2, window):
        assert_matches(dtw(t1, t2, window=window, backend="python"),
                       dtw(t1, t2, window=window, backend=backend))

    @MATRIX_SETTINGS
    @given(t1=trajectories(coord=grid_coord),
           t2=trajectories(coord=grid_coord), eps=eps_grid)
    def test_edr_near_eps(self, backend, t1, t2, eps):
        assert_matches(edr(t1, t2, eps, backend="python"),
                       edr(t1, t2, eps, backend=backend))

    @MATRIX_SETTINGS
    @given(t1=trajectories(), t2=trajectories(),
           gap=st.tuples(free_coord, free_coord))
    def test_erp(self, backend, t1, t2, gap):
        assert_matches(erp(t1, t2, backend="python"),
                       erp(t1, t2, backend=backend))
        assert_matches(erp(t1, t2, gap=gap, backend="python"),
                       erp(t1, t2, gap=gap, backend=backend))

    @MATRIX_SETTINGS
    @given(t1=trajectories(coord=grid_coord),
           t2=trajectories(coord=grid_coord), eps=eps_grid)
    def test_lcss_near_eps(self, backend, t1, t2, eps):
        assert_matches(lcss_length(t1, t2, eps, backend="python"),
                       lcss_length(t1, t2, eps, backend=backend))

    @MATRIX_SETTINGS
    @given(t1=trajectories(), t2=trajectories())
    def test_frechet(self, backend, t1, t2):
        assert_matches(discrete_frechet(t1, t2, backend="python"),
                       discrete_frechet(t1, t2, backend=backend))

    @MATRIX_SETTINGS
    @given(base=trajectories(min_len=2), q=trajectories(),
           max_boxes=st.sampled_from([2, 4, 8]))
    @example(base=SUBNORMAL_BASE, q=SUBNORMAL_DIST_QUERY, max_boxes=4)
    @example(base=SUBNORMAL_BASE, q=SUBNORMAL_DELTA_QUERY, max_boxes=4)
    def test_box_bound(self, backend, base, q, max_boxes):
        seq = TBoxSeq.from_trajectory(base, max_boxes=max_boxes)
        with use_backend(backend):
            got = edwp_sub_box(q, seq)
        with use_backend("python"):
            assert edwp_sub_box(q, seq) == got
        assert_bound_matches(q, [seq])

    @MATRIX_SETTINGS
    @given(bases=st.lists(trajectories(min_len=2), min_size=0, max_size=4),
           q=trajectories())
    @example(bases=[SUBNORMAL_BASE], q=SUBNORMAL_DIST_QUERY)
    @example(bases=[SUBNORMAL_BASE], q=SUBNORMAL_DELTA_QUERY)
    def test_box_bound_many(self, backend, bases, q):
        seqs = [TBoxSeq.from_trajectory(b, max_boxes=4) for b in bases]
        with use_backend(backend):
            got = edwp_sub_box_many(q, seqs)
        with use_backend("python"):
            assert edwp_sub_box_many(q, seqs) == got
        assert_bound_matches(q, seqs)

    @MATRIX_SETTINGS
    @given(q=trajectories(min_len=0), targets=batches(min_len=0))
    def test_batched_baselines(self, backend, q, targets):
        assert_lists_match(dtw_many(q, targets, backend="python"),
                           dtw_many(q, targets, backend=backend))
        assert_lists_match(edr_many(q, targets, 0.5, backend="python"),
                           edr_many(q, targets, 0.5, backend=backend))
        assert_lists_match(erp_many(q, targets, backend="python"),
                           erp_many(q, targets, backend=backend))
        assert_lists_match(
            lcss_distance_many(q, targets, 0.5, backend="python"),
            lcss_distance_many(q, targets, 0.5, backend=backend),
        )
        assert_lists_match(frechet_many(q, targets, backend="python"),
                           frechet_many(q, targets, backend=backend))

    def test_global_switch_routes_this_backend(self, backend):
        """set_backend/use_backend (no per-call override) reach the same
        kernels: spot-check one value per family against python."""
        t1 = Trajectory([(0, 0, 0), (3, 4, 1), (6, 0, 2)])
        t2 = Trajectory([(1, 1, 0), (4, 5, 1), (7, 1, 2), (8, 2, 3)])
        seq = TBoxSeq.from_trajectory(t2, max_boxes=3)
        with use_backend(backend):
            got = (edwp(t1, t2), edwp_sub(t1, t2), dtw(t1, t2),
                   edr(t1, t2, 0.5), edwp_sub_box(t1, seq))
        with use_backend("python"):
            ref = (edwp(t1, t2), edwp_sub(t1, t2), dtw(t1, t2),
                   edr(t1, t2, 0.5), edwp_sub_box(t1, seq))
        for r, g in zip(ref, got):
            assert_matches(r, g)


# --------------------------------------------------------------------- #
# selection-time errors (satellite: typed error naming valid backends)
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_known_and_available_names(self):
        assert BACKENDS == ("python", "numpy")

    @pytest.mark.parametrize("name", ["cuda", "", "NumPy", 42])
    def test_unknown_name_is_typed_and_descriptive(self, name):
        with pytest.raises(UnknownBackendError, match="unknown backend"):
            set_backend(name)
        with pytest.raises(BackendError) as excinfo:
            resolve_backend(name)
        # the message names every selectable backend
        for valid in BACKENDS:
            assert valid in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)   # compat contract

    def test_none_means_global_default_only_per_call(self):
        # per-call None defers to the global choice; the global setter
        # insists on a concrete name
        previous = set_backend("numpy")
        try:
            assert resolve_backend(None) == "numpy"
        finally:
            set_backend(previous)
        with pytest.raises(UnknownBackendError):
            set_backend(None)

    def test_registry_rejects_unknown_backend_at_selection_time(self):
        with pytest.raises(UnknownBackendError, match="unknown backend"):
            get_distance("dtw", backend="cuda")

    def test_trajtree_ctor_rejects_unknown_backend(self):
        from repro.index import TrajTree
        db = [Trajectory([(0, 0, 0), (1, 1, 1)]),
              Trajectory([(2, 2, 0), (3, 3, 1)])]
        with pytest.raises(UnknownBackendError, match="unknown backend"):
            TrajTree(db, backend="cuda")


class TestNativeFallback:
    def test_native_unavailable_is_typed_error(self):
        """``"native"`` names the deleted numba tier: every selection
        point raises the typed error listing what is selectable, and
        nothing falls back to numpy behind the caller's back."""
        from repro.core.backend import get_backend
        from repro.index import TrajTree
        db = [Trajectory([(0, 0, 0), (1, 1, 1)]),
              Trajectory([(2, 2, 0), (3, 3, 1)])]
        before = get_backend()
        for select in (set_backend, resolve_backend,
                       lambda b: edwp(db[0], db[1], backend=b),
                       lambda b: TrajTree(db, backend=b),
                       lambda b: get_distance("edwp", backend=b)):
            with pytest.raises(UnknownBackendError) as excinfo:
                select("native")
            assert isinstance(excinfo.value, ValueError)
            assert "('python', 'numpy')" in str(excinfo.value)
        assert get_backend() == before
