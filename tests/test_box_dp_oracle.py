"""The construction DP against the per-cell DP it replaced.

``repro.index.tboxseq._box_dp`` computes each piece cost and projection
that neighbouring cells share once; ``tests/box_dp_oracle.py`` holds the
DP that computed them per cell.  Every float must come out the same:
``(cost, parents, pos)`` is compared with ``float.hex``, so ``-0.0``,
``inf`` and NaN count, on adversarial trajectories and boxes, on
Beijing-like trips and on every alignment a 60-trip build runs.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Trajectory
from repro.core.edwp import _spatial_points
from repro.datasets import generate_beijing
from repro.index import tboxseq
from repro.index.tboxseq import _INS_B, _INS_T, TBoxSeq, _box_dp, _rows
from repro.index.trajtree import TrajTree

from box_dp_oracle import _box_dp as oracle_box_dp, hex_form
from test_backend_matrix import free_coord, trajectories

SETTINGS = settings(max_examples=150, deadline=None)


def assert_matches_oracle(pts, boxes):
    got = _box_dp(pts, boxes)
    assert hex_form(got) == hex_form(oracle_box_dp(pts, boxes))
    return got


@st.composite
def boxes(draw, coord=free_coord):
    """One to six box rows: arbitrary extents, zero-width, zero-height and
    point boxes, ``minL`` 0 or positive."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        x0, y0 = draw(coord), draw(coord)
        w = draw(st.one_of(st.just(0.0), st.floats(0.0, 40.0)))
        h = draw(st.one_of(st.just(0.0), st.floats(0.0, 40.0)))
        ml = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
        out.append([x0, y0, x0 + w, y0 + h, ml])
    return out


class TestAgainstOracle:
    @SETTINGS
    @given(trajectories(min_len=2, max_len=9), boxes())
    def test_adversarial_trajectories_and_boxes(self, traj, seq):
        """Duplicate points (zero-length pieces), collinear runs, one
        segment, one box, zero-area boxes and ``minL = 0``."""
        assert_matches_oracle(_spatial_points(traj), seq)

    @SETTINGS
    @given(st.lists(trajectories(min_len=2, max_len=8), min_size=1,
                    max_size=4),
           trajectories(min_len=2, max_len=9), st.sampled_from([1, 2, 3, 12]))
    def test_boxes_built_by_construction(self, group, traj, max_boxes):
        seq = TBoxSeq.from_trajectories(group, max_boxes=max_boxes)
        assert_matches_oracle(_spatial_points(traj), _rows(seq))

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40),
           st.integers(1, 12))
    def test_random_walks(self, seed, n, m):
        rng = np.random.default_rng(seed)
        walk = rng.normal(0, 1, (n, 2)).cumsum(axis=0) * 5.0
        other = rng.normal(0, 1, (m + 1, 2)).cumsum(axis=0) * 5.0
        seq = TBoxSeq.from_trajectory(Trajectory.from_xy(other),
                                      max_boxes=m)
        assert_matches_oracle([tuple(map(float, p)) for p in walk],
                              _rows(seq))

    def test_beijing_trips(self):
        trips = generate_beijing(12, seed=5)
        for a in trips:
            seq = TBoxSeq.from_trajectory(a, max_boxes=4)
            for b in trips:
                assert_matches_oracle(_spatial_points(b), _rows(seq))

    def test_extreme_coordinates(self):
        """Overflowing differences: the shared terms carry the same inf
        and NaN the per-cell computation produced."""
        pts = [(0.0, 0.0), (1e200, 0.0), (1e300, -1e300), (-1e308, 1e308)]
        seq = [[-1e308, -1.0, 1e308, 1.0, 0.0],
               [5e307, 5e307, 1e308, 1e308, 1e300],
               [0.0, 0.0, 0.0, 0.0, 0.0]]
        for k in range(1, len(seq) + 1):
            assert_matches_oracle(pts, seq[:k])

    def test_last_row_and_last_column(self):
        """ins_T in the last row (no next segment: the piece is empty)
        and ins_B in the ``j == m`` column (the last box stands in) are
        the cells with no neighbour to share with; both win here."""
        pts = [(5.0, 8.0), (15.0, 0.0), (20.0, 13.0)]
        seq = [[18.0, 0.0, 18.0, 2.0, 2.0],
               [4.0, 18.0, 5.0, 19.0, 1.0]]
        _, parents, _ = assert_matches_oracle(pts, seq)
        n, m = len(pts) - 1, len(seq)
        assert _INS_T in parents[n][1:]
        assert any(parents[i][m] == _INS_B for i in range(1, n + 1))


def test_replay_of_a_60_trip_build(monkeypatch):
    """Every alignment a ``tree_knn``-shaped build of 60 Beijing trips
    runs — partition assignments and node summaries — replayed through
    both DPs; and the tree built with the oracle substituted pickles to
    the same bytes."""
    trips = generate_beijing(60, seed=11)
    kwargs = dict(normalized=True, num_vps=8, backend="numpy", seed=11)
    calls = []

    def record(pts, seq):
        calls.append((list(pts), list(seq)))
        return _box_dp(pts, seq)

    monkeypatch.setattr(tboxseq, "_box_dp", record)
    tree = TrajTree(trips, **kwargs)
    assert len(calls) > 100
    for pts, seq in calls:
        assert_matches_oracle(pts, seq)
    monkeypatch.setattr(tboxseq, "_box_dp", oracle_box_dp)
    assert pickle.dumps(TrajTree(trips, **kwargs)) == pickle.dumps(tree)
