"""Property-based tests (hypothesis) for the core invariants.

These are the paper's structural claims turned into machine-checked
properties over arbitrary inputs: EDwP's symmetry/identity, the behaviour
of the edits, Theorem 2's lower-bound relation, and the vantage-distance
definition.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Trajectory, edwp, edwp_alignment, edwp_avg
from repro.core.edwp_sub import edwp_sub
from repro.core.geometry import point_rect_distance
from repro.eval.spearman import spearman, rank
from repro.index import TBoxSeq, TrajTree, edwp_sub_box
from repro.index.vantage import vantage_distance, vp_distance


def coords(min_points=2, max_points=8):
    """Strategy: a list of (x, y) pairs with bounded, finite coordinates."""
    pair = st.tuples(
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
        st.floats(-50, 50, allow_nan=False, allow_infinity=False),
    )
    return st.lists(pair, min_size=min_points, max_size=max_points)


def trajectory(min_points=2, max_points=8):
    return coords(min_points, max_points).map(Trajectory.from_xy)


@settings(max_examples=60, deadline=None)
@given(trajectory(), trajectory())
def test_edwp_symmetry(t1, t2):
    assert edwp(t1, t2) == pytest.approx(edwp(t2, t1), rel=1e-7, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(trajectory(), trajectory())
def test_edwp_non_negative(t1, t2):
    assert edwp(t1, t2) >= 0.0


@settings(max_examples=60, deadline=None)
@given(trajectory(), trajectory())
def test_edwp_alignment_consistent(t1, t2):
    result = edwp_alignment(t1, t2)
    assert result.distance == pytest.approx(edwp(t1, t2), rel=1e-9, abs=1e-9)
    assert sum(e.cost for e in result.edits) == pytest.approx(
        result.distance, rel=1e-7, abs=1e-7
    )


@settings(max_examples=60, deadline=None)
@given(trajectory(), trajectory())
def test_edwp_avg_normalization(t1, t2):
    raw = edwp(t1, t2)
    avg = edwp_avg(t1, t2)
    denom = t1.length + t2.length
    if denom > 0 and math.isfinite(raw):
        assert avg == pytest.approx(raw / denom, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(trajectory(), trajectory())
def test_edwp_sub_not_larger_than_full_much(t1, t2):
    """EDwPsub may only exceed EDwP by the documented DP slack."""
    sub = edwp_sub(t1, t2)
    full = edwp(t1, t2)
    if math.isfinite(full):
        assert sub <= full * 1.25 + 1e-6


@settings(max_examples=60, deadline=None)
@given(trajectory())
def test_edwp_identity(t):
    assert edwp(t, t) == pytest.approx(0.0, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(trajectory())
def test_edwp_translation_invariance(t):
    shifted = t.translated(13.0, -7.0)
    assert edwp(shifted, t.translated(13.0, -7.0)) == pytest.approx(
        0.0, abs=1e-7
    )


@settings(max_examples=60, deadline=None)
@given(trajectory())
def test_edwp_densification_invariance(t):
    """Splitting any segment leaves EDwP to the original ~0."""
    if t.num_segments == 0:
        return
    refined = t.with_point_inserted(0, 0.5)
    assert edwp(t, refined) == pytest.approx(0.0, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(trajectory(2, 6), min_size=1, max_size=4),
    trajectory(2, 6),
)
@example(  # the query re-sampled with a vertex at (0, -1): EDwP is exactly 0
    [Trajectory.from_xy([(0, -2), (0, -1), (0, 0)])],
    Trajectory.from_xy([(0, -2), (0, 0)]),
)
def test_theorem2_lower_bound(group, query):
    """EDwPsub(Q, tBoxSeq(T)) <= EDwP(Q, T) for all T in the set."""
    seq = TBoxSeq.from_trajectories(group)
    lb = edwp_sub_box(query, seq)
    for t in group:
        assert lb <= edwp(query, t) + 1e-6


@st.composite
def resampled(draw, xy):
    """``xy`` sampled at another rate: vertices inserted along segments,
    interior vertices dropped, and every vertex jittered by one of a few
    magnitudes (0 included) — the same path, as the paper's inconsistent
    sampling rates produce it."""
    out = [xy[0]]
    for a, b in zip(xy, xy[1:]):
        fracs = draw(st.lists(st.floats(0.0, 1.0), max_size=2))
        out += [(a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
                for f in sorted(fracs)]
        out.append(b)
    keep = [out[0]] + [p for p in out[1:-1] if draw(st.booleans())]
    keep.append(out[-1])
    jitter = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1]))
    unit = st.floats(-1.0, 1.0)
    return Trajectory.from_xy([
        (x + jitter * draw(unit), y + jitter * draw(unit)) for x, y in keep
    ])


@st.composite
def resampled_groups(draw):
    xy = draw(coords(2, 6))
    copies = draw(st.lists(resampled(xy), min_size=1, max_size=3))
    others = draw(st.lists(trajectory(2, 6), max_size=2))
    return Trajectory.from_xy(xy), copies + others


@settings(max_examples=60, deadline=None)
@given(resampled_groups(), st.sampled_from([2, 4, 12]))
def test_theorem2_lower_bound_resampled(case, max_boxes):
    """The bound of a node summarizing re-sampled copies of the query stays
    below EDwP and EDwPsub to every member, raw and normalized as the
    tree normalizes it (over the subtree's longest member)."""
    query, group = case
    seq = TBoxSeq.from_trajectories(group, max_boxes=max_boxes)
    lb = edwp_sub_box(query, seq)
    longest = max(t.length for t in group)
    normalized = TrajTree._normalize_bound(query, longest, lb, True)
    for t in group:
        assert lb <= edwp(query, t)
        assert lb <= edwp_sub(query, t)
        assert normalized <= edwp_avg(query, t)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(trajectory(2, 6), min_size=1, max_size=4),
)
def test_tboxseq_covers_all_members(group):
    """Every sampled point of every summarized trajectory lies in a box."""
    seq = TBoxSeq.from_trajectories(group)
    for t in group:
        for row in t.data:
            assert any(
                point_rect_distance((row[0], row[1]), *rect) <= 1e-6
                for rect in seq.rects.tolist()
            )


@settings(max_examples=60, deadline=None)
@given(trajectory(2, 8),
       st.tuples(st.floats(-60, 60, allow_nan=False),
                 st.floats(-60, 60, allow_nan=False)))
def test_vp_distance_le_sample_distances(t, vp):
    """Definition 6: the polyline distance never exceeds the distance to
    any sampled point."""
    d = vp_distance(t, vp)
    for row in t.data:
        assert d <= math.hypot(row[0] - vp[0], row[1] - vp[1]) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=10),
    st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=10),
)
def test_vantage_distance_bounds(a, b):
    n = min(len(a), len(b))
    va = np.asarray(a[:n])
    vb = np.asarray(b[:n])
    vd = vantage_distance(va, vb)
    assert 0.0 <= vd <= 1.0
    assert vd == pytest.approx(vantage_distance(vb, va))
    assert vantage_distance(va, va) == pytest.approx(0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=2,
                max_size=20))
def test_spearman_self_correlation(xs):
    assert spearman(xs, xs) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1,
                max_size=20))
def test_rank_is_permutation_when_unique(xs):
    r = rank(xs)
    if len(set(xs)) == len(xs):
        assert sorted(r) == list(range(1, len(xs) + 1))
    assert r.sum() == pytest.approx(len(xs) * (len(xs) + 1) / 2)
