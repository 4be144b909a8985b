"""Least-growth assignment (Alg. 1 line 11) against its exhaustive oracle.

``repro.index.tboxseq.least_growth`` aligns a trajectory only against the
summaries whose growth bound can still win.  The loop it replaced — align
against every summary, keep the first strict minimum — lives here, and
only here, as the reference: the primitive must return the same index and
a byte-equal sequence, the bound must never exceed the growth it bounds,
and whole trees must come out identical with the bound switched off.
"""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Trajectory
from repro.core.edwp import BACKENDS
from repro.datasets import generate_beijing
from repro.index import tboxseq
from repro.index.stbox import STBox
from repro.index.tboxseq import TBoxSeq, _growth_bounds, least_growth
from repro.index.persistence import load_tree, save_tree
from repro.index.trajtree import TrajTree

from test_backend_matrix import trajectories

SETTINGS = settings(max_examples=60, deadline=None)

#: The forest workload's tree shape (benchmarks/perf FOREST_KWARGS, leaf 40).
FOREST_KWARGS = dict(normalized=True, num_vps=2, vp_levels=1,
                     min_node_size=40, max_branching=2, max_boxes=3)


def exhaustive(seqs, traj, max_boxes):
    """The assignment loop ``partition`` ran before ``least_growth``."""
    best_g, best_growth, best = 0, math.inf, None
    for g, seq in enumerate(seqs):
        candidate = seq.with_trajectory(traj, max_boxes=max_boxes)
        growth = candidate.volume - seq.volume
        if growth < best_growth:
            best_g, best_growth, best = g, growth, candidate
    return best_g, best


def geometry_bytes(seq):
    g = seq.geometry()
    return b"".join(a.tobytes() for a in
                    (g.xmin, g.ymin, g.xmax, g.ymax, g.min_len))


def assert_matches_oracle(seqs, traj, max_boxes):
    want_g, want = exhaustive(seqs, traj, max_boxes)
    got_g, got = least_growth(seqs, traj, max_boxes)
    assert got_g == want_g
    assert geometry_bytes(got) == geometry_bytes(want)


def assert_bounds_sound(seqs, traj, max_boxes):
    if traj.num_segments == 0:
        return      # nothing to align: least_growth never asks for bounds
    bounds = _growth_bounds(seqs, traj, max_boxes)
    for seq, bound in zip(seqs, bounds):
        if len(seq) > max_boxes:
            assert bound == -math.inf
        else:
            grown = seq.with_trajectory(traj, max_boxes=max_boxes)
            assert bound <= grown.volume - seq.volume


def tiny_walks(n, seed):
    """The forest gate's 3-6 point random walks."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(3, 7))
        pts = rng.normal(0, 1, (k, 2)).cumsum(axis=0) * 5.0
        pts += rng.uniform(0, 200, 2)
        out.append(Trajectory.from_xy(pts))
    return out


@st.composite
def assignments(draw):
    """``(seqs, traj, max_boxes)``: summaries folded over adversarial
    groups under one box budget, with tie groups (a summary listed twice)
    mixed in."""
    max_boxes = draw(st.sampled_from([1, 2, 3, 12]))
    groups = draw(st.lists(
        st.lists(trajectories(min_len=2, max_len=8), min_size=1, max_size=3),
        min_size=1, max_size=5,
    ))
    seqs = [TBoxSeq.from_trajectories(g, max_boxes=max_boxes) for g in groups]
    for _ in range(draw(st.integers(0, 2))):
        seqs.insert(draw(st.integers(0, len(seqs))),
                    seqs[draw(st.integers(0, len(seqs) - 1))])
    return seqs, draw(trajectories(min_len=1, max_len=10)), max_boxes


class TestAgainstExhaustiveOracle:
    @SETTINGS
    @given(assignments())
    def test_same_index_and_bytes(self, case):
        assert_matches_oracle(*case)

    @SETTINGS
    @given(assignments())
    def test_bound_never_exceeds_growth(self, case):
        assert_bounds_sound(*case)

    @SETTINGS
    @given(assignments(), st.sampled_from([1, 2]))
    def test_sequence_over_budget_is_never_skipped(self, case, budget):
        """A summary built under a larger budget compacts on absorption,
        which voids the bound's argument: it gets ``-inf`` and the answer
        still matches the oracle."""
        seqs, traj, _ = case
        assert_bounds_sound(seqs, traj, budget)
        assert_matches_oracle(seqs, traj, budget)

    def test_tie_goes_to_lower_index(self):
        seq = TBoxSeq.from_trajectory(Trajectory.from_xy([(0, 0), (4, 3)]))
        far = TBoxSeq.from_trajectory(
            Trajectory.from_xy([(90, 90), (95, 99)]))
        traj = Trajectory.from_xy([(1, 5), (6, 2), (7, 7)])
        for seqs in ([seq, seq], [far, seq, seq], [seq, far, seq]):
            g, grown = least_growth(seqs, traj, 12)
            assert g == seqs.index(seq)
            assert_matches_oracle(seqs, traj, 12)

    def test_zero_area_boxes(self):
        """Axis-aligned segments make zero-area boxes: growth is all in
        the ``dx * dy`` term, and the bound must still order them."""
        horizontal = TBoxSeq.from_trajectory(
            Trajectory.from_xy([(0, 0), (5, 0), (9, 0)]))
        vertical = TBoxSeq.from_trajectory(
            Trajectory.from_xy([(20, 0), (20, 4), (20, 9)]))
        assert horizontal.volume == 0.0 and vertical.volume == 0.0
        for traj in (Trajectory.from_xy([(1, 1), (8, 2)]),
                     Trajectory.from_xy([(19, 1), (21, 8)]),
                     Trajectory.from_xy([(2, 0), (7, 0)])):
            assert_bounds_sound([horizontal, vertical], traj, 12)
            assert_matches_oracle([horizontal, vertical], traj, 12)
            assert_matches_oracle([vertical, horizontal], traj, 12)

    def test_trajectory_already_inside(self):
        """Growth exactly 0 for the covering summary: every later bound
        is positive, so one alignment settles it."""
        cover = TBoxSeq.from_trajectory(Trajectory.from_xy([(0, 0), (10, 10)]))
        others = [
            TBoxSeq.from_trajectory(
                Trajectory.from_xy([(30 + 9 * i, 40), (35 + 9 * i, 45)]))
            for i in range(4)
        ]
        traj = Trajectory.from_xy([(2, 3), (5, 4), (8, 9)])
        seqs = others[:2] + [cover] + others[2:]
        g, grown = least_growth(seqs, traj, 12)
        assert g == 2
        assert grown.volume - cover.volume == 0.0
        assert_matches_oracle(seqs, traj, 12)

        class Counters:
            bound_computations = quick_bound_computations = 0

        least_growth(seqs, traj, 12, Counters)
        assert Counters.quick_bound_computations == 5
        assert Counters.bound_computations == 1

    def test_single_point_trajectory_ties_everywhere(self):
        seqs = [TBoxSeq.from_trajectory(Trajectory.from_xy([(i, 0), (i, 1)]))
                for i in range(3)]
        point = Trajectory([(50.0, 50.0, 0.0)])
        g, grown = least_growth(seqs, point, 12)
        assert g == 0 and grown is seqs[0]
        assert exhaustive(seqs, point, 12)[0] == 0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            least_growth([], Trajectory.from_xy([(0, 0), (1, 1)]), 12)

    def test_overflowing_volumes_raise(self):
        """inf - inf: no growth compares, so there is no minimum."""
        huge = TBoxSeq([STBox(0.0, 0.0, 1e200, 1e200, 1.0)])
        traj = Trajectory.from_xy([(0, 0), (1, 1)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                least_growth([huge, huge], traj, 12)

    def test_volume_increase_honours_box_budget(self):
        """The one-sequence reading of the minimised quantity, under the
        caller's budget rather than the default 12."""
        seq = TBoxSeq.from_trajectory(
            Trajectory.from_xy([(0, 0), (3, 1), (5, 4), (9, 5), (12, 9)]),
            max_boxes=2)
        traj = Trajectory.from_xy([(0, 6), (4, 8), (11, 2)])
        for budget in (1, 2, 12):
            assert seq.volume_increase(traj, max_boxes=budget) == (
                seq.with_trajectory(traj, max_boxes=budget).volume
                - seq.volume)
        assert seq.volume_increase(traj, 1) != seq.volume_increase(traj)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("make, max_boxes, pivots", [
    (lambda seed: generate_beijing(60, seed=seed), 12, 16),
    (lambda seed: tiny_walks(80, seed), 3, 2),
], ids=["beijing", "tiny-walks"])
def test_bound_and_oracle_on_dataset_assignments(make, max_boxes, pivots,
                                                 seed):
    """The bound and the choice on the states a real bulk load goes
    through: pivot summaries that keep absorbing what they win."""
    trajs = make(seed)
    seqs = [TBoxSeq.from_trajectory(t, max_boxes=max_boxes)
            for t in trajs[:pivots]]
    for traj in trajs[pivots:]:
        grown = [s.with_trajectory(traj, max_boxes=max_boxes) for s in seqs]
        growth = [g.volume - s.volume for g, s in zip(grown, seqs)]
        bounds = _growth_bounds(seqs, traj, max_boxes)
        assert all(b <= g for b, g in zip(bounds, growth))
        want = min(range(len(seqs)), key=growth.__getitem__)
        got, got_seq = least_growth(seqs, traj, max_boxes)
        assert got == want
        assert geometry_bytes(got_seq) == geometry_bytes(grown[want])
        seqs[got] = got_seq


# --------------------------------------------------------------------- #
# tree identity
# --------------------------------------------------------------------- #


def tree_signature(tree):
    """Per node, pre-order: the ids below it and its summary's bytes."""
    out = []

    def walk(node):
        out.append((tuple(node.subtree_ids), tuple(node.member_ids),
                    geometry_bytes(node.boxseq)))
        for child in node.children:
            walk(child)

    walk(tree.root)
    return out


def no_bounds(seqs, traj, max_boxes):
    """``_growth_bounds`` stand-in that lets every alignment through, in
    index order — the exhaustive behaviour."""
    return np.full(len(seqs), -math.inf)


TREE_SHAPES = {
    "beijing-40": (lambda seed: generate_beijing(40, seed=seed), {}),
    "beijing-60": (lambda seed: generate_beijing(60, seed=seed), {}),
    "beijing-300": (lambda seed: generate_beijing(300, seed=seed), {}),
    "tiny-walks-80": (lambda seed: tiny_walks(80, seed), FOREST_KWARGS),
}


def build_and_insert(shape, seed, inserts, backend):
    make, kwargs = TREE_SHAPES[shape]
    tree = TrajTree(make(seed), seed=seed, backend=backend, **kwargs)
    built = tree_signature(tree)
    for traj in make(seed + 1000)[:inserts]:
        tree.insert(traj)
    return built, tree_signature(tree), tree.build_stats


def assert_tree_identity(shape, seed, inserts, monkeypatch,
                         backend="numpy"):
    built, grown, stats = build_and_insert(shape, seed, inserts, backend)
    with monkeypatch.context() as patch:
        patch.setattr(tboxseq, "_growth_bounds", no_bounds)
        want_built, want_grown, want_stats = build_and_insert(
            shape, seed, inserts, backend)
    assert built == want_built
    assert grown == want_grown
    # With no bound every counted bound is an alignment.
    assert (want_stats.bound_computations
            == want_stats.quick_bound_computations
            == stats.quick_bound_computations)
    assert stats.bound_computations <= stats.quick_bound_computations
    return stats


# An exhaustive reference build is seconds of pure-Python alignments
# (~6k of them at 300 trips), so the seeds per shape are cut to fit
# tier-1, and only every fourth seed also checks the tree after 30
# inserts.  The full 20 seeds x 4 shapes x 30 inserts was run once for
# CHANGES.md (PR 19).
SEEDS_PER_SHAPE = {"beijing-40": 20, "beijing-60": 8, "beijing-300": 1,
                   "tiny-walks-80": 20}


@pytest.mark.parametrize("shape, seed", [
    (shape, seed) for shape, seeds in sorted(SEEDS_PER_SHAPE.items())
    for seed in range(seeds)
])
def test_trees_identical_to_exhaustive_assignment(shape, seed, monkeypatch):
    stats = assert_tree_identity(shape, seed, 30 if seed % 4 == 0 else 0,
                                 monkeypatch)
    if shape == "beijing-300":      # 16-pivot nodes below the root too
        assert stats.bound_computations < stats.quick_bound_computations / 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_tree_identity_on_every_backend(backend, monkeypatch):
    """The pivot columns come from the backend's own kernels; the
    assignment must agree with its oracle on whatever pivots they
    select."""
    assert_tree_identity("beijing-40", 1, 10, monkeypatch, backend)


#: sha256 over :func:`tree_signature`, generated once from the source of
#: commit 85c3394 (``TrajTree._rng`` still an attribute): passing the
#: build's generator down ``_build`` must draw the same numbers in the
#: same order.  Regenerated when builds stopped drawing vantage points
#: (which shifted every later draw), and equal to what the commit before
#: that builds with ``vp_levels=0`` (no VP draws).
PINNED_DIGESTS = {
    ("beijing-60", 0):
        "12164628c0cbf4693ae24e3b9eadd70ab883e050eab7c68eeff31bd0b31b55de",
    ("beijing-60", 1):
        "bb8244bb3dc503e4f91d6ad9d24e40aff43e6506074619a6f6b05ea79052da81",
    ("beijing-60", 2):
        "44fcca84f5390bbc24729e9a331805b903cb84d8f86e116a63ae3f90238ba5c0",
    ("tiny-walks-80", 0):
        "018d7e7ea162f56a1786263220b5f9dd111b37b67a40bff400411aa167691dc9",
    ("tiny-walks-80", 1):
        "b65e6c41b9e6510eee956e806924396991b6a8871fb8fe9e1813e8dc1ede8dce",
    ("tiny-walks-80", 2):
        "1d5f46820152c09edabac503e7e79efb8e4737155036eaf0918458a071a38d6f",
}


def signature_digest(tree):
    h = hashlib.sha256()
    for subtree_ids, member_ids, geometry in tree_signature(tree):
        h.update(repr((subtree_ids, member_ids)).encode())
        h.update(geometry)
    return h.hexdigest()


@pytest.mark.parametrize("shape, seed", sorted(PINNED_DIGESTS))
def test_trees_identical_without_a_stored_rng(shape, seed, tmp_path):
    make, kwargs = TREE_SHAPES[shape]
    tree = TrajTree(make(seed), seed=seed, **kwargs)
    assert signature_digest(tree) == PINNED_DIGESTS[shape, seed]
    assert not hasattr(tree, "_rng")
    if shape == "tiny-walks-80" or seed == 0:   # a Beijing build is ~5 s
        tree.rebuild()      # reseeds from ``seed``: the same tree again
        assert signature_digest(tree) == PINNED_DIGESTS[shape, seed]
        assert not hasattr(tree, "_rng")
    save_tree(tree, tmp_path / "tree.pkl")
    loaded = load_tree(tmp_path / "tree.pkl")
    assert signature_digest(loaded) == PINNED_DIGESTS[shape, seed]
    assert not hasattr(loaded, "_rng")


def test_build_folds_only_the_root(monkeypatch):
    """Child summaries come from the partition that made the groups:
    ``_build`` folds ``from_trajectories`` once, at the root."""
    callers = []
    real = TBoxSeq.from_trajectories

    def spy(trajs, max_boxes=tboxseq.DEFAULT_MAX_BOXES):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(trajs, max_boxes=max_boxes)

    monkeypatch.setattr(TBoxSeq, "from_trajectories", staticmethod(spy))
    tree = TrajTree(generate_beijing(60, seed=1), seed=1, num_vps=4,
                    backend="numpy")
    assert tree.node_count() > 1
    assert callers.count("_build") == 1
    tree.rebuild()
    assert callers.count("_build") == 2
