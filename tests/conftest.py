"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Trajectory
from repro.index import trajtree

from helpers import random_walk_trajectory

@pytest.fixture
def small_refine_flush(monkeypatch):
    """Run the test with ``REFINE_FLUSH = 4``.

    Most fixtures hold fewer trajectories than the real crossover (128),
    so their trees are refined whole at the root and never touch the
    frontier heap, the quick bound or the box bound.  With 4, every
    subtree larger than a small leaf is descended into, which is the
    search those tests were written against.
    """
    monkeypatch.setattr(trajtree, "REFINE_FLUSH", 4)


@pytest.fixture
def rng():
    """Deterministic numpy generator for tests."""
    return np.random.default_rng(42)


@pytest.fixture
def small_database(rng):
    """A 40-trajectory database of random walks."""
    return [
        random_walk_trajectory(rng, int(rng.integers(4, 12)))
        for _ in range(40)
    ]


@pytest.fixture
def paper_appendix_trajectories():
    """The Appendix-A triangle-inequality counterexample trio."""
    t1 = Trajectory.from_xy([(0, 0), (0, 1)])
    t2 = Trajectory.from_xy([(0, 0), (0, 1), (0, 2)])
    t3 = Trajectory.from_xy([(0, 0), (0, 1), (0, 2), (0, 3)])
    return t1, t2, t3


@pytest.fixture
def fig2_trajectories():
    """The Fig. 2(a) pair (T1's unprinted last point chosen arbitrarily)."""
    t1 = Trajectory([(0, 0, 0), (0, 10, 30), (3, 17, 51)])
    t2 = Trajectory([(2, 0, 0), (2, 7, 14), (2, 10, 20)])
    return t1, t2
