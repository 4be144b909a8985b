"""Pivot-based node partitioning — paper Algorithm 1.

A TrajTree node splits its trajectories into groups by (1) greedily growing a
set of mutually diverse *pivot* trajectories until the marginal fractional
drop in diversity exceeds θ, then (2) assigning every remaining trajectory to
the pivot tBoxSeq whose volume grows the least by absorbing it.  θ therefore
controls the branching factor indirectly, adapting it to the data (Sec. IV-D).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..core.edwp_sub import edwp_sub_fast_queries
from ..core.trajectory import Trajectory
from .tboxseq import DEFAULT_MAX_BOXES, TBoxSeq, least_growth

__all__ = ["PartitionResult", "partition", "select_pivots"]

#: Column of the diversity distance: ``rows(ts, s)`` returns
#: ``[distance(t, s) for t in ts]`` in one call.  Alg. 1 only ever needs
#: whole columns against one pivot, which is exactly the batch-first
#: lockstep shape of :func:`repro.core.edwp_sub.edwp_sub_fast_queries`
#: (the default; a plain per-pair loop on the ``"python"`` backend).
DistanceRowsFn = Callable[[Sequence[Trajectory], Trajectory], List[float]]


@dataclass
class PartitionResult:
    """Outcome of Algorithm 1 on one node.

    Attributes
    ----------
    pivots:
        Indices (into the input list) of the selected pivot trajectories.
    groups:
        One list of input indices per pivot — every trajectory of the node,
        including the pivot itself, assigned to exactly one group.
    boxseqs:
        The tBoxSeq grown over each group in group order — what
        ``TBoxSeq.from_trajectories`` builds for that group, so
        ``TrajTree._build`` reuses it as the child's summary.
    """

    pivots: List[int]
    groups: List[List[int]]
    boxseqs: List[TBoxSeq] = field(default_factory=list)


def select_pivots(
    trajectories: Sequence[Trajectory],
    theta: float,
    rng: random.Random,
    max_pivots: Optional[int] = None,
    distance_rows: DistanceRowsFn = edwp_sub_fast_queries,
) -> List[int]:
    """Greedy max-min diverse pivot selection (Alg. 1, lines 3-8).

    Starting from a random seed trajectory, repeatedly add the trajectory
    farthest (in min-distance) from the current pivot set, while the marginal
    fractional *drop* in set diversity stays at or below ``theta``.  The drop
    for a candidate is ``1 - min_dist(candidate, P) / min_pairwise(P)``
    (line 6): once new pivots stop being meaningfully different from the
    existing ones, growth stops.

    ``distance_rows`` evaluates a whole distance column against one pivot
    in a single call; every new pivot needs exactly one such column, so a
    batched evaluator turns the k-center sweep's hot loop into lockstep
    kernel calls without changing any selection decision.
    """
    n = len(trajectories)
    if n == 0:
        return []
    if n == 1:
        return [0]
    if max_pivots is None:
        max_pivots = n

    seed = rng.randrange(n)
    pivots = [seed]
    # min distance from every trajectory to the pivot set, maintained
    # incrementally (the classic k-center sweep).
    min_dist = [math.inf] * n
    min_pairwise = math.inf

    def update_with(pivot: int) -> None:
        nonlocal min_pairwise
        col = distance_rows(trajectories, trajectories[pivot])
        for i in range(n):
            if i == pivot:
                min_dist[i] = 0.0
                continue
            if col[i] < min_dist[i]:
                min_dist[i] = col[i]
        for p in pivots:
            if p != pivot and col[p] < min_pairwise:
                min_pairwise = col[p]

    update_with(seed)

    while len(pivots) < min(n, max_pivots):
        candidate = max(
            (i for i in range(n) if i not in pivots),
            key=lambda i: min_dist[i],
            default=None,
        )
        if candidate is None:
            break
        if len(pivots) >= 2:
            if min_pairwise <= 0:
                break
            drop = 1.0 - min_dist[candidate] / min_pairwise
            if drop > theta:
                break
        pivots.append(candidate)
        update_with(candidate)

    return pivots


def partition(
    trajectories: Sequence[Trajectory],
    theta: float = 0.8,
    min_node_size: int = 10,
    rng: Optional[random.Random] = None,
    max_boxes: int = DEFAULT_MAX_BOXES,
    max_pivots: Optional[int] = None,
    distance_rows: DistanceRowsFn = edwp_sub_fast_queries,
    stats=None,
) -> Optional[PartitionResult]:
    """Algorithm 1: split a node's trajectories into diverse groups.

    Returns ``None`` when the node is already small enough (``|D| <= n`` in
    the paper, line 1) or when the pivots cannot split it into at least two
    groups.

    Parameters mirror the paper: ``theta`` is the diversity-drop threshold
    (default 0.8, the paper's tuned value — Fig. 6b), ``min_node_size`` the
    minimum node size ``n`` (default 10, Sec. V-A).  ``distance_rows``
    evaluates whole distance columns against one trajectory — see
    :func:`select_pivots`.  ``stats`` collects the assignment's counters
    (see :func:`~repro.index.tboxseq.least_growth`).
    """
    if rng is None:
        rng = random.Random(0)
    n = len(trajectories)
    if n <= min_node_size:
        return None

    pivots = select_pivots(trajectories, theta, rng, max_pivots,
                           distance_rows)
    if len(pivots) < 2:
        # A degenerate pivot set cannot split the node; fall back to two
        # pivots (seed + farthest) so the tree always makes progress.
        pivots = _forced_two_pivots(trajectories, rng, distance_rows)
        if len(pivots) < 2:
            return None

    boxseqs = [
        TBoxSeq.from_trajectory(trajectories[p], max_boxes=max_boxes)
        for p in pivots
    ]
    groups: List[List[int]] = [[p] for p in pivots]
    pivot_set = set(pivots)

    for i in range(n):
        if i in pivot_set:
            continue
        g, grown = least_growth(boxseqs, trajectories[i], max_boxes, stats)
        boxseqs[g] = grown
        groups[g].append(i)

    # Balance guard (implementation addition, documented in DESIGN.md):
    # when one pivot's tBoxSeq already covers most of the space, every
    # trajectory grows it by ~zero volume and the minimum-growth rule dumps
    # the whole node into that group, degenerating the tree.  Fall back to
    # nearest-pivot assignment in that case.
    if len(groups) > 1 and max(len(g) for g in groups) > 0.8 * n:
        # One column per pivot; each trajectory joins the first strictly
        # nearest pivot.
        cols = [distance_rows(trajectories, trajectories[p]) for p in pivots]
        groups = [[p] for p in pivots]
        for i in range(n):
            if i in pivot_set:
                continue
            best_g = min(range(len(pivots)), key=lambda g: cols[g][i])
            groups[best_g].append(i)
        boxseqs = [
            TBoxSeq.from_trajectories(
                [trajectories[i] for i in group], max_boxes=max_boxes
            )
            for group in groups
        ]

    return PartitionResult(pivots=pivots, groups=groups, boxseqs=boxseqs)


def _forced_two_pivots(
    trajectories: Sequence[Trajectory],
    rng: random.Random,
    distance_rows: DistanceRowsFn,
) -> List[int]:
    """Seed + farthest-from-seed, ignoring θ — used when Alg. 1 stalls."""
    n = len(trajectories)
    seed = rng.randrange(n)
    col = distance_rows(trajectories, trajectories[seed])
    best = None
    best_d = -1.0
    for i in range(n):
        if i == seed:
            continue
        if col[i] > best_d:
            best_d = col[i]
            best = i
    if best is None:
        return [seed]
    return [seed, best]
