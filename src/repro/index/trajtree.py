"""TrajTree — hierarchical index for exact k-NN retrieval under EDwP.

Paper Sec. IV-D..G.  Every node summarizes the trajectories of its subtree
with a tBoxSeq, whose boxes cover every member and so give a *lower bound*
on the distance from a query to anything below the node (Theorem 2, in the
per-segment form of :func:`~repro.index.tboxseq.edwp_sub_box_many`;
DESIGN.md, "Index bound kernels").  Querying (Alg. 2) is a best-first
search: nodes are dequeued in lower-bound order and each dequeued node
enqueues the children whose lower bounds beat the k-th distance.

Deviation from Alg. 2: no vantage-point step (Step 1, Eq. 14) and no
per-node vantage descriptors.  The upper bound on the k-th distance that
step gave comes from the members' rectangle upper bounds, with which every
flush screens its rows (DESIGN.md, "Upper bounds screen the flush", "No
vantage-point step").

Deviation from the pseudo-code, documented in DESIGN.md: when a leaf node
survives pruning we compute the exact EDwP of all its (≤ ``min_node_size``)
members immediately instead of re-enqueueing each trajectory
keyed by the trajectory-level EDwPsub.  The practical DP realization of
EDwPsub is not a guaranteed lower bound trajectory-to-trajectory (see
DESIGN.md), so this keeps retrieval exact at negligible cost.

The tree answers queries with either raw EDwP or the length-normalized
EDwPavg the paper's experiments use (``normalized=True``); the lower bound
for the normalized distance divides by ``length(Q) + max length`` in the
subtree, preserving the underestimate.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.edwp import edwp_many, resolve_backend
from ..core.edwp_sub import edwp_sub_fast_queries, edwp_sub_many
from ..core.geometry import (BOUND_SHRINK, margined_distances,
                             polyline_rects_distance,
                             polyline_rects_distance_bounds, rounding_band)
from ..core.trajectory import Trajectory, TrajectoryBatch, assign_ids
from .budget import AnytimeResult, as_tracker, bound_factor_for
from .partition import partition
from .tboxseq import (DEFAULT_MAX_BOXES, TBoxSeq, edwp_sub_box_many,
                      least_growth)

__all__ = ["TrajTree", "TrajTreeStats"]

#: Deferred refinements are flushed through one batched exact-distance
#: kernel call once this many members accumulate (or earlier, whenever a
#: pruning decision needs a fresh k-th distance) — unless the answer heap
#: is unfilled and the search has no frontier left to prune, when they
#: wait for the next flush.  Bounds the staleness of the answer heap: at
#: most this many extra members can be refined relative to the fully
#: sequential formulation.  A flush whose screen (:meth:`TopK.flush`)
#: leaves at least this many rows on an unfilled heap refines the nearest
#: rows first and screens the rest again.  Also the traversal crossover: a
#: subtree that fits one flush is refined whole, not descended into
#: (DESIGN.md, "Batched leaf refinement").
REFINE_FLUSH = 128


@dataclass
class TrajTreeStats:
    """Counters describing one query or the tree shape.

    The query-time counters obey an exact accounting contract (asserted by
    ``tests/test_trajtree_stats.py``) so that fig6-style ablations can
    trust them:

    * Every node the search *considers* (the root plus the children of
      every visited internal node) is counted in exactly one of
      ``nodes_visited`` (dequeued and processed) or ``nodes_pruned``
      (discarded — by the quick bound, by the box bound, or in bulk when
      the best-first frontier's minimum bound passes the k-th distance).
    * ``quick_bound_computations`` counts union-rectangle pre-filter
      evaluations and ``bound_computations`` counts box bound
      evaluations (``edwp_sub_box_many``) — a batched call over ``c``
      nodes adds ``c``.  Quick-bound prunes therefore do *not* touch
      ``bound_computations`` (no box bound ran for them).
    * ``exact_computations`` counts exact distances actually evaluated
      (refined members).
      ``members_pruned`` counts members skipped by the per-member bound
      (own rectangle, own length) *instead of* being refined — when its
      node is refined whole, or when a flush screens it against the k-th
      smallest of the answers and the deferred rows' upper bounds
      (:meth:`TopK.flush`) — so for ``knn`` and
      ``range_query`` over a freshly built tree, refined + member-pruned
      covers every member of every node refined whole exactly once.  A
      range query's flush screens nothing: its members are screened
      against the radius when their node is refined whole.
    * The counters do not depend on the distance backend: both backends
      drive the identical traversal (batched leaf refinement included —
      see DESIGN.md, "Batched leaf refinement"), so python/numpy runs of
      the same query report the same numbers.

    ``TrajTree.build_stats`` reads the same pair for Alg. 1's assignment
    (DESIGN.md, "Least-growth assignment"): ``quick_bound_computations``
    growth bounds evaluated — one per (trajectory, pivot), the alignments
    an exhaustive assignment runs — ``bound_computations`` the alignment
    DPs they let through, ``nodes_visited`` the nodes built.
    """

    nodes_visited: int = 0
    nodes_pruned: int = 0
    exact_computations: int = 0
    bound_computations: int = 0
    quick_bound_computations: int = 0
    members_pruned: int = 0


class MemberBlock(TrajectoryBatch):
    """A node's members packed, plus their ids and ``(m, 4)`` bounding
    rectangles row for row: what Rule 2 and the refinement flush read."""

    __slots__ = ("ids", "rects")
    _ROWS = TrajectoryBatch._ROWS + ("ids", "rects")

    def __init__(self, ids: Sequence[int], trajs: Sequence[Trajectory]):
        super().__init__(trajs)
        self.ids = np.array(ids, dtype=np.int64)
        self.rects = np.array([t.bounding_rect() for t in trajs],
                              dtype=np.float64).reshape(-1, 4)


def row_scales(query: Trajectory, rects: np.ndarray) -> np.ndarray:
    """Per rectangle, the largest coordinate magnitude of it and the query:
    the scale the rounding margins and the 1e150 cut-off of
    :meth:`TrajTree._rect_raws` and :meth:`TrajTree._rect_uppers` read.
    A flush computes it once for all its screens and upper bounds."""
    return np.maximum(np.abs(rects).max(axis=1), np.abs(query.coords()).max())


class TopK:
    """Answer state of one top-k search: Alg. 2's ``ans`` plus the
    deferred-refinement buffer: chunks of member-block rows
    (``block.take(rows)``), each with the raw bound of the node it came
    from, flushed by how many members they hold.

    A search given a plain ``k`` creates its own and drains it before
    returning.  A caller that walks several trees with disjoint ids for one
    query (:class:`~repro.index.forest.TrajForest`) creates one, passes it
    where ``k`` goes and owns the final :meth:`flush`; each tree returns
    the heap as it stands, prunes against the k-th distance the earlier
    ones established, and shares kernel calls for deferred members.

    A flush screens before it refines: no deferred row whose lower bound
    passes the k-th smallest of the answers' distances and the rows' upper
    bounds reaches the kernel (:meth:`flush`; DESIGN.md, "Upper bounds
    screen the flush").

    A range search's is *pinned*: given a ``radius``, ``k`` counts every
    member searched, :meth:`kth` is the radius throughout and a refined
    row beyond it never enters the heap.
    """

    def __init__(self, k: int, radius: Optional[float] = None):
        if k <= 0:
            raise ValueError("k must be positive")
        if radius is not None and not radius >= 0:     # NaN compares false
            raise ValueError("radius must be non-negative")
        self.k = k
        self.radius = radius
        # max-heap of size <= k holding (-dist, -traj_id); ties resolve by
        # trajectory id so results match the sequential-scan oracle.
        self.ans: List[Tuple[float, int]] = []
        self.pending: List[MemberBlock] = []
        self.raws: List[float] = []       # pending[i]'s node bound, raw
        # Set by the search in progress: its query, ``trajectories ->
        # distances``, Rule 2 ``(block, raws, limit, bounds, scales) -> kept
        # rows``, ``(block, scales) -> upper bounds`` (None: no row has one)
        # and counters.
        # The owner's final flush uses the last search's.
        self.query: Optional[Trajectory] = None
        self.refine: Optional[Callable] = None
        self.screen: Optional[Callable] = None
        self.upper: Optional[Callable] = None
        self.stats: Optional[TrajTreeStats] = None

    def kth(self) -> float:
        """Current k-th distance, ``inf`` until k answers are in (the
        radius, if pinned).  Ignores the deferred members, so it
        upper-bounds the true k-th distance."""
        if self.radius is not None:
            return self.radius
        return -self.ans[0][0] if len(self.ans) >= self.k else math.inf

    def defer(self, chunk: MemberBlock, raw: float) -> None:
        """Hold ``chunk`` for the next flush; ``raw`` is a raw lower bound
        for every row of it (its node's)."""
        if len(chunk):
            self.pending.append(chunk)
            self.raws.append(raw)

    def flush(self) -> None:
        """Refine the deferred members: screened first, then in one kernel
        call, nearest first if the screen leaves a heap-filling crowd.

        When the search gives rows upper bounds (EDwP with the quick bound
        on), Rule 2 screens every row, each with its own node's bound,
        against the k-th smallest of the heap's distances and the rows'
        upper bounds (:meth:`limit`).  If at least :data:`REFINE_FLUSH`
        rows are left, more than the ``need = k - len(ans)`` the heap
        lacks, the ``need`` rows whose rectangles are nearest the query
        (Rule 2's *U*) are refined first; the heap is then full, Rule 2
        screens the others against the new limit, and the survivors are
        refined in a second call.
        """
        if not self.pending:
            return
        batch = TrajectoryBatch.concat(self.pending)
        raws = np.repeat(self.raws, list(map(len, self.pending)))
        self.pending, self.raws = [], []
        scales = row_scales(self.query, batch.rects)
        bounds = uppers = None
        if self.upper is not None:
            uppers = self.upper(batch, scales)
            limit = self.limit(uppers)
            if limit < math.inf:
                bounds = polyline_rects_distance_bounds(self.query.coords(),
                                                        batch.rects)
                keep = self.screen(batch, raws, limit, bounds, scales)
                batch, raws, uppers, scales = (batch.take(keep), raws[keep],
                                               uppers[keep], scales[keep])
                bounds = (bounds[0][keep], bounds[1][keep])
        need = self.k - len(self.ans)
        if 0 < need < len(batch) and len(batch) >= REFINE_FLUSH:
            if bounds is None:
                bounds = polyline_rects_distance_bounds(self.query.coords(),
                                                        batch.rects)
            lower, upper = bounds
            order = np.lexsort((batch.ids, upper))
            self._merge(batch.take(np.sort(order[:need])))
            rest = np.sort(order[need:])
            limit = self.limit(() if uppers is None else uppers[rest])
            rest = rest[self.screen(batch.take(rest), raws[rest], limit,
                                    (lower[rest], upper[rest]), scales[rest])]
            batch = batch.take(rest)
        self._merge(batch)

    def limit(self, uppers) -> float:
        """The k-th smallest of the heap's distances and ``uppers`` (upper
        bounds of rows not in the heap), ``inf`` if fewer than k: an upper
        bound of the final k-th distance once those rows are refined."""
        values = np.concatenate([[-negd for negd, _ in self.ans], uppers])
        if len(values) < self.k:
            return math.inf
        return float(np.partition(values, self.k - 1)[self.k - 1])

    def _merge(self, batch: MemberBlock) -> None:
        """Refine ``batch`` in one kernel call; merged in ``(distance, id)``
        order, at most k heap operations leave the same k pairs as pushing
        each in turn (only kth() and pairs() read the heap).  A pinned heap
        drops the rows beyond its radius first."""
        if not len(batch):
            return
        self.stats.exact_computations += len(batch)
        ids, ds = batch.ids, np.asarray(self.refine(batch))
        if self.radius is not None:
            within = ds <= self.radius
            ids, ds = ids[within], ds[within]
        k, ans = self.k, self.ans
        for i in np.lexsort((ids, ds))[:k].tolist():
            d, tid = float(ds[i]), int(ids[i])
            if len(ans) < k:
                heapq.heappush(ans, (-d, -tid))
            elif (d, tid) < (-ans[0][0], -ans[0][1]):
                heapq.heapreplace(ans, (-d, -tid))
            else:
                break

    def pairs(self) -> List[Tuple[int, float]]:
        """The answers so far, ascending ``(distance, traj_id)``."""
        return sorted(((-negid, -negd) for negd, negid in self.ans),
                      key=lambda x: (x[1], x[0]))


#: ``query_many`` kinds: the index method each names and the type its
#: ``param`` is cast to (``k`` for the k-NN kinds, the radius for range).
QUERY_KINDS = {
    "knn": ("knn", int),
    "range": ("range_query", float),
    "subtrajectory_knn": ("subtrajectory_knn", int),
}


def dispatch_query_many(
    index, requests: Sequence[tuple]
) -> List[Tuple[List[Tuple[int, float]], TrajTreeStats]]:
    """The one ``query_many`` body, shared by tree and forest.

    ``index`` is anything with the three single-query methods of
    :data:`QUERY_KINDS` (looked up on the instance per request, so a
    subclass or an instrumented method is honoured).  Contract in
    :meth:`TrajTree.query_many`.
    """
    out: List[Tuple[List[Tuple[int, float]], TrajTreeStats]] = []
    seen: Dict[tuple, int] = {}
    for req in requests:
        kind, query, param = req[0], req[1], req[2]
        budget = req[3] if len(req) > 3 else None
        if kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {kind!r}; expected one of "
                f"{tuple(QUERY_KINDS)}"
            )
        key = (kind, float(param), query.data.tobytes(), budget)
        first = seen.get(key)
        if first is not None:
            out.append(out[first])
            continue
        seen[key] = len(out)
        method, cast = QUERY_KINDS[kind]
        stats = TrajTreeStats()
        out.append((
            getattr(index, method)(query, cast(param), stats=stats,
                                   budget=budget),
            stats,
        ))
    return out


class _Node:
    """One TrajTree node: tBoxSeq summary + children."""

    __slots__ = ("boxseq", "children", "max_length", "subtree_ids",
                 "union_rect", "block")

    def __init__(
        self,
        boxseq: TBoxSeq,
        children: List["_Node"],
        max_length: float,
        subtree_ids: List[int],
    ):
        self.boxseq = boxseq
        self.children = children          # empty => leaf
        self.max_length = max_length      # max trajectory length in subtree
        self.subtree_ids = subtree_ids    # all ids under this node
        self.block: Optional[MemberBlock] = None    # see TrajTree._block
        self.refresh_union_rect()

    def __getstate__(self):
        # Pickle's default state for every slot but the derived block.
        return None, {name: getattr(self, name)
                      for name in self.__slots__[:-1]}

    def __setstate__(self, state) -> None:
        for name, value in [*state[1].items(), ("block", None)]:
            setattr(self, name, value)

    def refresh_union_rect(self) -> None:
        """Union rectangle over all boxes: feeds the cheap pre-filter bound.

        Must be re-derived whenever ``boxseq`` is replaced (dynamic
        inserts grow the boxes): a stale, smaller rectangle would
        *overestimate* the rectangle distance and break the quick bound's
        underestimate guarantee.
        """
        rects = self.boxseq.rects
        self.union_rect = (
            float(rects[:, 0].min()),
            float(rects[:, 1].min()),
            float(rects[:, 2].max()),
            float(rects[:, 3].max()),
        )

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def count(self) -> int:
        return len(self.subtree_ids)


class TrajTree:
    """The TrajTree index (paper Sec. IV).

    Parameters
    ----------
    trajectories:
        The database to bulk-load.  Each trajectory needs at least one
        segment.  ``traj_id`` attributes are respected when present and
        unique; positional ids are assigned otherwise.
    theta:
        Diversity-drop threshold of Alg. 1 (default 0.8, the paper's tuned
        value, Fig. 6b).  Larger θ allows more pivots per node (higher
        branching factor): tighter bounds, more bound computations.
    num_vps, vp_levels:
        Accepted and ignored: the tree keeps no vantage points (DESIGN.md,
        "No vantage-point step").  Trees built with any values are
        identical.
    min_node_size:
        Maximum leaf size ``n`` (default 10, Sec. V-A).
    normalized:
        Answer queries with EDwPavg (Eq. 4) instead of raw EDwP.
    max_boxes:
        Box budget per tBoxSeq (implementation knob, see tboxseq module).
    max_branching:
        Hard cap on pivots per node.  Alg. 1 stops growing the pivot set
        only when diversity drops sharply; on data without cluster structure
        that may never happen, so the cap keeps the tree from degenerating
        into one child per trajectory (implementation guardrail).
    backend:
        EDwP backend for exact distances and build-time pivot selection
        (``"python"`` / ``"numpy"`` — validated here, so a bad name fails
        at construction rather than at first query; a snapshot naming
        another backend raises :class:`~repro.core.backend.UnknownBackendError`
        at its first query); ``None`` (default) follows the global
        :func:`repro.core.set_backend` choice.  Leaf refinement and the
        scan oracles batch their exact distances through
        :func:`repro.core.edwp_many`, so the numpy backend's lockstep
        kernel applies there wholesale.
    seed:
        Seeds pivot selection; builds are deterministic given a seed.
    rebuild_ratio:
        Fraction of accumulated updates (inserts + deletes) relative to the
        database size beyond which :meth:`needs_rebuild` reports True
        (Sec. IV-F's staleness heuristic).
    """

    def __init__(
        self,
        trajectories: Sequence[Trajectory],
        theta: float = 0.8,
        num_vps: int = 80,
        min_node_size: int = 10,
        normalized: bool = False,
        max_boxes: int = DEFAULT_MAX_BOXES,
        max_branching: int = 16,
        vp_levels: int = 1,
        use_quick_bound: bool = True,
        backend: Optional[str] = None,
        seed: int = 0,
        rebuild_ratio: float = 0.3,
    ):
        if not trajectories:
            raise ValueError("cannot index an empty database")
        for t in trajectories:
            if t.num_segments == 0:
                raise ValueError("every indexed trajectory needs >= 1 segment")
        self.theta = theta
        self.min_node_size = min_node_size
        self.normalized = normalized
        self.max_boxes = max_boxes
        self.max_branching = max_branching
        self.use_quick_bound = use_quick_bound
        if backend is not None:
            resolve_backend(backend)    # typed error at selection time
        self.backend = backend
        self.seed = seed
        self.rebuild_ratio = rebuild_ratio

        ids = assign_ids(trajectories)
        self._db: Dict[int, Trajectory] = dict(zip(ids, trajectories))
        self._updates_since_build = 0
        self.build_stats = TrajTreeStats()
        self.root = self._build(ids, random.Random(seed))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _build(self, ids: List[int], rng: random.Random,
               boxseq: Optional[TBoxSeq] = None) -> _Node:
        """Node over ``ids``; ``boxseq`` is their summary when the parent's
        partition already folded it (every node but the root); ``rng`` is
        the build's one generator (nothing draws after a build)."""
        trajs = [self._db[i] for i in ids]
        if boxseq is None:
            boxseq = TBoxSeq.from_trajectories(trajs, max_boxes=self.max_boxes)
        max_length = max(t.length for t in trajs)
        self.build_stats.nodes_visited += 1

        result = partition(
            trajs,
            theta=self.theta,
            min_node_size=self.min_node_size,
            rng=rng,
            max_boxes=self.max_boxes,
            max_pivots=self.max_branching,
            distance_rows=self._pivot_distance_rows,
            stats=self.build_stats,
        )
        if result is None or len(result.groups) < 2:
            return _Node(boxseq, [], max_length, list(ids))

        children = [
            self._build([ids[i] for i in group], rng, grown)
            for group, grown in zip(result.groups, result.boxseqs)
        ]
        return _Node(boxseq, children, max_length, list(ids))

    # ------------------------------------------------------------------ #
    # public container surface
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._db)

    def __contains__(self, traj_id: int) -> bool:
        return traj_id in self._db

    def get(self, traj_id: int) -> Trajectory:
        """The stored trajectory with this id."""
        return self._db[traj_id]

    def ids(self) -> List[int]:
        """All trajectory ids currently indexed."""
        return list(self._db)

    def height(self) -> int:
        """Tree height (a leaf-only tree has height 1)."""

        def depth(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(depth(c) for c in node.children)

        return depth(self.root)

    def node_count(self) -> int:
        """Total number of nodes."""

        def count(node: _Node) -> int:
            return 1 + sum(count(c) for c in node.children)

        return count(self.root)

    def storage_summary(self) -> Dict[str, int]:
        """Concrete counts behind the paper's storage analysis (Sec. IV-F).

        The paper bounds storage by ``O(bf*|D|/(bf-1))`` nodes plus
        ``|V|*|D|*log_bf |D|`` stored vantage-descriptor entries; this tree
        stores no descriptors (DESIGN.md, "No vantage-point step") and
        reports the realized numbers for the rest.
        """
        nodes = 0
        boxes = 0
        leaves = 0

        def walk(node: _Node) -> None:
            nonlocal nodes, boxes, leaves
            nodes += 1
            boxes += len(node.boxseq)
            if node.is_leaf:
                leaves += 1
            for child in node.children:
                walk(child)

        walk(self.root)
        return {
            "trajectories": len(self._db),
            "nodes": nodes,
            "leaves": leaves,
            "boxes": boxes,
        }

    def branching_factors(self) -> List[int]:
        """Branching factor of every internal node (θ controls these)."""
        out: List[int] = []

        def walk(node: _Node) -> None:
            if not node.is_leaf:
                out.append(len(node.children))
                for c in node.children:
                    walk(c)

        walk(self.root)
        return out

    # ------------------------------------------------------------------ #
    # distances and bounds
    # ------------------------------------------------------------------ #

    def _pivot_distance_rows(
        self, trajs: Sequence[Trajectory], pivot: Trajectory
    ) -> List[float]:
        """A whole diversity-distance column against one pivot, batched.

        Alg. 1's hot loop: on the ``"numpy"`` backend the column runs
        through the batch-first lockstep kernel (bit-identical to the
        per-pair numpy values), on ``"python"`` it loops — so pivot
        selections never depend on whether batching is available.
        """
        return edwp_sub_fast_queries(trajs, pivot, backend=self.backend)

    def _exact_many(
        self, query: Trajectory, trajs: Sequence[Trajectory]
    ) -> List[float]:
        """Batched exact distances (refinement / scan oracles) — of
        trajectories, not ids: a shared buffer holds other trees' members."""
        return edwp_many(query, trajs, normalized=self.normalized,
                         backend=self.backend)

    def _exact_sub_many(
        self, query: Trajectory, trajs: Sequence[Trajectory]
    ) -> List[float]:
        """Batched raw ``EDwPsub`` distances — :meth:`_exact_many`'s twin
        for :meth:`subtrajectory_knn` and its scan oracle."""
        return edwp_sub_many(query, trajs, backend=self.backend)

    @staticmethod
    def _normalize_bound(
        query: Trajectory, length: float, lb: float, normalized: bool
    ) -> float:
        """``lb`` over ``length(Q) + length`` — a subtree's maximum member
        length for a node bound, a member's own for its own bound."""
        if not normalized:
            return lb
        denom = query.length + length
        if denom <= 0.0:
            return 0.0
        return lb / denom

    def _bounds_many_raw(
        self, query: Trajectory, nodes: Sequence[_Node]
    ) -> List[float]:
        """Raw (unnormalized) Theorem-2 box bounds of many nodes in one
        vectorized pass (the same on every backend)."""
        return edwp_sub_box_many(query, [node.boxseq for node in nodes])

    @staticmethod
    def _quick_bounds_many_raw(
        query: Trajectory, rects: Sequence[Tuple[float, ...]]
    ) -> List[float]:
        """Raw quick bounds of many rectangles — nodes' ``union_rect`` or
        members' own ``bounding_rect()`` — in one vectorized pass.

        Every EDwP edit costs ``(d(start) + d(end)) * coverage`` with both
        positions on the query polyline and coverage at least the query
        piece length; pieces tile the query, so
        ``EDwP >= 2 * dist(polyline(Q), boxes) * length(Q)``.  The union
        rectangle of a node's boxes underestimates the box distance, so
        the expression stays a lower bound.  The same argument covers raw
        ``EDwPsub``: sub-matching skips target prefix/suffix cost but
        still consumes the whole query, and every position on a summarized
        trajectory lies inside the node's boxes — as every position on one
        trajectory lies inside its own bounding rectangle.  The computed
        distance gives up the box bound's rounding margin
        (:meth:`_rect_raws`).
        """
        rects = np.array(rects, dtype=np.float64).reshape(-1, 4)
        return TrajTree._rect_raws(
            query, polyline_rects_distance(query.spatial(), rects),
            row_scales(query, rects)).tolist()

    @staticmethod
    def _rect_raws(query: Trajectory, d: np.ndarray, scales: np.ndarray,
                   lengths: Optional[np.ndarray] = None) -> np.ndarray:
        """``2 · d · len(Q)`` — the quick bound and Rule 2's for EDwPsub —
        or, given the members' ``lengths``, the two-sided ``2 · d · (len(Q)
        + len(T))`` Rule 2 gives EDwP, from computed distances ``d`` of the
        query to rectangles, less the box bound's rounding margin
        (:func:`~repro.core.geometry.margined_distances` at the rectangles'
        :func:`row_scales`, then :data:`~repro.core.geometry.BOUND_SHRINK`),
        and 0 past a scale of 1e150.  Monotone in ``d``, so Rule 2 may
        apply it to bounds on ``d`` (DESIGN.md, "Index bound kernels",
        "Batched leaf refinement")."""
        coverage = query.length if lengths is None else query.length + lengths
        with np.errstate(invalid="ignore"):     # 0 * an overflowed length
            raws = (2.0 * margined_distances(d, scales) * coverage
                    * BOUND_SHRINK)
        return np.where(scales <= 1e150, raws, 0.0)

    @staticmethod
    def _rect_uppers(query: Trajectory, block: MemberBlock,
                     normalized: bool,
                     scales: Optional[np.ndarray] = None) -> np.ndarray:
        """Upper bounds on each row's *computed* EDwP to ``query`` (EDwPavg
        when ``normalized``): ``2 · D · (len(Q) + len(T))``, ``D`` the
        farthest distance between the query's rectangle and the row's.

        Every edit of the DP costs ``(d(start) + d(end)) · coverage`` with
        all four positions on the two polylines, so each ``d <= D``, and
        the coverages tile both polylines.  Upward margin: ``D`` and the
        coverage each grow by one :func:`~repro.core.geometry.rounding_band`
        per edit (``K = n + m + 1`` edits, so rounded positions may stray
        that far), the product is divided by
        :data:`~repro.core.geometry.BOUND_SHRINK` and gains ``1e-300``
        (subnormal edit costs); the normalized form divides that by the
        same ``len(Q) + len(T)`` the distance is divided by.  ``inf`` for
        a row without segments, for ``len(Q) + len(T) <= 0``, past a scale
        of 1e150 and wherever the value is not finite (DESIGN.md, "Upper
        bounds screen the flush").  ``scales``: the rows'
        :func:`row_scales`, computed here when not given."""
        qx0, qy0, qx1, qy1 = query.bounding_rect()
        rects = block.rects
        dx = np.maximum(qx1 - rects[:, 0], rects[:, 2] - qx0)
        dy = np.maximum(qy1 - rects[:, 1], rects[:, 3] - qy0)
        if scales is None:
            scales = row_scales(query, rects)
        slack = (query.num_segments + block.counts) * rounding_band(scales)
        coverage = query.length + block.lengths
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            uppers = (2.0 * (np.sqrt(dx * dx + dy * dy) + slack)
                      * (coverage + slack) / BOUND_SHRINK + 1e-300)
            if normalized:
                uppers = uppers / coverage
        sound = ((block.counts >= 2) & (coverage > 0.0) & (scales <= 1e150)
                 & np.isfinite(uppers))
        return np.where(sound, uppers, math.inf)

    def _block(self, node: _Node) -> MemberBlock:
        """``node``'s members, built on first use by an idempotent
        read-compute-assign (DESIGN.md, "Geometry cache invalidation
        rules")."""
        block = node.block
        if block is None:
            block = MemberBlock(node.subtree_ids,
                                [self._db[tid] for tid in node.subtree_ids])
            node.block = block
        return block

    def _members_within(
        self,
        query: Trajectory,
        block: MemberBlock,
        raw,
        limit: float,
        normalized: bool,
        stats: TrajTreeStats,
        bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        scales: Optional[np.ndarray] = None,
        *,
        two_sided: bool,
    ) -> np.ndarray:
        """The rows of ``block`` whose own lower bound does not pass
        ``limit`` (Rule 2); the rest count in ``stats.members_pruned``.

        A member's bound is ``max(raw, 2 · d · len(Q))``, or ``max(raw, 2 ·
        d · (len(Q) + len(T)))`` when ``two_sided`` (EDwP, whose coverage
        counts the member's pieces too; EDwPsub skips some of them)
        (:meth:`_rect_raws`), over ``len(Q) + len(T)`` when ``normalized``:
        ``raw`` the bound of the member's node (one for the block, or one
        per row), ``d`` the query's distance to the member's rectangle.
        It is monotone in
        ``d``, so two bounds on the *computed* ``d`` — ``bounds``, from
        :func:`~repro.core.geometry.polyline_rects_distance_bounds`,
        computed here when not given — decide the block at once, as
        evaluating ``d`` per row would; only the rows they leave open pay
        the ten-candidate ``polyline_rects_distance``.  ``scales``, the
        rows' :func:`row_scales`, is likewise computed here when not given.
        """
        denom = query.length + block.lengths
        raws = np.broadcast_to(np.asarray(raw, dtype=np.float64),
                               (len(block),))
        if scales is None:
            scales = row_scales(query, block.rects)

        def within(d: np.ndarray, sel=slice(None)) -> np.ndarray:
            qraw = self._rect_raws(query, d, scales[sel],
                                   block.lengths[sel] if two_sided else None)
            lb = np.where(qraw > raws[sel], qraw, raws[sel])
            with np.errstate(divide="ignore", invalid="ignore"):
                return (np.where(denom[sel] <= 0.0, 0.0, lb / denom[sel])
                        if normalized else lb) <= limit

        if not self.use_quick_bound:
            keep = within(np.zeros(len(block)))
        else:
            if bounds is None:
                bounds = polyline_rects_distance_bounds(query.coords(),
                                                        block.rects)
            lower, upper = bounds
            keep = within(lower)
            open_ = np.flatnonzero(keep & ~within(upper))
            if len(open_):
                keep[open_] = within(polyline_rects_distance(
                    query.spatial(), block.rects[open_]), open_)
        stats.members_pruned += len(block) - int(np.count_nonzero(keep))
        return np.flatnonzero(keep)

    # ------------------------------------------------------------------ #
    # querying (Alg. 2)
    # ------------------------------------------------------------------ #

    def knn(
        self,
        query: Trajectory,
        k: int,
        stats: Optional[TrajTreeStats] = None,
        budget=None,
    ) -> List[Tuple[int, float]]:
        """Exact k nearest neighbours of ``query`` under (normalized) EDwP.

        Returns ``[(traj_id, distance), ...]`` sorted ascending.  ``stats``
        (optional) accumulates visit/prune/computation counters.

        ``budget`` (optional — a :class:`~repro.index.budget.QueryBudget`
        or a ticking :class:`~repro.index.budget.BudgetTracker`) makes the
        search *anytime*: the budget is checked at every frontier pop, the
        bound allowance clamps the batched box bound calls, and on exhaustion
        the search drains its deferred refinements in one batched call and
        returns an :class:`~repro.index.budget.AnytimeResult` carrying
        ``exact``, the frontier's residual lower bound and the implied
        upper-bound factor (DESIGN.md, "Overload control and anytime
        queries").  With an unlimited budget the result is bit-identical
        to the unbudgeted call.
        """
        return self._best_first(
            query, k, stats, budget,
            refine=self._exact_many, normalized=self.normalized,
            full_match=True,
        )

    def _best_first(
        self,
        query: Trajectory,
        k,
        stats: Optional[TrajTreeStats],
        budget,
        refine: Callable[[Trajectory, Sequence[Trajectory]], List[float]],
        normalized: bool,
        full_match: bool,
        radius: Optional[float] = None,
    ) -> List[Tuple[int, float]]:
        """Alg. 2's best-first search — the one loop behind :meth:`knn`,
        :meth:`subtrajectory_knn` and :meth:`range_query`, of a single tree
        and of a forest's shards.

        The callers differ in exactly four things: ``refine(query,
        trajectories)``, the batched exact distance that resolves deferred
        members (EDwP vs raw EDwPsub); ``normalized``, whether node bounds
        are divided by ``length(Q) + max length`` (EDwPsub is never
        length-normalized); ``full_match``, whether the distance matches
        the whole member (EDwP), which turns on Rule 2's two-sided member
        bound and the flush's upper bounds (:meth:`TopK.flush`); and the
        kind of answer heap, top-k or pinned at a radius.  Everything else
        — heap order, tie rule, deferred refinement, budget check points —
        is shared.

        ``k`` is the answer size, or a :class:`TopK` earlier searches filled:
        then deferred members stay in it for its owner to flush.  ``radius``
        pins the heap created here (:meth:`range_query`).  A pinned limit
        never moves, so a range search flushes once, at its end: it does
        not flush before a descent or at :data:`REFINE_FLUSH` deferred
        members, installs no upper bounds and ignores ``epsilon``.
        """
        answer = k if isinstance(k, TopK) else TopK(k, radius)
        if query.num_segments == 0:
            raise ValueError("query needs at least one segment")
        if stats is None:
            stats = TrajTreeStats()
        ranged = answer.radius is not None
        answer.query, answer.stats = query, stats
        answer.refine = lambda trajs: refine(query, trajs)
        answer.screen = lambda block, raws, limit, bounds, scales: (
            self._members_within(query, block, raws, limit, normalized,
                                 stats, bounds, scales, two_sided=full_match))
        answer.upper = ((lambda block, scales: self._rect_uppers(
                            query, block, normalized, scales))
                        if full_match and self.use_quick_bound and not ranged
                        else None)
        kth, flush = answer.kth, answer.flush
        tracker = as_tracker(budget)
        eps = tracker.epsilon if tracker is not None and not ranged else 0.0
        truncate_reason: Optional[str] = None
        residual = math.inf

        counter = itertools.count()
        # Heap entries carry both the (possibly normalized) bound ordering
        # the search pops by and the raw bound, which refinement
        # re-normalizes per member (a member's true length can be far below
        # the subtree's max_length, making the per-member bound tighter).
        cands: List[Tuple[float, int, _Node, float]] = []
        heapq.heappush(cands, (0.0, next(counter), self.root, 0.0))

        while cands:
            bound, _, node, raw = heapq.heappop(cands)
            if bound * (1.0 + eps) > kth():
                # min-heap order: every remaining candidate is also pruned.
                # (Strict comparison: an equal bound could still hide an
                # equal-distance trajectory that wins the id tie-break.
                # kth() without the deferred members is an upper bound on
                # the true k-th distance, so the break stays sound.  With
                # eps == 0 the multiply by an exact 1.0 is the identity,
                # so the exact path is bit-identical; with eps > 0 the
                # stop may fire early — flagged below unless the natural
                # condition held anyway.)
                stats.nodes_pruned += 1 + len(cands)
                if not bound > kth():
                    truncate_reason = "epsilon"
                    residual = bound
                break
            if tracker is not None:
                reason = tracker.exhausted()
                if reason is not None:
                    # Anytime truncation: the popped bound is the minimum
                    # over everything unexplored (min-heap), so it is the
                    # answer's residual lower bound.  Deferred refinements
                    # still drain through the final flush().
                    stats.nodes_pruned += 1 + len(cands)
                    truncate_reason = reason
                    residual = bound
                    break
            stats.nodes_visited += 1

            # A leaf, or an internal node one flush can hold, is refined
            # whole: descending would pay a quick-bound and a box-bound call
            # per level to save part of one lockstep call.  There is no
            # vantage-point step (Alg. 2 lines 8-10): the flush's upper
            # bounds bound the k-th distance as it would (DESIGN.md, "No
            # vantage-point step").
            whole = node.is_leaf or node.count() <= REFINE_FLUSH
            if whole:
                # Members are deferred, so consecutive pops (of one tree or
                # of a forest's shards) share one kernel call; deferral only
                # delays kth() updates: decisions in between are conservative.
                # Whole nodes are disjoint, so no member is deferred twice.
                block = self._block(node)
                limit = kth()
                if limit < math.inf:
                    block = block.take(self._members_within(
                        query, block, raw, limit, normalized, stats,
                        two_sided=full_match))
                answer.defer(block, raw)
                # With the heap unfilled and this search's frontier empty,
                # no k-th distance could prune anything more here: keep
                # deferring, so the next flush (a descent's, the search's
                # last or a forest owner's) holds every row and screens them
                # against each other's upper bounds (TopK.flush).
                if (not ranged
                        and sum(map(len, answer.pending)) >= REFINE_FLUSH
                        and (cands or len(answer.ans) >= answer.k)):
                    flush()
                continue

            # Alg. 2 lines 11-13: enqueue children that can still matter.
            # Flush first so the k-th distance is fresh (a pinned one is),
            # then compute all children's quick bounds and all surviving
            # children's box bounds in one batched kernel call each (the
            # answer heap does not change below, so the k-th distance is a
            # loop constant and batching is decision-identical to the
            # sequential per-child formulation).
            if not ranged:
                flush()
            children = node.children
            limit = kth()
            if self.use_quick_bound:
                stats.quick_bound_computations += len(children)
                quick_raws = self._quick_bounds_many_raw(
                    query, [child.union_rect for child in children])
            else:
                quick_raws = [0.0] * len(children)
            survivors = [
                (child, qraw)
                for child, qraw in zip(children, quick_raws)
                if self._normalize_bound(
                    query, child.max_length, qraw, normalized) <= limit
            ]
            stats.nodes_pruned += len(children) - len(survivors)
            if not survivors:
                continue
            # The bound allowance is a hard ceiling: the batched box-bound
            # call is clamped to what the budget still allows, and any
            # survivors past the allowance enqueue keyed by their quick
            # bound instead (still a valid lower bound, so the residual
            # stays sound; the tracker is exhausted at the next pop).
            allowance = len(survivors)
            if tracker is not None:
                remaining = tracker.remaining_bounds()
                if remaining is not None and remaining < allowance:
                    allowance = remaining
            stats.bound_computations += allowance
            if tracker is not None:
                tracker.charge_bounds(allowance)
            box_raws = (
                self._bounds_many_raw(
                    query, [c for c, _ in survivors[:allowance]]
                )
                if allowance else []
            )
            box_raws += [qraw for _, qraw in survivors[allowance:]]
            for (child, qraw), braw in zip(survivors, box_raws):
                # Both are lower bounds, so the larger keys the child —
                # for either distance (sound, never looser than one alone).
                child_raw = max(qraw, braw)
                lb = self._normalize_bound(
                    query, child.max_length, child_raw, normalized
                )
                if lb <= limit:
                    heapq.heappush(
                        cands, (lb, next(counter), child, child_raw)
                    )
                else:
                    stats.nodes_pruned += 1

        if answer is not k:          # created here, so drained here
            flush()
        pairs = answer.pairs()
        if tracker is None:
            return pairs
        if truncate_reason is None:
            # No truncation actually occurred (natural break or emptied
            # frontier): bit-identical to the unbudgeted answer.
            return AnytimeResult(pairs)
        if ranged:
            # A truncated range answer is a sound subset: distances are
            # exact (factor 1.0), completeness is lost (residual 0.0).
            return AnytimeResult(pairs, exact=False, reason=truncate_reason,
                                 residual_bound=0.0, bound_factor=1.0)
        return AnytimeResult(
            pairs, exact=False, reason=truncate_reason,
            residual_bound=residual,
            bound_factor=bound_factor_for(pairs, answer.k, residual),
        )

    def knn_batch(
        self,
        queries: Sequence[Trajectory],
        k: int,
    ) -> List[List[Tuple[int, float]]]:
        """:meth:`knn` for a batch of queries; one result list per query.

        Equivalent to ``[self.knn(q, k) for q in queries]``.  For
        per-query counters run :meth:`knn` directly with a ``stats``.
        """
        return [self.knn(q, k) for q in queries]

    def query_many(
        self,
        requests: Sequence[Tuple[str, Trajectory, float]],
    ) -> List[Tuple[List[Tuple[int, float]], TrajTreeStats]]:
        """Reentrant multi-query entry point (the service layer's dispatch).

        ``requests`` is a sequence of ``(kind, query, param)`` or
        ``(kind, query, param, budget)`` tuples with ``kind`` one of
        ``"knn"`` / ``"range"`` / ``"subtrajectory_knn"``, ``param`` the
        ``k`` (k-NN kinds) or radius (range), and ``budget`` an optional
        :class:`~repro.index.budget.QueryBudget` applied to that request
        (each budgeted request gets its own fresh tracker).  Returns one
        ``(results, stats)`` pair per request, in order, where
        ``results`` is exactly what the corresponding single-query method
        returns and ``stats`` its :class:`TrajTreeStats` counters.

        Duplicate requests — same kind, same parameter, bit-identical
        query points, equal budget — are computed once (singleflight):
        the duplicates share the *same* result list and stats object as
        their first occurrence, which is how the service coalesces many
        users' hot queries into one index pass per tick.  Budgets join
        the singleflight key because a truncated answer is only valid
        for requesters who accepted that budget.

        Reentrancy contract: the call never mutates tree state — each
        query gets a fresh stats object, traversal state is local, and
        the only shared writes are the idempotent lazy cache fills of
        :meth:`Trajectory.coords` and the member blocks (see
        :meth:`warm_caches`) — so concurrent calls from multiple threads
        are safe on a tree that is not being updated.
        """
        return dispatch_query_many(self, requests)

    def warm_caches(self) -> None:
        """Populate every lazy derived cache the query path reads.

        Touches each stored trajectory's coordinate/length caches and
        the :meth:`_block` of every node a query refines whole.  The fills
        are idempotent (concurrent first calls each compute an equivalent
        value and the last assignment wins), so this is an optimization, not a
        correctness requirement — but a server warming once before
        accepting traffic avoids paying first-touch conversions inside
        latency-sensitive queries.  Called by
        :class:`repro.service.server.QueryService` on index load.
        """
        for traj in self._db.values():
            traj.coords()
            traj.length  # noqa: B018 — property access populates the cache
            traj.bounding_rect()

        def walk(node: _Node, inside_whole: bool) -> None:
            whole = node.is_leaf or node.count() <= REFINE_FLUSH
            if whole and not inside_whole:
                self._block(node)
            for child in node.children:
                walk(child, inside_whole or whole)

        walk(self.root, False)

    def knn_scan(self, query: Trajectory, k: int) -> List[Tuple[int, float]]:
        """Brute-force sequential scan (the paper's baseline and the oracle
        used by the test-suite to verify exactness)."""
        dists = list(zip(
            self._db, self._exact_many(query, list(self._db.values()))))
        dists.sort(key=lambda x: (x[1], x[0]))
        return dists[:k]

    # ------------------------------------------------------------------ #
    # extensions beyond the paper's Alg. 2 (Sec. VI notes TrajTree
    # "can potentially be utilized for other trajectory operations")
    # ------------------------------------------------------------------ #

    def range_query(
        self,
        query: Trajectory,
        radius,
        stats: Optional[TrajTreeStats] = None,
        budget=None,
    ) -> List[Tuple[int, float]]:
        """All trajectories within (normalized) EDwP ``radius`` of the query.

        The best-first search of :meth:`knn` with its k-th distance pinned
        at the radius (:class:`TopK`): a subtree whose bound passes the
        radius is skipped, one a flush can hold is refined whole, a member
        is refined only if its own bound is within the radius, and every
        member refined refines in one kernel call at the end.  Returns
        ``[(traj_id, distance), ...]`` sorted ascending.  ``radius`` may be
        a pinned :class:`TopK` instead, which a forest's walk shares
        (:meth:`_best_first`).

        ``budget`` (optional) follows :meth:`knn`'s check points; on
        exhaustion the hits found come back as an anytime *subset* (every
        returned pair is a true in-radius hit with its exact distance, but
        hits under the unexplored frontier may be missing — ``exact=False``,
        ``residual_bound=0.0``, ``bound_factor=1.0``).  Epsilon does not
        apply: the radius is fixed, there is no k-th distance to relax.
        """
        shared = isinstance(radius, TopK)
        return self._best_first(
            query, radius if shared else max(len(self), 1), stats, budget,
            refine=self._exact_many, normalized=self.normalized,
            full_match=True, radius=None if shared else radius,
        )

    def range_query_scan(
        self, query: Trajectory, radius: float
    ) -> List[Tuple[int, float]]:
        """Brute-force range-query oracle."""
        ds = self._exact_many(query, list(self._db.values()))
        out = [(tid, d) for tid, d in zip(self._db, ds) if d <= radius]
        out.sort(key=lambda x: (x[1], x[0]))
        return out

    def subtrajectory_knn(
        self,
        query: Trajectory,
        k: int,
        stats: Optional[TrajTreeStats] = None,
        budget=None,
    ) -> List[Tuple[int, float]]:
        """k trajectories containing the sub-trajectory most similar to
        ``query`` under ``EDwPsub`` (Eq. 6).

        The box bound and the quick union-rectangle pre-filter rely only
        on the query being fully consumed (see
        :func:`~repro.index.tboxseq.edwp_sub_box_many` and
        :meth:`_quick_bounds_many_raw`), so both underestimate
        ``EDwPsub(Q, T)`` as they do ``EDwP(Q, T)`` and the best-first
        search carries over.
        Distances are raw ``EDwPsub`` values (length normalization is not
        meaningful when only part of the target is matched); leaf
        refinement batches them through
        :func:`repro.core.edwp_sub.edwp_sub_many`, and child bounds run
        through the same batched box bound as :meth:`knn`.  ``stats``
        (optional) accumulates the same counters as :meth:`knn`;
        ``budget`` (optional) follows :meth:`knn`'s anytime contract.
        """
        return self._best_first(
            query, k, stats, budget,
            refine=self._exact_sub_many, normalized=False,
            full_match=False,
        )

    def subtrajectory_knn_scan(
        self, query: Trajectory, k: int
    ) -> List[Tuple[int, float]]:
        """Brute-force ``EDwPsub`` oracle, batched through
        :func:`repro.core.edwp_sub.edwp_sub_many`."""
        dists = list(zip(
            self._db, self._exact_sub_many(query, list(self._db.values()))))
        dists.sort(key=lambda x: (x[1], x[0]))
        return dists[:k]

    # ------------------------------------------------------------------ #
    # updates (Sec. IV-F)
    # ------------------------------------------------------------------ #

    def insert(self, traj: Trajectory, traj_id: Optional[int] = None) -> int:
        """Insert one trajectory without rebuilding.

        Descends along the children whose tBoxSeq volume grows the least
        (the bulk-load criterion), expanding every summary on the path.
        Existing pivots are reused (Sec. IV-F).
        Returns the assigned id.
        """
        if traj.num_segments == 0:
            raise ValueError("trajectory needs at least one segment")
        if traj_id is None:
            traj_id = (max(self._db) + 1) if self._db else 0
        if traj_id in self._db:
            raise ValueError(f"trajectory id {traj_id} already indexed")
        self._db[traj_id] = traj

        node = self.root
        grown = node.boxseq.with_trajectory(traj, max_boxes=self.max_boxes)
        while True:
            node.boxseq = grown
            # The boxes just grew; the quick bound's union rectangle must
            # grow with them or it would overestimate the box distance.
            node.refresh_union_rect()
            node.max_length = max(node.max_length, traj.length)
            node.subtree_ids.append(traj_id)
            node.block = None
            if node.is_leaf:
                break
            g, grown = least_growth(
                [c.boxseq for c in node.children], traj, self.max_boxes
            )
            node = node.children[g]
        self._updates_since_build += 1
        return traj_id

    def delete(self, traj_id: int) -> None:
        """Delete a trajectory: its membership is removed along the path;
        tBoxSeqs remain unchanged (Sec. IV-F)."""
        if traj_id not in self._db:
            raise KeyError(f"trajectory id {traj_id} not indexed")
        del self._db[traj_id]
        self._delete_from(self.root, traj_id)
        self._updates_since_build += 1

    def _delete_from(self, node: _Node, traj_id: int) -> bool:
        if traj_id not in node.subtree_ids:
            return False
        node.subtree_ids.remove(traj_id)
        node.block = None
        for child in node.children:
            if self._delete_from(child, traj_id):
                break
        return True

    def needs_rebuild(self) -> bool:
        """Staleness heuristic: too many updates since the last build make
        the tBoxSeqs loose (Sec. IV-F)."""
        return self._updates_since_build > self.rebuild_ratio * max(1, len(self._db))

    def rebuild(self) -> None:
        """Bulk-rebuild the tree over the current database."""
        self.build_stats = TrajTreeStats()
        self.root = self._build(list(self._db), random.Random(self.seed))
        self._updates_since_build = 0
