"""Sharded TrajTree forest — many trees, one exact query surface.

A single :class:`~repro.index.trajtree.TrajTree` is built in one piece
and pickled in one piece; past ~10^4 trajectories both become the
bottleneck.  :class:`TrajForest` partitions the dataset
into shards, builds one independent TrajTree per shard — optionally in
parallel worker processes reading a memory-mapped
:class:`~repro.store.ColumnarStore` — and answers the same queries over
all of them: top-k queries walk the shards as *one* filter-and-refine
search against a shared answer heap, range queries fan out and concatenate.

Exactness is free: the shards partition the database, every shard search
prunes only what cannot beat the shared k-th distance, and the heap
keeps the global best under the library-wide ``(distance, traj_id)``
ascending tie order — so forest results are bit-identical to a single
tree over the whole dataset for any shard count and any shard order
(``tests/test_forest_oracle.py`` pins shard counts 1/2/4/7 against the
single-tree oracle).  Shard *assignment* therefore only affects balance,
never answers; the two documented schemes are round-robin by dataset
position (default) and a multiplicative hash of the trajectory id — see
DESIGN.md ("Columnar store and sharded forest").

The forest conforms to :class:`~repro.index.protocol.QueryIndex`, so
``QueryService.set_tree`` serves one exactly like a single tree.  Per-query
:class:`~repro.index.trajtree.TrajTreeStats` count each shard's work once:
for range queries the *elementwise sum* of independent shard searches, for
top-k queries at most that, since later shards prune with what earlier
ones found (asserted in ``tests/test_trajtree_stats.py``).

Fault tolerance (DESIGN.md, "Fault model and degraded serving"): a
forest can serve **degraded** — assembled over the healthy shards of a
partially damaged snapshot (``load_forest(on_shard_error="skip")``), with
the failures recorded on :attr:`TrajForest.missing_shards` and reported
by :meth:`TrajForest.shard_census`; every query over a degraded forest is
exact over the shards it holds (the shard walk does not care how many
shards exist).  Parallel builds survive worker-process deaths:
:meth:`TrajForest.from_store` rebuilds crashed shards serially in-process
— bit-identical results, since each shard's build seed derives from its
index, not from which process built it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.trajectory import Trajectory, assign_ids
from ..store import ColumnarStore
from ..testing import faults
from .budget import AnytimeResult, as_tracker, bound_factor_for
from .trajtree import TopK, TrajTree, TrajTreeStats, dispatch_query_many

__all__ = ["TrajForest", "assign_shards", "SHARD_SCHEMES"]

PathLike = Union[str, Path]

#: Documented shard-assignment schemes (DESIGN.md, "Shard assignment"):
#: ``round_robin`` — dataset position modulo shard count (default;
#: perfectly balanced, never empty); ``hash`` — Knuth multiplicative hash
#: of the trajectory id, stable under reordering of the dataset.
SHARD_SCHEMES = ("round_robin", "hash")


def _hash_shard(traj_id: int, num_shards: int) -> int:
    """Knuth multiplicative hash of the id, folded to a shard index."""
    return ((traj_id * 2654435761) & 0xFFFFFFFF) % num_shards


def assign_shards(
    ids: Sequence[int], num_shards: int, scheme: str = "round_robin"
) -> List[List[int]]:
    """Partition dataset *positions* into shard groups.

    Returns one list of positions (indices into the dataset order) per
    shard.  ``num_shards`` is clamped to the dataset size; with the
    ``hash`` scheme shards that receive no trajectory are dropped (a
    TrajTree cannot index an empty database), so the returned list may be
    shorter than requested — every group is non-empty.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    if scheme not in SHARD_SCHEMES:
        raise ValueError(
            f"unknown shard scheme {scheme!r}; expected one of {SHARD_SCHEMES}"
        )
    n = len(ids)
    num_shards = min(num_shards, n) if n else num_shards
    groups: List[List[int]] = [[] for _ in range(num_shards)]
    for pos in range(n):
        if scheme == "round_robin":
            shard = pos % num_shards
        else:
            shard = _hash_shard(int(ids[pos]), num_shards)
        groups[shard].append(pos)
    return [g for g in groups if g]


def _build_shard_from_store(
    store_path: str, shard: int, positions: List[int], tree_kwargs: dict
) -> TrajTree:
    """Worker-process entry point: mmap the store, build one shard tree.

    Each worker opens its own read-only map of ``points.npy`` (page-cache
    shared across processes), materializes only its shard's trajectory
    views, and ships the finished tree back through pickle (store-backed
    views pickle as plain arrays, so the returned tree is self-contained).

    Fault point ``forest.build_shard:<i>`` — an ``exit`` rule here kills
    this worker mid-build (only in a forked child; see
    :mod:`repro.testing.faults`), which is how the chaos gate exercises
    the serial-rebuild recovery of :meth:`TrajForest.from_store`.
    """
    faults.fire(f"forest.build_shard:{shard}")
    store = ColumnarStore.load(store_path, mmap=True)
    trajs = [store.trajectory(pos) for pos in positions]
    return TrajTree(trajs, **tree_kwargs)


def _shard_seed(seed: int, shard: int) -> int:
    """Per-shard build seed: decorrelates pivot draws across shards."""
    return seed + 1_000_003 * shard


class TrajForest:
    """A forest of independent TrajTrees over a sharded dataset.

    Parameters
    ----------
    trajectories:
        The database to shard and index.  Global trajectory ids follow
        the single-tree rule (provided ids when all present and unique,
        positional otherwise) so forest answers share the id space of a
        ``TrajTree`` over the same dataset.
    num_shards:
        Requested shard count (clamped to the dataset size; see
        :func:`assign_shards`).
    scheme:
        Shard-assignment scheme, one of :data:`SHARD_SCHEMES`.
    seed:
        Base build seed; shard ``i`` builds with a seed derived from it
        (:func:`_shard_seed`) so shard trees make decorrelated pivot
        draws.
    **tree_kwargs:
        Forwarded verbatim to every shard's :class:`TrajTree` constructor
        (``theta``, ``min_node_size``, ``normalized``, ``backend``, ...).
    """

    def __init__(
        self,
        trajectories: Sequence[Trajectory],
        num_shards: int = 4,
        scheme: str = "round_robin",
        seed: int = 0,
        **tree_kwargs,
    ):
        trajectories = list(trajectories)
        if not trajectories:
            raise ValueError("cannot index an empty database")
        # Trajectories whose own id differs from their global one are
        # rewrapped around the same data array (zero-copy) so every shard
        # tree keys on global ids.
        ids = assign_ids(trajectories)
        globalized = [
            t if t.traj_id == tid
            else Trajectory(t.data, traj_id=tid, label=t.label,
                            validate=False)
            for tid, t in zip(ids, trajectories)
        ]
        groups = assign_shards(ids, num_shards, scheme)
        shards = [
            TrajTree(
                [globalized[pos] for pos in group],
                seed=_shard_seed(seed, i),
                **tree_kwargs,
            )
            for i, group in enumerate(groups)
        ]
        self._init_from_shards(shards, scheme, seed, tree_kwargs)

    # ------------------------------------------------------------------ #
    # alternate constructors
    # ------------------------------------------------------------------ #

    def _init_from_shards(
        self,
        shards: List[TrajTree],
        scheme: str,
        seed: int,
        tree_kwargs: dict,
    ) -> None:
        if not shards:
            raise ValueError("a forest needs at least one shard")
        normalized = {tree.normalized for tree in shards}
        if len(normalized) != 1:
            raise ValueError(
                "every shard must share one normalization setting"
            )
        self.shards = shards
        self.scheme = scheme
        self.seed = seed
        self.tree_kwargs = dict(tree_kwargs)
        self.normalized = normalized.pop()
        # Health bookkeeping (DESIGN.md, "Fault model and degraded
        # serving").  A forest assembled here is healthy; degraded loads
        # (load_forest(on_shard_error="skip")) overwrite these, recording
        # the ShardLoadError per damaged shard and the snapshot directory
        # to retry loading from.  rebuilt_shards lists shards a parallel
        # from_store had to rebuild serially after a worker crash.
        self.total_shards = len(shards)
        self.missing_shards: List[Exception] = []
        self.snapshot_path: Optional[str] = None
        self.rebuilt_shards: List[int] = []
        self._shard_of: Dict[int, int] = {}
        for i, tree in enumerate(shards):
            for tid in tree.ids():
                if tid in self._shard_of:
                    raise ValueError(
                        f"trajectory id {tid} appears in more than one shard"
                    )
                self._shard_of[tid] = i

    @classmethod
    def from_shards(
        cls,
        shards: Sequence[TrajTree],
        scheme: str = "round_robin",
        seed: int = 0,
    ) -> "TrajForest":
        """Assemble a forest from already-built shard trees.

        Used by snapshot loading (:func:`repro.index.persistence.
        load_forest`); shard id spaces must be disjoint.
        """
        forest = cls.__new__(cls)
        forest._init_from_shards(list(shards), scheme, seed, {})
        return forest

    @classmethod
    def from_store(
        cls,
        store: Union[ColumnarStore, PathLike],
        num_shards: int = 4,
        scheme: str = "round_robin",
        seed: int = 0,
        workers: Optional[int] = None,
        **tree_kwargs,
    ) -> "TrajForest":
        """Build a forest straight from a columnar store.

        ``store`` may be a loaded :class:`~repro.store.ColumnarStore` or
        a store directory path.  With ``workers > 1`` *and* a path, shard
        trees build in that many worker processes, each memory-mapping
        the store independently (`np.load(..., mmap_mode="r")`) — the
        parent never materializes the whole dataset, and builds scale
        with cores.  Otherwise shards build serially in-process from
        zero-copy store views.  Both paths produce identical forests
        given identical parameters (worker fan-out does not change any
        build decision — each shard's seed is derived from its index).
        """
        store_path: Optional[Path] = None
        if not isinstance(store, ColumnarStore):
            store_path = Path(store)
            store = ColumnarStore.load(store_path, mmap=True)
        ids = [int(t) for t in store.ids]
        groups = assign_shards(ids, num_shards, scheme)

        def build_serial(i: int) -> TrajTree:
            return TrajTree(
                [store.trajectory(pos) for pos in groups[i]],
                seed=_shard_seed(seed, i),
                **tree_kwargs,
            )

        rebuilt: List[int] = []
        if workers is not None and workers > 1 and store_path is not None \
                and len(groups) > 1:
            shards: List[Optional[TrajTree]] = [None] * len(groups)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    i: pool.submit(
                        _build_shard_from_store, str(store_path), i,
                        group, dict(tree_kwargs, seed=_shard_seed(seed, i)),
                    )
                    for i, group in enumerate(groups)
                }
                for i, future in futures.items():
                    try:
                        shards[i] = future.result()
                    except BrokenProcessPool:
                        # A worker died (OOM-killed, segfault, injected
                        # kill): the pool is unusable, every unfinished
                        # shard lands here.  Rebuild those serially below
                        # — bit-identical, the shard seed derives from the
                        # shard index, not from which process builds it.
                        rebuilt.append(i)
            for i in rebuilt:
                shards[i] = build_serial(i)
        else:
            shards = [build_serial(i) for i in range(len(groups))]
        forest = cls.__new__(cls)
        forest._init_from_shards(shards, scheme, seed, dict(tree_kwargs))
        forest.rebuilt_shards = rebuilt
        return forest

    # ------------------------------------------------------------------ #
    # container surface (mirrors TrajTree's)
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def degraded(self) -> bool:
        """True when the forest serves fewer shards than its snapshot
        holds (some failed to load; see :meth:`shard_census`)."""
        return bool(self.missing_shards)

    def shard_census(self) -> Dict[str, object]:
        """The health report of this forest: total vs healthy shard
        counts plus one record per missing shard (index, filename, and
        the error that disqualified it) — the shape the service's
        ``health`` endpoint and degraded query metadata serve."""
        return {
            "total": self.total_shards,
            "healthy": len(self.shards),
            "missing": [
                {
                    "shard": getattr(err, "shard", -1),
                    "file": getattr(err, "filename", "?"),
                    "error": str(err),
                }
                for err in self.missing_shards
            ],
        }

    def __len__(self) -> int:
        return sum(len(tree) for tree in self.shards)

    def __contains__(self, traj_id: int) -> bool:
        return traj_id in self._shard_of

    def shard_of(self, traj_id: int) -> int:
        """The shard index holding this trajectory id."""
        return self._shard_of[traj_id]

    def get(self, traj_id: int) -> Trajectory:
        """The stored trajectory with this id."""
        return self.shards[self._shard_of[traj_id]].get(traj_id)

    def ids(self) -> List[int]:
        """All indexed trajectory ids, ascending."""
        return sorted(self._shard_of)

    @property
    def build_stats(self) -> TrajTreeStats:
        """Elementwise sum of the per-shard build counters."""
        return TrajTreeStats(**{
            f.name: sum(getattr(t.build_stats, f.name) for t in self.shards)
            for f in fields(TrajTreeStats)
        })

    def storage_summary(self) -> Dict[str, int]:
        """Aggregated per-shard storage counts (elementwise sum)."""
        total: Dict[str, int] = {}
        for tree in self.shards:
            for key, value in tree.storage_summary().items():
                total[key] = total.get(key, 0) + value
        return total

    def warm_caches(self) -> None:
        """Warm every shard's lazy caches (see ``TrajTree.warm_caches``)."""
        for tree in self.shards:
            tree.warm_caches()

    # ------------------------------------------------------------------ #
    # queries: one shared top-k search, or fan out and concatenate
    # ------------------------------------------------------------------ #

    def _fanout(
        self,
        method: str,
        query: Trajectory,
        param,
        stats: Optional[TrajTreeStats],
        budget=None,
    ) -> List[List[Tuple[int, float]]]:
        """Run one query method on every shard, in shard-index order,
        all counting into the one ``stats``.

        With a ``budget``, the fan-out splits one ticking tracker into
        per-shard children (:meth:`~repro.index.budget.BudgetTracker.
        split`): all shards share the *absolute* wall-clock deadline —
        a slow early shard genuinely eats the later shards' time — while
        the bound allowance divides evenly.  :meth:`_merge_anytime` reads
        per-shard exactness back off the returned ``AnytimeResult`` objects.

        Fault point ``forest.query_shard:<i>`` fires before shard ``i``
        queries; a ``delay`` rule there stalls the fan-out mid-flight,
        which is how the tests force deterministic per-shard deadline
        truncation.
        """
        tracker = as_tracker(budget)
        trackers = (
            [None] * len(self.shards) if tracker is None
            else tracker.split(len(self.shards))
        )
        per_shard: List[List[Tuple[int, float]]] = []
        for i, tree in enumerate(self.shards):
            faults.fire(f"forest.query_shard:{i}")
            per_shard.append(
                getattr(tree, method)(query, param, stats=stats,
                                      budget=trackers[i])
            )
        return per_shard

    @staticmethod
    def _merge_anytime(
        merged: List[Tuple[int, float]],
        per_shard: List[List[Tuple[int, float]]],
        k: Optional[int],
    ) -> AnytimeResult:
        """Fold per-shard anytime metadata into the merged answer.

        The merged answer is exact iff every shard answered exactly.  The
        global residual is the smallest residual among truncated shards
        (exact shards were fully enumerated — nothing of theirs is
        unexplored), and the factor follows from it exactly as in the
        single-tree case.  ``k=None`` (range queries) reports the subset
        semantics: exact distances, possibly missing hits.
        """
        shard_exact = [bool(getattr(r, "exact", True)) for r in per_shard]
        if all(shard_exact):
            return AnytimeResult(merged, shard_exact=shard_exact)
        residual = min(
            getattr(r, "residual_bound", math.inf)
            for r, ok in zip(per_shard, shard_exact) if not ok
        )
        reason = next(
            getattr(r, "reason", None)
            for r, ok in zip(per_shard, shard_exact) if not ok
        )
        factor = (1.0 if k is None
                  else bound_factor_for(merged, k, residual))
        return AnytimeResult(merged, exact=False, reason=reason,
                             residual_bound=residual, bound_factor=factor,
                             shard_exact=shard_exact)

    def _topk(
        self,
        method: str,
        query: Trajectory,
        k: int,
        stats: Optional[TrajTreeStats],
        budget,
    ) -> List[Tuple[int, float]]:
        """One filter-and-refine search over all shards — the shared path
        of :meth:`knn` and :meth:`subtrajectory_knn`.

        :meth:`_fanout` walks the shards against a single
        :class:`~repro.index.trajtree.TopK` passed where ``k`` goes: shard
        ``i+1`` prunes with the k-th distance shards ``0..i`` established,
        members deferred by different shards refine in one batched call, and
        the heap left by the final flush (owned here) *is* the merged answer.
        """
        answer = TopK(int(k))
        per_shard = self._fanout(method, query, answer, stats, budget)
        answer.flush()
        merged = answer.pairs()
        if budget is None:
            return merged
        return self._merge_anytime(merged, per_shard, answer.k)

    def knn(
        self,
        query: Trajectory,
        k: int,
        stats: Optional[TrajTreeStats] = None,
        budget=None,
    ) -> List[Tuple[int, float]]:
        """Exact k nearest neighbours across all shards.

        Identical to ``TrajTree.knn`` over the unsharded dataset: the
        shards are searched against one answer heap (:meth:`_topk`) under
        the same ``(distance, traj_id)`` tie order.  ``stats`` (optional)
        accumulates every shard's counters.  ``budget`` (optional) splits
        per shard (:meth:`_fanout`); the ``AnytimeResult`` returned then
        carries per-shard exactness on ``shard_exact``.
        """
        return self._topk("knn", query, k, stats, budget)

    def range_query(
        self,
        query: Trajectory,
        radius: float,
        stats: Optional[TrajTreeStats] = None,
        budget=None,
    ) -> List[Tuple[int, float]]:
        """All trajectories within ``radius``, merged across shards."""
        per_shard = self._fanout("range_query", query, float(radius), stats,
                                 budget)
        out = [hit for shard in per_shard for hit in shard]
        out.sort(key=lambda r: (r[1], r[0]))
        if budget is None:
            return out
        return self._merge_anytime(out, per_shard, None)

    def subtrajectory_knn(
        self,
        query: Trajectory,
        k: int,
        stats: Optional[TrajTreeStats] = None,
        budget=None,
    ) -> List[Tuple[int, float]]:
        """Best-k sub-trajectory matches across all shards (raw EDwPsub)."""
        return self._topk("subtrajectory_knn", query, k, stats, budget)

    def query_many(
        self,
        requests: Sequence[Tuple[str, Trajectory, float]],
    ) -> List[Tuple[List[Tuple[int, float]], TrajTreeStats]]:
        """Reentrant multi-query dispatch — the forest half of the
        :class:`~repro.index.protocol.QueryIndex` contract.

        Same semantics as :meth:`TrajTree.query_many`: one
        ``(results, stats)`` pair per request in order, duplicates
        (same kind, parameter, bit-identical query points, and equal
        optional budget) singleflighted to the *same* result/stats
        objects.  Each request's stats are the per-shard sums.
        """
        return dispatch_query_many(self, requests)

    def __repr__(self) -> str:
        return (
            f"TrajForest(shards={self.num_shards}, trajectories={len(self)}, "
            f"scheme={self.scheme!r})"
        )
