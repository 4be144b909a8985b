"""The query service: warm indexes behind a coalescing asyncio front-end.

:class:`QueryService` owns one loaded index — anything conforming to the
:class:`~repro.index.protocol.QueryIndex` protocol: a single
:class:`~repro.index.trajtree.TrajTree` or a sharded
:class:`~repro.index.forest.TrajForest` — and answers kNN / range /
subtrajectory-kNN requests through three layers:

1. an LRU **result cache** keyed on ``(snapshot id, query digest)`` —
   loading a new index bumps the snapshot id, which invalidates every
   cached entry at once;
2. a **coalescing batcher** that collects concurrent cache misses for a
   short window and dispatches them as *one*
   :meth:`~repro.index.trajtree.TrajTree.query_many` call on an executor
   thread (identical in-flight queries are singleflighted — computed once,
   delivered to every waiter);
3. per-request **delivery policy**: a deadline (typed
   :class:`~repro.service.protocol.RequestTimeout` on expiry),
   cancellation tolerance (a dropped request never loses its batch-mates'
   results) and bounded-queue backpressure
   (:class:`~repro.service.protocol.ServiceOverloaded`).

Results are bit-identical to the equivalent serial library calls: the
dispatch path runs the very same ``knn`` / ``range_query`` /
``subtrajectory_knn`` code, queries are read-only on the tree, and
batches are serialized — ``tests/test_service_concurrency.py`` asserts
this against the oracle.  Observability is the stats schema of
:mod:`repro.service.stats`, served by the ``/stats`` endpoint
(``{"op": "stats"}`` on the wire).

:func:`serve` exposes a service over TCP with the newline-delimited JSON
protocol of :mod:`repro.service.protocol`; ``python -m repro serve`` is
the CLI entry point and :class:`repro.service.client.ServiceClient` the
matching client.

**Fault tolerance** (DESIGN.md, "Fault model and degraded serving"): the
service can hold a *degraded* forest (some shards failed to load) and
keep answering over the healthy shards — every query's meta then carries
``degraded: true`` plus the missing shard ids, the ``health`` op reports
the shard census, and :meth:`QueryService.start_reload_retry` runs a
background loop that periodically re-loads the snapshot with capped
exponential backoff and atomically swaps it in (via the same
:meth:`QueryService.set_tree` guard the admin ``reload`` op uses) once
the reload is strictly healthier than what is being served.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..index.budget import QueryBudget, combine_budgets
from ..index.protocol import QueryIndex, ensure_query_index
from ..index.trajtree import TrajTreeStats
from ..testing import faults
from .admission import AdmissionController, DegradationPolicy
from .batcher import CoalescingBatcher
from .breaker import CircuitBreaker
from .cache import LRUCache
from .protocol import (
    InvalidRequest,
    QueryRequest,
    QueryResponse,
    RequestTimeout,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
    decode_request,
    encode_response,
    query_digest,
    request_from_obj,
)
from .retry import Backoff
from .stats import ServiceStats, tree_stats_to_dict

__all__ = ["ServiceConfig", "QueryService", "serve"]

_ZERO_TREE_STATS = tree_stats_to_dict(TrajTreeStats())


@dataclass
class ServiceConfig:
    """Tunables of one :class:`QueryService` (DESIGN.md, "Query service").

    ``window=0.0`` with ``max_batch=1`` and ``cache_capacity=0`` is the
    *naive serial dispatch* configuration the throughput benchmark
    compares against.
    """

    window: float = 0.002          # coalescing window, seconds
    max_batch: int = 64            # dispatch as soon as this many wait
    max_pending: int = 256         # bounded queue: shed above this
    cache_capacity: int = 1024     # LRU entries; 0 disables caching
    default_timeout: Optional[float] = 30.0   # seconds; None = no deadline

    # -- overload control (DESIGN.md, "Overload control and anytime
    #    queries").  Defaults are deliberately generous: light workloads
    #    never hit admission limits, the breaker needs a sustained 50%
    #    dispatch-failure rate to trip, and degradation is off until an
    #    SLO is configured. --
    max_inflight: int = 64         # total admission tokens
    reserved_control: int = 2      # tokens only control ops may take
    admission_max_waiting: int = 512   # per-class wait-queue bound
    breaker_window: int = 64       # dispatch outcomes in the rate window
    breaker_threshold: float = 0.5     # failure rate that trips the breaker
    breaker_min_samples: int = 16  # outcomes needed before a trip
    breaker_cooldown: float = 0.5  # open duration before half-open, seconds
    breaker_probes: int = 2        # half-open successes needed to close
    slo_ms: Optional[float] = None     # latency SLO; None disables degradation
    degradation_floor: Optional[QueryBudget] = None   # budget at full pressure


@dataclass
class _CachedResult:
    """Cache payload: the results plus the stats of the computation that
    produced them (kept so introspection can show what the hit saved)."""

    results: List[Tuple[int, float]]
    tree_stats: TrajTreeStats


class QueryService:
    """One warm index plus the coalescing/caching/backpressure front-end.

    All coordination state (cache, stats, batcher bookkeeping) is touched
    only from the event loop thread; the tree itself is read-only during
    queries and pre-warmed (:meth:`TrajTree.warm_caches`) so the executor
    thread never races a lazy cache fill.
    """

    def __init__(self, tree: QueryIndex, config: Optional[ServiceConfig] = None,
                 warm: bool = True,
                 loader: Optional[Callable[[], QueryIndex]] = None):
        ensure_query_index(tree)
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self.cache = LRUCache(self.config.cache_capacity)
        self.snapshot_id = 0
        self._tree = tree
        if warm:
            tree.warm_caches()
        self._batcher = CoalescingBatcher(
            dispatch=lambda requests: self._execute_batch(requests),
            window=self.config.window,
            max_batch=self.config.max_batch,
            max_pending=self.config.max_pending,
            on_batch=self.stats.record_batch,
        )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            reserved_control=self.config.reserved_control,
            max_waiting=self.config.admission_max_waiting,
        )
        self.breaker = CircuitBreaker(
            window=self.config.breaker_window,
            threshold=self.config.breaker_threshold,
            min_samples=self.config.breaker_min_samples,
            cooldown=self.config.breaker_cooldown,
            probes=self.config.breaker_probes,
        )
        floor = self.config.degradation_floor
        if floor is None and self.config.slo_ms is not None:
            # Sensible default: at full pressure, cap each query at the
            # SLO itself and accept a 1.5x-approximate answer.
            floor = QueryBudget(
                deadline=self.config.slo_ms / 1000.0, epsilon=0.5
            )
        self.degradation = DegradationPolicy(
            slo_ms=self.config.slo_ms, floor=floor
        )
        self._closed = False
        # fault tolerance: reload a fresh snapshot (admin op + background
        # retry) through `loader`, a zero-argument callable returning a
        # new QueryIndex — typically functools.partial(load_forest, path,
        # on_shard_error="skip").  Runs on an executor thread.
        self._loader = loader
        self._reload_lock = asyncio.Lock()
        self._reload_task: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------ #
    # index management
    # ------------------------------------------------------------------ #

    @property
    def tree(self) -> QueryIndex:
        """The currently served index (a single tree or a forest)."""
        return self._tree

    def set_tree(self, tree: QueryIndex, warm: bool = True) -> int:
        """Swap in a new index snapshot.

        Accepts any :class:`~repro.index.protocol.QueryIndex` — a single
        :class:`~repro.index.trajtree.TrajTree` or a
        :class:`~repro.index.forest.TrajForest` — and raises ``TypeError``
        naming the missing attributes otherwise.  Bumps the snapshot id —
        the cache keys on it, so every result computed on the old index
        becomes unreachable — and drops the dead entries so they stop
        occupying capacity.  Returns the new id.
        """
        ensure_query_index(tree)
        if warm:
            tree.warm_caches()
        self._tree = tree
        self.snapshot_id += 1
        self.cache.clear()
        return self.snapshot_id

    # ------------------------------------------------------------------ #
    # degraded state, health and reload
    # ------------------------------------------------------------------ #

    @property
    def degraded(self) -> bool:
        """Whether the served index is missing shards (a forest loaded
        with ``on_shard_error="skip"``); a single tree is never degraded."""
        return bool(getattr(self._tree, "degraded", False))

    def shard_census(self) -> Dict[str, Any]:
        """The served index's shard census (``{"total", "healthy",
        "missing": [...]}``); a single tree counts as one healthy shard."""
        census = getattr(self._tree, "shard_census", None)
        if callable(census):
            return census()
        return {"total": 1, "healthy": 1, "missing": []}

    def health_dict(self) -> Dict[str, Any]:
        """The ``health`` op payload: readiness, degraded state and the
        shard census."""
        if self._closed:
            status = "draining"
        elif self.degraded:
            status = "degraded"
        else:
            status = "ready"
        return {
            "status": status,
            "ready": not self._closed,
            "degraded": self.degraded,
            "snapshot_id": self.snapshot_id,
            "shards": self.shard_census(),
            "reloads": self.stats.reloads,
        }

    async def reload(self) -> Dict[str, Any]:
        """Re-run the configured loader and atomically swap the result in.

        The swap goes through :meth:`set_tree`, so it inherits the same
        guarantees as any snapshot swap: the snapshot id bumps (all cached
        results become unreachable) and in-flight batches finish on
        whichever tree they started on.  A failed load keeps the current
        index serving and raises a typed :class:`ServiceError`.
        """
        if self._loader is None:
            raise ServiceError(
                "no snapshot loader configured; reload is unavailable"
            )
        async with self._reload_lock:
            loop = asyncio.get_running_loop()
            try:
                tree = await loop.run_in_executor(None, self._loader)
            except Exception as exc:
                self.stats.record_error("reload")
                raise ServiceError(
                    f"reload failed, keeping the current index: {exc}"
                ) from exc
            snapshot = self.set_tree(tree)
            self.stats.record_reload()
            return {
                "snapshot_id": snapshot,
                "degraded": self.degraded,
                "shards": self.shard_census(),
            }

    def start_reload_retry(self, backoff: Optional[Backoff] = None
                           ) -> asyncio.Task:
        """Start the background degraded-recovery loop (idempotent).

        While the service is degraded, the loop sleeps the backoff delay,
        re-runs the loader, and swaps the result in *only* when it is
        strictly healthier than what is currently served (progress resets
        the backoff).  The loop ends on its own once the census is whole,
        and is cancelled by :meth:`aclose`.
        """
        if self._loader is None:
            raise ServiceError(
                "no snapshot loader configured; reload retry is unavailable"
            )
        if self._reload_task is None or self._reload_task.done():
            self._reload_task = asyncio.get_running_loop().create_task(
                self._reload_retry_loop(backoff or Backoff())
            )
        return self._reload_task

    async def _reload_retry_loop(self, backoff: Backoff) -> None:
        while self.degraded and not self._closed:
            await asyncio.sleep(backoff.next_delay())
            if self._closed:
                return
            async with self._reload_lock:
                healthy_now = self.shard_census()["healthy"]
                loop = asyncio.get_running_loop()
                try:
                    tree = await loop.run_in_executor(None, self._loader)
                except Exception:
                    continue          # snapshot still damaged; back off more
                census = getattr(tree, "shard_census", None)
                healthy_new = (census()["healthy"] if callable(census)
                               else 1)
                if healthy_new > healthy_now:
                    self.set_tree(tree)
                    self.stats.record_reload()
                    backoff.reset()

    # ------------------------------------------------------------------ #
    # the dispatch path
    # ------------------------------------------------------------------ #

    def _execute_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[Tuple[List[Tuple[int, float]], TrajTreeStats]]:
        """One coalesced tick: the batch's distinct queries through one
        :meth:`TrajTree.query_many` call (runs on an executor thread; must
        not touch service bookkeeping — that happens on the loop).

        The degradation floor is read once per batch, so every request in
        the tick sees the same tightening — a request's effective budget
        is ``combine_budgets(request.budget, floor)`` and digest-keyed
        singleflight stays correct within the batch.
        """
        faults.fire("service.dispatch")
        floor = self.degradation.current_budget()
        batch = []
        for r in requests:
            budget = combine_budgets(r.budget, floor)
            if budget is None:
                batch.append((r.kind, r.query, r.param))
            else:
                batch.append((r.kind, r.query, r.param, budget))
        return self._tree.query_many(batch)

    async def _admitted_submit(self, digest: str, request: QueryRequest):
        """Hold a ``query`` admission token across the batcher wait."""
        async with self.admission.admit("query"):
            return await self._batcher.submit(digest, request)

    async def submit(self, request: QueryRequest) -> QueryResponse:
        """Answer one query through cache → batcher → tree.

        Raises the typed :class:`~repro.service.protocol.ServiceError`
        family: ``InvalidRequest``, ``ServiceOverloaded``,
        ``ServiceUnavailable`` (breaker open), ``RequestTimeout``,
        ``ServiceClosed``.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            request = request.validated()
        except ServiceError as exc:
            self.stats.record_error(exc.code)
            raise
        self.stats.record_submitted(request.kind)
        if self._closed:
            self.stats.record_error(ServiceClosed.code)
            raise ServiceClosed("service is shutting down")
        try:
            self.breaker.check()
        except ServiceUnavailable as exc:
            self.stats.record_error(exc.code)
            raise

        digest = query_digest(request)
        snapshot = self.snapshot_id
        key = (snapshot, digest)

        cached = self.cache.get(key)
        if cached is not None:
            latency_ms = (loop.time() - start) * 1000.0
            self.stats.record_completed(latency_ms, cache_hit=True,
                                        computed=False, batch_size=0)
            return QueryResponse(
                results=list(cached.results),
                meta=self._meta(request, latency_ms, snapshot,
                                cache_hit=True, computed=False,
                                batch_size=0, distinct=0,
                                tree_stats=_ZERO_TREE_STATS),
            )

        timeout = (request.timeout if request.timeout is not None
                   else self.config.default_timeout)
        try:
            outcome = await asyncio.wait_for(
                self._admitted_submit(digest, request), timeout
            )
        except asyncio.TimeoutError:
            self.breaker.record_failure()
            self.stats.record_error(RequestTimeout.code)
            raise RequestTimeout(
                f"query missed its {timeout:g}s deadline"
            ) from None
        except (ServiceOverloaded, ServiceClosed) as exc:
            # Shed / draining: says nothing about backend health, so the
            # breaker does not count it.
            self.stats.record_error(exc.code)
            raise
        except ServiceError as exc:
            self.breaker.record_failure()
            self.stats.record_error(exc.code)
            raise
        except Exception as exc:
            # Unexpected dispatch failure (tree bug, injected fault):
            # wrap as a typed error and count it against the breaker.
            self.breaker.record_failure()
            self.stats.record_error("internal")
            raise ServiceError(f"dispatch failed: {exc}") from exc
        self.breaker.record_success()

        results, tree_stats = outcome.value
        exact = bool(getattr(results, "exact", True))
        if outcome.primary:
            self.stats.record_tree_stats(tree_stats)
            if exact and self.snapshot_id == snapshot:
                # Guard against caching across a set_tree() that raced the
                # dispatch: a result computed on the new tree must not be
                # filed under the old snapshot's key (or vice versa).
                # Truncated (inexact) answers are never cached — a retry
                # under a healthier budget must be free to do better.
                self.cache.put(key, _CachedResult(list(results), tree_stats))
        latency_ms = (loop.time() - start) * 1000.0
        self.degradation.observe(latency_ms / 1000.0)
        self.stats.record_completed(latency_ms, cache_hit=False,
                                    computed=outcome.primary,
                                    batch_size=outcome.batch_size,
                                    exact=exact)
        return QueryResponse(
            results=list(results),
            meta=self._meta(request, latency_ms, snapshot,
                            cache_hit=False, computed=outcome.primary,
                            batch_size=outcome.batch_size,
                            distinct=outcome.distinct,
                            tree_stats=tree_stats_to_dict(tree_stats),
                            results_obj=results),
        )

    def _meta(self, request: QueryRequest, latency_ms: float, snapshot: int,
              cache_hit: bool, computed: bool, batch_size: int,
              distinct: int, tree_stats: Dict[str, int],
              results_obj: Any = None) -> Dict[str, Any]:
        """The per-request observability record (stats schema, DESIGN.md).

        ``tree_stats`` holds the ``TrajTreeStats`` deltas of the
        computation that produced the result: the real counters for a
        computed request (shared verbatim by coalesced duplicates, which
        carry ``computed: false``), all-zero for a cache hit (no tree work
        ran).  Aggregates count each computation exactly once.

        ``degraded`` / ``missing_shards`` flag answers computed over a
        partial forest: correct over the healthy shards, but possibly
        missing results that live on the absent ones.

        ``anytime`` reports the budget outcome when the computation ran
        under one (:meth:`AnytimeResult.meta_dict`): the ``exact`` flag,
        the truncation reason, the residual frontier bound and the implied
        upper-bound factor.  ``None`` when no budget was in play (cache
        hits included — only exact results are cached).
        """
        meta_fn = getattr(results_obj, "meta_dict", None)
        anytime = meta_fn() if callable(meta_fn) else None
        census = self.shard_census()
        return {
            "anytime": anytime,
            "kind": request.kind,
            "param": request.param,
            "latency_ms": latency_ms,
            "cache_hit": cache_hit,
            "computed": computed,
            "batch_size": batch_size,
            "distinct_in_batch": distinct,
            "snapshot_id": snapshot,
            "degraded": self.degraded,
            "missing_shards": [m["shard"] for m in census["missing"]],
            "tree_stats": dict(tree_stats),
        }

    # ------------------------------------------------------------------ #
    # observability and lifecycle
    # ------------------------------------------------------------------ #

    def stats_dict(self) -> Dict[str, Any]:
        """The ``/stats`` payload: service counters, cache counters, the
        served snapshot, and the effective configuration."""
        out = self.stats.to_dict()
        out["cache"] = self.cache.counters()
        out["index"] = {
            "snapshot_id": self.snapshot_id,
            "trajectories": len(self._tree),
            "normalized": self._tree.normalized,
            "degraded": self.degraded,
            "shards": self.shard_census(),
        }
        out["overload"] = {
            "admission": self.admission.stats_dict(),
            "breaker": self.breaker.stats_dict(),
            "degradation": self.degradation.stats_dict(),
        }
        out["config"] = {
            "window": self.config.window,
            "max_batch": self.config.max_batch,
            "max_pending": self.config.max_pending,
            "cache_capacity": self.config.cache_capacity,
            "default_timeout": self.config.default_timeout,
            "max_inflight": self.config.max_inflight,
            "reserved_control": self.config.reserved_control,
            "slo_ms": self.config.slo_ms,
        }
        return out

    async def aclose(self) -> None:
        """Drain cleanly: refuse new requests, deliver every accepted one
        (a shutdown mid-batch finishes the batch first).

        Idempotent and safe under concurrent calls: the first caller
        starts the drain, every caller — including repeats after it
        finished — awaits the same drain future.
        """
        self._closed = True
        if self._reload_task is not None:
            self._reload_task.cancel()
            try:
                await self._reload_task
            except asyncio.CancelledError:
                pass
            self._reload_task = None
        if self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self._batcher.drain())
        await asyncio.shield(self._drain_task)


# ---------------------------------------------------------------------- #
# the TCP front-end
# ---------------------------------------------------------------------- #


#: Longest request line the server reads, in bytes, sized in query points:
#: a point is three JSON numbers, ~25 bytes as the dataset generators emit
#: them and at most ~70 at full float precision, so 1 MiB is a query of
#: 15,000 points at worst and ~40,000 typically (asyncio's 64 KiB default
#: stops at ~2,600).  A connection buffers up to twice this.
MAX_REQUEST_BYTES = 1 << 20

_CONTROL_OPS = ("ping", "stats", "health", "reload")


def _error_reply(exc: ServiceError) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": exc.code, "message": str(exc)}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"ok": False, "error": error}


async def _reply(service: QueryService, line: bytes) -> Dict[str, Any]:
    """The response object for one request line."""
    try:
        obj = decode_request(line)
        op = obj["op"]
        request = None if op in _CONTROL_OPS else request_from_obj(obj)
    except Exception as exc:
        # Whatever a hostile frame trips while decoding costs its sender
        # one typed reply, never the connection.
        if not isinstance(exc, ServiceError):
            exc = InvalidRequest(f"undecodable request: {exc!r}")
        service.stats.record_error(exc.code)
        return _error_reply(exc)
    try:
        if request is not None:
            answer = await service.submit(request)
            return {
                "ok": True,
                "result": [[tid, d] for tid, d in answer.results],
                "meta": answer.meta,
            }
        # Control ops run under the "control" admission class: they may
        # take the reserved tokens, so health probes and stats scrapes
        # answer promptly during kNN floods.
        async with service.admission.admit("control"):
            if op == "ping":
                result: Any = "pong"
            elif op == "stats":
                result = service.stats_dict()
            elif op == "health":
                result = service.health_dict()
            else:
                result = await service.reload()
        return {"ok": True, "result": result}
    except ServiceError as exc:
        return _error_reply(exc)


async def _handle_connection(
    service: QueryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: JSON lines in, JSON lines out, in order.

    Concurrency across *connections* is what feeds the coalescing window;
    within a connection, requests are answered sequentially so responses
    line up with requests.  A line over :data:`MAX_REQUEST_BYTES` is
    discarded through its newline and answered ``invalid_request``.
    """
    oversized = False
    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial              # EOF: the unterminated tail
            except asyncio.LimitOverrunError as exc:
                # Drop what is buffered of the frame; the next read that
                # succeeds returns its tail, through the newline.
                await reader.readexactly(exc.consumed)
                oversized = True
                continue
            except ConnectionError:
                break
            if oversized:
                oversized = False
                service.stats.record_error(InvalidRequest.code)
                response = _error_reply(InvalidRequest(
                    "request line exceeds the "
                    f"{MAX_REQUEST_BYTES}-byte limit"))
            elif not line:
                break
            elif not line.strip():
                continue
            else:
                response = await _reply(service, line)
            writer.write(encode_response(response))
            try:
                await writer.drain()
            except ConnectionError:
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


async def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8765,
) -> asyncio.AbstractServer:
    """Expose a service over TCP; returns the listening asyncio server.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.sockets[0].getsockname()``) — the form the tests and
    ``repro serve --selftest`` use.  Close with ``server.close()`` +
    ``await server.wait_closed()``, then ``await service.aclose()`` to
    drain in-flight batches.
    """
    return await asyncio.start_server(
        lambda r, w: _handle_connection(service, r, w), host, port,
        limit=MAX_REQUEST_BYTES,
    )
