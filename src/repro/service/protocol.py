"""Wire protocol and typed errors of the query service.

The service speaks newline-delimited JSON over a plain TCP stream: one
request object per line in, one response object per line out, in order.
Three query operations mirror the :class:`~repro.index.trajtree.TrajTree`
query surface (``knn`` / ``range`` / ``subtrajectory_knn``) plus four
control operations: ``stats`` (the ``/stats`` endpoint), ``ping``,
``health`` (readiness + degraded state + shard census) and ``reload``
(atomically swap in a freshly loaded snapshot — see DESIGN.md, "Fault
model and degraded serving").

Every query request normalizes into a :class:`QueryRequest`, whose
:func:`query_digest` is the service-wide identity of the computation:
requests with equal digests ask for bit-identical work, so the coalescing
batcher computes them once per batch (singleflight) and the result cache
keys on ``(index snapshot id, digest)`` — see DESIGN.md, "Query service".

Errors cross the service boundary as :class:`ServiceError` subclasses with
stable ``code`` strings; the TCP layer maps them onto
``{"ok": false, "error": {"code": ..., "message": ...}}`` responses so
remote clients can re-raise the typed error (:func:`error_from_code`).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.trajectory import Trajectory
from ..index.budget import QueryBudget

__all__ = [
    "KINDS",
    "QueryRequest",
    "QueryResponse",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceUnavailable",
    "RequestTimeout",
    "InvalidRequest",
    "ServiceClosed",
    "ServiceConnectionError",
    "query_digest",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "error_from_code",
]

#: The query kinds the service dispatches, named after the TrajTree methods.
KINDS = ("knn", "range", "subtrajectory_knn")


class ServiceError(Exception):
    """Base of every typed service failure; ``code`` is wire-stable."""

    code = "service_error"


class ServiceOverloaded(ServiceError):
    """Backpressure shed: the bounded request queue is full (the request
    was rejected *before* entering the batcher — retry later)."""

    code = "overloaded"


class ServiceUnavailable(ServiceError):
    """The dispatch circuit breaker is open: the service observed a
    sustained timeout/error rate and is refusing queries for a cooldown
    period instead of queueing more doomed work.

    ``retry_after`` (seconds, may be ``None``) is the server's suggestion
    for when a probe is worth sending; ``ServiceClient.retry`` honors it
    when scheduling the next attempt.
    """

    code = "unavailable"

    def __init__(self, message: str = "", retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class RequestTimeout(ServiceError):
    """The per-request timeout elapsed before the batch produced a result."""

    code = "timeout"


class InvalidRequest(ServiceError):
    """Malformed request: unknown kind, bad parameter, or unusable query."""

    code = "invalid_request"


class ServiceClosed(ServiceError):
    """The service is draining or closed and accepts no new requests."""

    code = "closed"


class ServiceConnectionError(ServiceError):
    """The transport to the service failed mid-request: connection reset,
    server drained the socket, or the response line was truncated.

    Transient from the caller's view — reconnect and retry (queries are
    idempotent reads); :class:`repro.service.client.ServiceClient` raises
    this instead of leaking raw ``ConnectionResetError`` /
    ``IncompleteReadError``, so callers can tell transport blips from
    fatal request errors, and its retry policy treats it as retryable.
    """

    code = "connection"


_ERRORS = {
    cls.code: cls
    for cls in (ServiceError, ServiceOverloaded, ServiceUnavailable,
                RequestTimeout, InvalidRequest, ServiceClosed,
                ServiceConnectionError)
}


def error_from_code(
    code: str, message: str, retry_after: Optional[float] = None
) -> ServiceError:
    """Reconstruct the typed error a remote service reported."""
    cls = _ERRORS.get(code, ServiceError)
    if cls is ServiceUnavailable:
        return ServiceUnavailable(message, retry_after=retry_after)
    return cls(message)


@dataclass(frozen=True)
class QueryRequest:
    """One normalized query: a kind, a query trajectory and one parameter.

    ``param`` is ``k`` for the k-NN kinds and the radius for ``range``.
    ``timeout`` (seconds) overrides the service's default per-request
    deadline; ``None`` keeps the default.  ``budget`` is an optional
    :class:`~repro.index.budget.QueryBudget` the caller volunteers; the
    server tightens it further under load (``combine_budgets`` with the
    degradation policy's current floor) and reports truncation in the
    response ``meta``.
    """

    kind: str
    query: Trajectory
    param: float
    timeout: Optional[float] = None
    budget: Optional[QueryBudget] = None

    def validated(self) -> "QueryRequest":
        """Raise :class:`InvalidRequest` unless the request is servable."""
        if self.kind not in KINDS:
            raise InvalidRequest(
                f"unknown query kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.query.num_segments == 0:
            raise InvalidRequest("query needs at least one segment")
        if self.kind == "range":
            # written so that NaN — a radius no pruning test can order,
            # and not JSON on the way back — fails the comparison
            if not 0 <= self.param < math.inf:
                raise InvalidRequest("radius must be finite and non-negative")
        elif not (0 < self.param < math.inf and self.param == int(self.param)):
            raise InvalidRequest("k must be a positive integer")
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise InvalidRequest("timeout must be a positive, finite number "
                                 "of seconds")
        return self


@dataclass
class QueryResponse:
    """A query's results plus its per-request observability record.

    ``results`` is the exact ``[(traj_id, distance), ...]`` list the
    equivalent library call returns.  ``meta`` is the stats-schema record
    documented in DESIGN.md ("Query service"): latency, cache hit flag,
    the size of the coalesced batch the request joined, and the
    ``TrajTreeStats`` counter deltas of the computation that produced the
    result (all zero for cache hits — no tree work ran).
    """

    results: List[Tuple[int, float]]
    meta: Dict[str, Any] = field(default_factory=dict)


def query_digest(request: QueryRequest) -> str:
    """Content digest identifying the computation a request asks for.

    Two requests digest equally iff they have the same kind, the same
    parameter, and bit-identical query points — exactly the condition
    under which the service may share one computed result between them.
    (``timeout`` is delivery policy, not computation identity, and is
    excluded; ``budget`` *is* computation identity — a truncated search
    and an exact one are different computations.)
    """
    h = hashlib.sha256()
    h.update(request.kind.encode())
    h.update(b"|")
    h.update(repr(float(request.param)).encode())
    h.update(b"|")
    h.update(request.query.data.tobytes())
    if request.budget is not None:
        h.update(b"|")
        h.update(
            json.dumps(request.budget.to_dict(), sort_keys=True).encode()
        )
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# JSON line codec
# ---------------------------------------------------------------------- #


def encode_request(request: QueryRequest) -> bytes:
    """One request as a JSON line (client side)."""
    obj: Dict[str, Any] = {
        "op": request.kind,
        "points": [list(row) for row in request.query.data.tolist()],
        ("radius" if request.kind == "range" else "k"): request.param,
    }
    if request.timeout is not None:
        obj["timeout"] = request.timeout
    if request.budget is not None:
        obj["budget"] = request.budget.to_dict()
    return json.dumps(obj).encode() + b"\n"


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse one request line into its raw object (server side).

    Raises :class:`InvalidRequest` for non-JSON lines or non-object
    payloads; query-level validation happens in :func:`request_from_obj`.
    """
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise InvalidRequest(f"request is not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "op" not in obj:
        raise InvalidRequest("request must be a JSON object with an 'op'")
    return obj


def request_from_obj(obj: Dict[str, Any]) -> QueryRequest:
    """Build a validated :class:`QueryRequest` from a decoded query op."""
    kind = obj["op"]
    if kind not in KINDS:
        raise InvalidRequest(
            f"unknown query kind {kind!r}; expected one of {KINDS}"
        )
    points = obj.get("points")
    if not isinstance(points, list) or not points:
        raise InvalidRequest("query 'points' must be a non-empty list")
    try:
        query = Trajectory(points)
    except (TypeError, ValueError) as exc:
        raise InvalidRequest(f"bad query points: {exc}") from None
    try:
        param = float(obj["radius"] if kind == "range" else obj["k"])
    except (KeyError, TypeError, ValueError, OverflowError):
        needed = "radius" if kind == "range" else "k"
        raise InvalidRequest(f"query needs a numeric {needed!r}") from None
    timeout = obj.get("timeout")
    if timeout is not None:
        try:
            timeout = float(timeout)
        except (TypeError, ValueError, OverflowError):
            raise InvalidRequest("'timeout' must be numeric") from None
    budget = obj.get("budget")
    if budget is not None:
        if not isinstance(budget, dict):
            raise InvalidRequest("'budget' must be a JSON object")
        try:
            budget = QueryBudget.from_dict(budget)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidRequest(f"bad budget: {exc}") from None
    return QueryRequest(kind, query, param, timeout, budget).validated()


def encode_response(obj: Dict[str, Any]) -> bytes:
    """One response object as a JSON line (server side)."""
    return json.dumps(obj).encode() + b"\n"


def decode_response(line: bytes) -> Dict[str, Any]:
    """Parse one response line (client side).  Field names are interned:
    fresh key strings per call are a third of every reply a client keeps."""
    obj = json.loads(line, object_pairs_hook=lambda pairs: {
        sys.intern(key): value for key, value in pairs})
    if not isinstance(obj, dict):
        raise ServiceError("malformed response from server")
    return obj
