"""Edit Distance with Projections (EDwP) — paper Sec. III-A.

EDwP computes the cheapest sequence of *replacement* and *insert* edits that
make two trajectories identical.  A replacement matches two st-segments at a
cost equal to the summed distances of their endpoints (Eq. 2), weighted by
*coverage* — the combined length of the matched pieces (Eq. 3).  An insert
splits a segment at the *projection* of the other trajectory's next sampled
point, at no direct cost; the cost is incurred when the induced sub-segment
is subsequently replaced.

Dynamic program
---------------
The recursive definition in the paper admits unbounded chains of free
inserts, so (as the paper's own ``O((|T1|+|T2|)^2)`` complexity statement
implies) the practical algorithm is a quadratic cell DP.  State ``(i, j)``
means "T1 is consumed through segment ``i``, T2 through segment ``j``", and
each cell additionally carries the *current position* on each trajectory:
either the sampled point ``P[i]`` or, when the cell was entered through an
insert, the interpolated projection point.  Transitions into ``(i, j)``:

``rep``      from ``(i-1, j-1)``: replace the two current segments wholesale.
``ins(T1)``  from ``(i, j-1)``:   split T1's current segment at the
             projection of ``P2[j]`` and replace the first piece with T2's
             segment; T1 stays within segment ``i``.
``ins(T2)``  from ``(i-1, j)``:   symmetric.

When one side is exhausted its remaining segment degenerates to a point,
which reproduces the zero-length-split behaviour of the recursive definition
(and the exact numbers of the paper's Appendix A counterexample).

Timestamps never enter the cost: EDwP is a purely spatial distance, and the
timestamp assigned to an inserted point (proportional to the spatial split,
Sec. III-A) only matters to consumers of the alignment.

Dual-backend architecture
-------------------------
The DP has two interchangeable realizations (see DESIGN.md, "Dual-backend
EDwP kernels"):

``"python"``
    The reference implementation in this module — a readable cell-by-cell
    loop over plain floats, easy to audit against the paper's equations.
    This is the default and the oracle the test-suite compares against.
``"numpy"``
    The vectorized kernel in :mod:`repro.core.edwp_fast` — the same DP
    swept anti-diagonally over preallocated coordinate arrays, with a
    lockstep batched mode that computes one query against many targets at
    once.  Matches the reference to float tolerance.
``"native"``
    The numba-compiled scalar kernels in :mod:`repro._native` — the same
    DP as machine code, selectable only when the optional numba dependency
    is installed (DESIGN.md, "Native kernel tier").  Matches the reference
    to float tolerance.

The active backend is selected globally with :func:`set_backend` (or
temporarily with :func:`use_backend`), and every distance entry point also
accepts an explicit ``backend=`` override.  :func:`edwp_many` exposes the
batched kernel directly; TrajTree routes leaf refinement and scan oracles
through it.

Alignment recovery (:func:`edwp_alignment`) always runs the python backend:
backtracking needs the full parent/position matrices, which the vectorized
kernel deliberately does not materialize.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from . import edwp_fast
from .. import _native
from .geometry import Point, point_distance, project_point_on_segment
from .trajectory import Trajectory

__all__ = [
    "EditOp",
    "EdwpResult",
    "edwp",
    "edwp_avg",
    "edwp_many",
    "edwp_alignment",
    "rep_cost",
    "coverage",
    "get_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "available_backends",
    "BACKENDS",
    "KNOWN_BACKENDS",
    "BackendError",
    "UnknownBackendError",
    "NativeBackendUnavailableError",
]

#: Every backend name this package knows of, installed or not.  Selection
#: distinguishes a typo (:class:`UnknownBackendError`) from a missing
#: optional dependency (:class:`NativeBackendUnavailableError`).
KNOWN_BACKENDS = ("python", "numpy", "native")


def available_backends() -> tuple:
    """The backend names selectable *right now*: the pure-Python reference
    and the vectorized numpy kernels always, plus the compiled ``"native"``
    tier when numba is installed (``pip install .[native]``)."""
    if _native.numba_available():
        return ("python", "numpy", "native")
    return ("python", "numpy")


#: The selectable DP realizations, snapshotted at import time: the
#: pure-Python reference, the vectorized numpy kernel, and — when numba is
#: installed — the compiled native tier (see module docstring).  Harness
#: loops iterating ``BACKENDS`` therefore automatically cover the native
#: tier on machines that have it.
BACKENDS = available_backends()


class BackendError(ValueError):
    """A backend name could not be selected.

    Subclasses ``ValueError`` so pre-existing ``except ValueError``
    call sites (and tests matching on the message) keep working.
    """


class UnknownBackendError(BackendError):
    """The requested backend name is not one this package knows of."""

    def __init__(self, name: object):
        self.backend = name
        super().__init__(
            f"unknown backend {name!r}; choose from {available_backends()}"
        )


class NativeBackendUnavailableError(BackendError):
    """``"native"`` was requested but numba is not installed."""

    def __init__(self):
        self.backend = "native"
        super().__init__(
            'backend "native" requires numba, which is not installed '
            "(pip install .[native]); available backends: "
            f"{available_backends()}"
        )


def _check_backend(name: str) -> None:
    """Validate a backend name at selection time, with typed errors."""
    if name not in KNOWN_BACKENDS:
        raise UnknownBackendError(name)
    if name == "native" and not _native.numba_available():
        raise NativeBackendUnavailableError()


_active_backend = "python"


def get_backend() -> str:
    """Name of the globally active distance backend."""
    return _active_backend


def set_backend(name: str) -> str:
    """Select the global distance backend; returns the previous one.

    Affects every call that does not pass an explicit ``backend=`` —
    the EDwP family, every baseline comparator in
    :mod:`repro.baselines`, the distance registry, the batched matrix
    engine, TrajTree queries and the CLI.

    Raises :class:`UnknownBackendError` for a name this package does not
    know, and :class:`NativeBackendUnavailableError` when ``"native"`` is
    requested without numba installed (both ``ValueError`` subclasses).
    """
    global _active_backend
    _check_backend(name)
    previous = _active_backend
    _active_backend = name
    return previous


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Context manager running a block under a specific backend."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve a per-call ``backend=`` override against the global choice.

    ``None`` means "follow :func:`set_backend`"; anything else must be a
    selectable backend (same typed errors as :func:`set_backend`).  Shared
    by every dual-backend distance — the EDwP family here and the baseline
    comparators in :mod:`repro.baselines` — so one switch governs them all.
    """
    if backend is None:
        return _active_backend
    _check_backend(backend)
    return backend


_REP = 0
_INS1 = 1  # insert on T1 (T2 advances)
_INS2 = 2  # insert on T2 (T1 advances)
_SKIP = 3  # free prefix skip (EDwPsub only)
_OP_NAMES = {_REP: "rep", _INS1: "ins1", _INS2: "ins2"}


def rep_cost(e1_start: Point, e1_end: Point, e2_start: Point, e2_end: Point) -> float:
    """Replacement cost, Eq. 2: ``dist(e1.s1, e2.s1) + dist(e1.s2, e2.s2)``."""
    return point_distance(e1_start, e2_start) + point_distance(e1_end, e2_end)


def coverage(e1_start: Point, e1_end: Point, e2_start: Point, e2_end: Point) -> float:
    """Coverage weight, Eq. 3: ``length(e1) + length(e2)``."""
    return point_distance(e1_start, e1_end) + point_distance(e2_start, e2_end)


@dataclass(frozen=True)
class EditOp:
    """One edit of the optimal alignment.

    Attributes
    ----------
    op:
        ``"rep"``, ``"ins1"`` (insert on T1) or ``"ins2"`` (insert on T2).
        Every op embodies one replacement; the ``ins*`` variants record that
        the replaced piece was created by a projection split.
    piece1 / piece2:
        The matched piece of each trajectory as ``(start_xy, end_xy)``.
    cost:
        The weighted contribution ``rep(...) * Coverage(...)`` of this edit.
    seg1 / seg2:
        Index of the original segment each piece lies on (``-1`` when the
        trajectory was already exhausted and the piece is degenerate).
    """

    op: str
    piece1: Tuple[Point, Point]
    piece2: Tuple[Point, Point]
    cost: float
    seg1: int
    seg2: int


@dataclass
class EdwpResult:
    """Distance plus the optimal edit script (used by tBoxSeq construction)."""

    distance: float
    edits: List[EditOp]


def _spatial_points(traj: Trajectory) -> List[Point]:
    data = traj.data
    return [(float(row[0]), float(row[1])) for row in data]


def _trivial_distance(n1: int, n2: int) -> Optional[float]:
    """Base cases of the paper's recursion in terms of segment counts."""
    if n1 <= 0 and n2 <= 0:
        return 0.0
    if n1 <= 0 or n2 <= 0:
        return math.inf
    return None


def _edwp_dp(
    p1: Sequence[Point],
    p2: Sequence[Point],
    keep_parents: bool,
    free_start_row: bool = False,
) -> Tuple[
    List[List[float]],
    Optional[List[List[int]]],
    List[List[Tuple[float, float, float, float]]],
]:
    """Core DP.  Returns the full ``(costs, parents, positions)`` matrices.

    ``positions[i][j]`` stores ``(cur1x, cur1y, cur2x, cur2y)`` of the best
    arrival into cell ``(i, j)``; ``parents[i][j]`` stores the op code.

    With ``free_start_row`` every cell ``(0, j)`` costs 0 — the PrefixDist /
    EDwPsub mechanism (Eq. 6) of skipping any prefix of the second argument
    for free.  (Suffix skipping is the caller taking a min over the last row.)
    """
    n1 = len(p1) - 1
    n2 = len(p2) - 1

    inf = math.inf
    cols = n2 + 1
    rows = n1 + 1
    cost = [[inf] * cols for _ in range(rows)]
    pos = [[(0.0, 0.0, 0.0, 0.0)] * cols for _ in range(rows)]
    parents: Optional[List[List[int]]] = (
        [[-1] * cols for _ in range(rows)] if keep_parents else None
    )

    cost[0][0] = 0.0
    pos[0][0] = (p1[0][0], p1[0][1], p2[0][0], p2[0][1])
    if free_start_row:
        start_x, start_y = p1[0]
        for j in range(cols):
            cost[0][j] = 0.0
            pos[0][j] = (start_x, start_y, p2[j][0], p2[j][1])
            if parents is not None:
                parents[0][j] = _SKIP

    dist = point_distance
    proj = project_point_on_segment

    for i in range(rows):
        row_cost = cost[i]
        row_pos = pos[i]
        for j in range(cols):
            if i == 0 and (j == 0 or free_start_row):
                continue
            best = inf
            best_pos = (0.0, 0.0, 0.0, 0.0)
            best_op = -1

            # rep: from (i-1, j-1) — replace both current segments wholesale.
            if i > 0 and j > 0:
                c = cost[i - 1][j - 1]
                if c < inf:
                    c1x, c1y, c2x, c2y = pos[i - 1][j - 1]
                    a1 = (c1x, c1y)
                    a2 = (c2x, c2y)
                    b1 = p1[i]
                    b2 = p2[j]
                    incr = (dist(a1, a2) + dist(b1, b2)) * (
                        dist(a1, b1) + dist(a2, b2)
                    )
                    total = c + incr
                    if total < best:
                        best = total
                        best_pos = (b1[0], b1[1], b2[0], b2[1])
                        best_op = _REP

            # ins on T1: from (i, j-1) — T2 advances to P2[j]; T1 advances to
            # the projection of P2[j] on its remaining segment.
            if j > 0:
                c = row_cost[j - 1]
                if c < inf:
                    c1x, c1y, c2x, c2y = row_pos[j - 1]
                    a1 = (c1x, c1y)
                    a2 = (c2x, c2y)
                    b2 = p2[j]
                    if i < n1:
                        q, _ = proj(a1, p1[i + 1], b2)
                    else:
                        q = a1
                    base = dist(a1, a2)
                    incr = (base + dist(q, b2)) * (dist(a1, q) + dist(a2, b2))
                    total = c + incr
                    if total < best:
                        best = total
                        best_pos = (q[0], q[1], b2[0], b2[1])
                        best_op = _INS1

            # ins on T2: from (i-1, j) — symmetric.
            if i > 0:
                c = cost[i - 1][j]
                if c < inf:
                    c1x, c1y, c2x, c2y = pos[i - 1][j]
                    a1 = (c1x, c1y)
                    a2 = (c2x, c2y)
                    b1 = p1[i]
                    if j < n2:
                        q, _ = proj(a2, p2[j + 1], b1)
                    else:
                        q = a2
                    base = dist(a1, a2)
                    incr = (base + dist(b1, q)) * (dist(a1, b1) + dist(a2, q))
                    total = c + incr
                    if total < best:
                        best = total
                        best_pos = (b1[0], b1[1], q[0], q[1])
                        best_op = _INS2

            row_cost[j] = best
            row_pos[j] = best_pos
            if parents is not None:
                parents[i][j] = best_op

    return cost, parents, pos


def edwp(t1: Trajectory, t2: Trajectory, backend: Optional[str] = None) -> float:
    """EDwP distance between two trajectories (paper Sec. III-A).

    Returns 0 when both trajectories have no segments, ``inf`` when exactly
    one of them has no segments (the recursion's base cases), and the optimal
    cumulative weighted edit cost otherwise.

    ``backend`` overrides the global backend (see :func:`set_backend`) for
    this call: ``"python"`` runs the reference DP, ``"numpy"`` the
    vectorized kernel.
    """
    trivial = _trivial_distance(t1.num_segments, t2.num_segments)
    if trivial is not None:
        return trivial
    resolved = resolve_backend(backend)
    if resolved == "numpy":
        return edwp_fast.edwp_numpy(t1, t2)
    if resolved == "native":
        return _native.load().edwp_native(t1, t2)
    p1 = _spatial_points(t1)
    p2 = _spatial_points(t2)
    cost, _, _ = _edwp_dp(p1, p2, keep_parents=False)
    return cost[len(p1) - 1][len(p2) - 1]


def _normalize(raw: float, denom: float) -> float:
    """Eq. 4 with the degenerate zero-length rule."""
    if denom <= 0.0:
        return 0.0 if raw == 0.0 else math.inf
    return raw / denom


def edwp_avg(t1: Trajectory, t2: Trajectory, backend: Optional[str] = None) -> float:
    """Length-normalized EDwP, Eq. 4: ``EDwP / (length(T1) + length(T2))``.

    The paper's experiments (Sec. V-A) use this variant.  When the combined
    length is zero the trajectories are degenerate points; the distance is 0
    if the raw EDwP is 0 and ``inf`` otherwise.
    """
    return _normalize(edwp(t1, t2, backend=backend), t1.length + t2.length)


def edwp_many(
    query: Trajectory,
    trajectories: Sequence[Trajectory],
    normalized: bool = False,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[float]:
    """(Normalized) EDwP of one query against many trajectories.

    The batched entry point of the distance: on the ``"numpy"`` backend the
    whole batch runs through the lockstep kernel
    (:func:`repro.core.edwp_fast.edwp_many_numpy`), amortizing both the
    per-diagonal numpy dispatch and each trajectory's coordinate conversion
    (cached on the instance by :meth:`Trajectory.coords`); on ``"python"``
    it is a plain loop.  TrajTree leaf refinement and the scan oracles route
    through this.

    ``workers`` (optional) fans the batch out over that many threads.
    Worthwhile for multi-query driver loops on large batches; within one
    process the GIL limits the gain, so it is off by default.

    Returns one distance per input trajectory, in order, with the same
    base-case semantics as :func:`edwp` / :func:`edwp_avg` per pair.
    """
    resolved = resolve_backend(backend)
    trajectories = list(trajectories)
    if workers is not None and workers > 1 and len(trajectories) > 1:
        shard = math.ceil(len(trajectories) / workers)
        parts = [
            trajectories[i:i + shard]
            for i in range(0, len(trajectories), shard)
        ]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                lambda part: edwp_many(
                    query, part, normalized=normalized, backend=resolved
                ),
                parts,
            )
        return [d for part in results for d in part]

    if resolved == "numpy" and query.num_segments > 0 and trajectories:
        raw = edwp_fast.edwp_many_numpy(query, trajectories)
    elif resolved == "native" and query.num_segments > 0 and trajectories:
        raw = _native.load().edwp_many_native(query, trajectories)
    else:
        raw = [edwp(query, t, backend=resolved) for t in trajectories]
    if not normalized:
        return raw
    q_len = query.length
    return [_normalize(r, q_len + t.length) for r, t in zip(raw, trajectories)]


def edwp_alignment(t1: Trajectory, t2: Trajectory) -> EdwpResult:
    """EDwP distance plus the optimal edit script.

    The script is recovered by backtracking the DP parents and is the
    ingredient tBoxSeq construction needs (Sec. IV-B): one box per
    replacement edit, covering the matched pieces.
    """
    trivial = _trivial_distance(t1.num_segments, t2.num_segments)
    if trivial is not None:
        return EdwpResult(distance=trivial, edits=[])
    p1 = _spatial_points(t1)
    p2 = _spatial_points(t2)
    cost, parents, pos = _edwp_dp(p1, p2, keep_parents=True)
    assert parents is not None
    edits = _backtrack(p1, p2, parents, pos, len(p1) - 1, len(p2) - 1)
    return EdwpResult(distance=cost[len(p1) - 1][len(p2) - 1], edits=edits)


def _backtrack(
    p1: Sequence[Point],
    p2: Sequence[Point],
    parents: List[List[int]],
    pos: List[List[Tuple[float, float, float, float]]],
    end_i: int,
    end_j: int,
) -> List[EditOp]:
    n1 = len(p1) - 1
    n2 = len(p2) - 1
    i, j = end_i, end_j
    edits: List[EditOp] = []
    while i > 0 or j > 0:
        op = parents[i][j]
        if op == _SKIP:
            break
        if op == _REP:
            pi, pj = i - 1, j - 1
        elif op == _INS1:
            pi, pj = i, j - 1
        elif op == _INS2:
            pi, pj = i - 1, j
        else:  # unreachable cell — should not happen for valid inputs
            raise RuntimeError(f"broken DP backtrack at cell ({i}, {j})")
        c1x, c1y, c2x, c2y = pos[pi][pj]
        e1x, e1y, e2x, e2y = pos[i][j]
        start1, end1 = (c1x, c1y), (e1x, e1y)
        start2, end2 = (c2x, c2y), (e2x, e2y)
        cost = (
            point_distance(start1, start2) + point_distance(end1, end2)
        ) * (point_distance(start1, end1) + point_distance(start2, end2))
        # Piece locations: a rep consumes segment i-1 / j-1; an insert keeps
        # one side within its current segment (degenerate, -1, if exhausted).
        if op == _INS1:
            seg1 = i if i < n1 else -1
        else:
            seg1 = i - 1
        if op == _INS2:
            seg2 = j if j < n2 else -1
        else:
            seg2 = j - 1
        edits.append(
            EditOp(
                op=_OP_NAMES[op],
                piece1=(start1, end1),
                piece2=(start2, end2),
                cost=cost,
                seg1=seg1,
                seg2=seg2,
            )
        )
        i, j = pi, pj
    edits.reverse()
    return edits
