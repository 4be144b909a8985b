"""Cooperative query budgets and anytime results (DESIGN.md, "Overload
control and anytime queries").

The TrajTree search is best-first over *monotone lower bounds*: the node
popped from the frontier always carries the smallest bound of anything
not yet explored.  Truncating the search at any pop therefore yields a
*sound* approximate answer — every unexplored trajectory is at least
``residual_bound`` away — and the quality of that answer is quantifiable
as an upper-bound factor, the same quantity the paper reports for the
VP bound (Eq. 15, Figs. 6c/d; measured by :mod:`repro.eval.ubfactor`).

Three pieces realize that contract:

* :class:`QueryBudget` — an immutable, hashable budget declaration: a
  wall-clock ``deadline`` (seconds), a ``max_bounds`` cap on box
  bound evaluations, and an early-termination factor ``epsilon``
  (stop once the frontier cannot improve the k-th distance by more
  than ``1 + epsilon``).  Hashability makes budgets usable in
  singleflight/cache keys.
* :class:`BudgetTracker` — the mutable spend ledger one query (or one
  forest fan-out) charges against: an *absolute* deadline fixed at
  tracker creation, a bound counter, and a sticky exhaustion reason.
  :meth:`BudgetTracker.split` derives per-shard children that share
  the parent's absolute deadline (wall clock is global) while dividing
  the bound allowance evenly.
* :class:`AnytimeResult` — a ``list`` subclass carrying the anytime
  metadata (``exact``, ``reason``, ``residual_bound``,
  ``bound_factor``, per-shard ``shard_exact``).  Because list equality
  ignores the extra attributes, an exact budgeted answer compares equal
  to the plain list the unbudgeted call returns — the bit-identity
  contract ``tests/test_budget.py`` pins on both backends.

Soundness of the reported factor (the argument DESIGN.md walks through):
at truncation the search returns the refined top-k with k-th distance
``d_ret`` and a residual frontier bound ``r``.  Every trajectory not
refined lies under a frontier node of bound ``>= r`` (min-heap order) or
was pruned against a k-th distance that only shrank afterwards, so the
true k-th distance satisfies ``d_true >= min(r, d_ret)`` and the factor
``d_ret / d_true <= max(1, d_ret / r)`` — which is what
:func:`bound_factor_for` reports.  An epsilon stop fires only when
``r * (1 + epsilon) > d_ret``-to-be, so its factor is ``< 1 + epsilon``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "QueryBudget",
    "BudgetTracker",
    "AnytimeResult",
    "as_tracker",
    "bound_factor_for",
    "combine_budgets",
]


@dataclass(frozen=True)
class QueryBudget:
    """An immutable query cost budget.

    Parameters
    ----------
    deadline:
        Wall-clock seconds the query may spend, counted from the moment
        its tracker is created (``None`` = no deadline).  The clock is
        checked cooperatively at frontier pops, so a single batched
        kernel call can overshoot by its own duration — the budget
        bounds *search effort*, it is not a hard preemption.
    max_bounds:
        Cap on box bound evaluations (the ``bound_computations``
        counter of :class:`~repro.index.trajtree.TrajTreeStats`);
        ``None`` = unlimited.  This one *is* a hard ceiling: the search
        clamps its batched bound calls to the remaining allowance.
    epsilon:
        Early-termination factor: stop once the best frontier bound
        ``b`` satisfies ``b * (1 + epsilon) > d_k`` — the returned k-th
        distance is then within ``1 + epsilon`` of optimal.  ``0.0``
        reproduces the exact search's natural break bit-for-bit
        (multiplying by an exact ``1.0`` changes nothing).
    """

    deadline: Optional[float] = None
    max_bounds: Optional[int] = None
    epsilon: float = 0.0

    def __post_init__(self):
        if self.deadline is not None and not self.deadline > 0:
            raise ValueError("deadline must be positive (or None)")
        if self.max_bounds is not None and self.max_bounds < 0:
            raise ValueError("max_bounds must be non-negative (or None)")
        if not self.epsilon >= 0.0:  # also rejects NaN
            raise ValueError("epsilon must be non-negative")

    @property
    def unlimited(self) -> bool:
        """Whether this budget can never alter a query's behaviour."""
        return (self.deadline is None and self.max_bounds is None
                and self.epsilon == 0.0)

    def tracker(
        self, clock: Callable[[], float] = time.monotonic
    ) -> "BudgetTracker":
        """Start the clock: a fresh spend ledger for one query."""
        return BudgetTracker(self, clock=clock)

    def to_dict(self) -> dict:
        """Wire form (the service protocol's ``budget`` object)."""
        out: dict = {}
        if self.deadline is not None:
            out["deadline"] = self.deadline
        if self.max_bounds is not None:
            out["max_bounds"] = self.max_bounds
        if self.epsilon:
            out["epsilon"] = self.epsilon
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "QueryBudget":
        """Parse the wire form; raises ``ValueError``/``TypeError`` on
        malformed fields (the service maps those onto InvalidRequest)."""
        if not isinstance(obj, dict):
            raise TypeError("budget must be an object")
        known = {"deadline", "max_bounds", "epsilon"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(
                f"unknown budget fields: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        deadline = obj.get("deadline")
        max_bounds = obj.get("max_bounds")
        if max_bounds is not None:
            if int(max_bounds) != max_bounds:
                raise ValueError("max_bounds must be an integer")
            max_bounds = int(max_bounds)
        return cls(
            deadline=None if deadline is None else float(deadline),
            max_bounds=max_bounds,
            epsilon=float(obj.get("epsilon", 0.0)),
        )


def combine_budgets(
    a: Optional[QueryBudget], b: Optional[QueryBudget]
) -> Optional[QueryBudget]:
    """The tighter of two budgets, field-wise.

    Deadlines and bound caps take the smaller set value, epsilon the
    larger — so a service-imposed degradation budget can only tighten a
    client's request budget, never loosen it (and vice versa).
    """
    if a is None:
        return b
    if b is None:
        return a

    def _tight(x, y):
        if x is None:
            return y
        if y is None:
            return x
        return min(x, y)

    return QueryBudget(
        deadline=_tight(a.deadline, b.deadline),
        max_bounds=_tight(a.max_bounds, b.max_bounds),
        epsilon=max(a.epsilon, b.epsilon),
    )


class BudgetTracker:
    """The mutable spend ledger a search charges against.

    Created from a :class:`QueryBudget` (which fixes the *absolute*
    deadline at creation time) and passed to ``knn`` and friends in
    place of the budget when the caller wants to control the clock
    (tests inject a fake one) or share one deadline across several
    calls (the forest fan-out).  Exhaustion is *sticky*: once a reason
    is reported the tracker keeps reporting it, so a search that
    observed exhaustion never flip-flops back to running.
    """

    __slots__ = ("epsilon", "deadline_at", "max_bounds", "bounds_charged",
                 "_clock", "_reason")

    def __init__(
        self,
        budget: QueryBudget,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.epsilon = budget.epsilon
        self._clock = clock
        self.deadline_at = (
            None if budget.deadline is None else clock() + budget.deadline
        )
        self.max_bounds = budget.max_bounds
        self.bounds_charged = 0
        self._reason: Optional[str] = None

    def charge_bounds(self, n: int) -> None:
        """Record ``n`` box bound evaluations."""
        self.bounds_charged += n

    def remaining_bounds(self) -> Optional[int]:
        """Bound evaluations still allowed (``None`` = unlimited)."""
        if self.max_bounds is None:
            return None
        return max(0, self.max_bounds - self.bounds_charged)

    def exhausted(self) -> Optional[str]:
        """``"bounds"`` / ``"deadline"`` once spent, else ``None`` (sticky)."""
        if self._reason is None:
            if (self.max_bounds is not None
                    and self.bounds_charged >= self.max_bounds):
                self._reason = "bounds"
            elif (self.deadline_at is not None
                    and self._clock() >= self.deadline_at):
                self._reason = "deadline"
        return self._reason

    def split(self, n: int) -> List["BudgetTracker"]:
        """Per-shard children for a fan-out over ``n`` shards.

        Children share this tracker's *absolute* deadline (shards run
        against the same wall clock, so a slow early shard eats into
        the later shards' time — exactly the behaviour a deadline
        promises) and divide the bound allowance evenly (ceiling), so
        the fan-out's total bound work stays within ``n`` rounding
        errors of the cap.
        """
        if n < 1:
            raise ValueError("cannot split a budget over zero shards")
        share = (None if self.max_bounds is None
                 else -(-self.max_bounds // n))  # ceil division
        children = []
        for _ in range(n):
            child = BudgetTracker.__new__(BudgetTracker)
            child.epsilon = self.epsilon
            child._clock = self._clock
            child.deadline_at = self.deadline_at
            child.max_bounds = share
            child.bounds_charged = 0
            child._reason = None
            children.append(child)
        return children


def as_tracker(
    budget, clock: Callable[[], float] = time.monotonic
) -> Optional[BudgetTracker]:
    """Normalize a ``budget=`` argument: ``None`` passes through, a
    :class:`QueryBudget` starts its clock, a :class:`BudgetTracker` is
    used as-is (already ticking)."""
    if budget is None:
        return None
    if isinstance(budget, BudgetTracker):
        return budget
    if isinstance(budget, QueryBudget):
        return budget.tracker(clock)
    raise TypeError(
        f"budget must be a QueryBudget, BudgetTracker or None, "
        f"not {type(budget).__name__}"
    )


def bound_factor_for(
    results: Sequence[Tuple[int, float]], k: int, residual: float
) -> float:
    """The implied upper-bound factor of a truncated top-k answer.

    ``results`` is the (ascending-sorted) returned list, ``residual``
    the smallest lower bound left on the frontier at truncation.  The
    true k-th distance is at least ``min(residual, d_ret)`` (module
    docstring), so the returned k-th overestimates the true k-th by at
    most this factor.  ``inf`` when fewer than ``k`` results came back
    or the residual is zero — the truncation then carries no quality
    guarantee at all.
    """
    if len(results) < k:
        return math.inf
    d_ret = results[k - 1][1]
    if d_ret <= residual:
        return 1.0
    if residual <= 0.0:
        return math.inf
    return d_ret / residual


class AnytimeResult(list):
    """Query results plus the anytime metadata of the search that made
    them.

    A ``list`` of ``(traj_id, distance)`` pairs — list equality ignores
    the extra attributes, so an *exact* budgeted answer compares equal
    to the plain list the unbudgeted call returns.

    Attributes
    ----------
    exact:
        True iff the search ran to its natural completion — no budget
        exhaustion and no epsilon stop actually truncated anything.
    reason:
        Why the search stopped early (``"deadline"`` / ``"bounds"`` /
        ``"epsilon"``), ``None`` when exact.
    residual_bound:
        Smallest lower bound left unexplored on the frontier at
        truncation; ``inf`` when exact (nothing unexplored can beat the
        returned set).  Every trajectory missing from the answer is at
        least this far from the query.
    bound_factor:
        The implied quality guarantee (:func:`bound_factor_for`):
        returned k-th distance ``<= bound_factor *`` true k-th
        distance.  ``1.0`` when exact; ``inf`` when the truncation
        carries no guarantee.
    shard_exact:
        Per-shard exactness of a forest fan-out (``None`` for a single
        tree): ``shard_exact[i]`` is False iff shard ``i`` truncated.
    """

    __slots__ = ("exact", "reason", "residual_bound", "bound_factor",
                 "shard_exact")

    def __init__(
        self,
        items=(),
        exact: bool = True,
        reason: Optional[str] = None,
        residual_bound: float = math.inf,
        bound_factor: float = 1.0,
        shard_exact: Optional[List[bool]] = None,
    ):
        super().__init__(items)
        self.exact = exact
        self.reason = reason
        self.residual_bound = residual_bound
        self.bound_factor = bound_factor
        self.shard_exact = shard_exact

    def meta_dict(self) -> dict:
        """The anytime fields as a JSON-able dict (service meta)."""
        out = {
            "exact": bool(self.exact),
            "reason": self.reason,
            "residual_bound": (None if math.isinf(self.residual_bound)
                               else float(self.residual_bound)),
            "bound_factor": (None if math.isinf(self.bound_factor)
                             else float(self.bound_factor)),
        }
        if self.shard_exact is not None:
            out["shard_exact"] = [bool(x) for x in self.shard_exact]
        return out

    def __repr__(self) -> str:
        tag = "exact" if self.exact else f"truncated:{self.reason}"
        return f"AnytimeResult({list.__repr__(self)}, {tag})"
