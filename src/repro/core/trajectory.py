"""Trajectory data model (paper Definitions 1-3).

A trajectory is a temporally ordered sequence of spatio-temporal points
(st-points).  Each st-point carries a 2-D spatial location and a timestamp.
Following Sec. III, trajectories are *matched as sequences of st-segments*:
the segment connecting consecutive st-points under linear interpolation.

The class stores points in a ``(n, 3)`` float64 numpy array ``[x, y, t]``,
which keeps dataset generation and noise injection vectorized while the
distance DPs read plain floats out of it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import interpolate

__all__ = ["STPoint", "Segment", "Trajectory", "assign_ids"]


class STPoint:
    """A spatio-temporal point ``([x, y], t)`` (paper Definition 1)."""

    __slots__ = ("x", "y", "t")

    def __init__(self, x: float, y: float, t: float = 0.0):
        self.x = float(x)
        self.y = float(y)
        self.t = float(t)

    @property
    def xy(self) -> Tuple[float, float]:
        """Spatial coordinates as a tuple."""
        return (self.x, self.y)

    def distance(self, other: "STPoint") -> float:
        """Spatial Euclidean distance to ``other`` (timestamps ignored)."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __iter__(self) -> Iterator[float]:
        return iter((self.x, self.y, self.t))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, STPoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.t == other.t

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.t))

    def __repr__(self) -> str:
        return f"STPoint({self.x:g}, {self.y:g}, t={self.t:g})"


class Segment:
    """An st-segment ``e = [s1, s2]`` under linear interpolation (Def. 3)."""

    __slots__ = ("s1", "s2")

    def __init__(self, s1: STPoint, s2: STPoint):
        self.s1 = s1
        self.s2 = s2

    @property
    def length(self) -> float:
        """Spatial length of the segment."""
        return self.s1.distance(self.s2)

    @property
    def duration(self) -> float:
        """Time spanned by the segment, ``s2.t - s1.t``."""
        return self.s2.t - self.s1.t

    @property
    def speed(self) -> float:
        """``length(e) / (e.s2.t - e.s1.t)`` (Sec. III); inf for zero duration."""
        dt = self.duration
        if dt <= 0.0:
            return math.inf
        return self.length / dt

    def point_at_fraction(self, fraction: float) -> STPoint:
        """Interpolated st-point at ``fraction`` of the segment's length.

        The timestamp follows the paper's insert rule: proportional to the
        spatial split the point induces (Sec. III-A), which under linear
        interpolation is simply the linear blend of the endpoint timestamps.
        """
        x, y = interpolate(self.s1.xy, self.s2.xy, fraction)
        t = self.s1.t + (self.s2.t - self.s1.t) * fraction
        return STPoint(x, y, t)

    def __repr__(self) -> str:
        return f"Segment({self.s1!r} -> {self.s2!r})"


class Trajectory:
    """A temporally ordered sequence of st-points (paper Definition 1).

    Parameters
    ----------
    points:
        Anything convertible to a ``(n, 2)`` or ``(n, 3)`` float array.  With
        two columns, timestamps default to ``0, 1, 2, ...`` (several paper
        examples, e.g. Appendix A, ignore time).
    traj_id:
        Optional identifier used by datasets and indexes.
    label:
        Optional class label (used by the ASL-style classification workload).
    validate:
        When true (default), reject NaNs and decreasing timestamps.
    """

    __slots__ = ("data", "traj_id", "label", "_coords", "_length", "_rect")

    def __init__(
        self,
        points: Iterable[Sequence[float]],
        traj_id: Optional[int] = None,
        label: Optional[str] = None,
        validate: bool = True,
    ):
        arr = np.asarray(list(points) if not isinstance(points, np.ndarray) else points,
                         dtype=np.float64)
        if arr.ndim == 1 and arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {arr.shape}")
        if arr.shape[0] > 0 and arr.shape[1] == 2:
            times = np.arange(arr.shape[0], dtype=np.float64).reshape(-1, 1)
            arr = np.hstack([arr, times])
        if arr.shape[0] > 0 and arr.shape[1] != 3:
            raise ValueError(
                f"points must have 2 (x, y) or 3 (x, y, t) columns, got {arr.shape[1]}"
            )
        if validate and arr.shape[0] > 0:
            if not np.all(np.isfinite(arr)):
                raise ValueError("trajectory contains non-finite coordinates")
            if np.any(np.diff(arr[:, 2]) < 0):
                raise ValueError("timestamps must be non-decreasing")
        self.data = arr if arr.shape[0] > 0 else np.empty((0, 3), dtype=np.float64)
        self.traj_id = traj_id
        self.label = label
        self._coords = None
        self._length = None
        self._rect = None

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of st-points."""
        return self.data.shape[0]

    @property
    def num_segments(self) -> int:
        """Number of st-segments, ``max(0, len(self) - 1)`` (|T| in Sec. III)."""
        return max(0, self.data.shape[0] - 1)

    def __getitem__(self, index: int) -> STPoint:
        row = self.data[index]
        return STPoint(row[0], row[1], row[2])

    def __iter__(self) -> Iterator[STPoint]:
        for row in self.data:
            yield STPoint(row[0], row[1], row[2])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        ident = "" if self.traj_id is None else f" id={self.traj_id}"
        lab = "" if self.label is None else f" label={self.label!r}"
        return f"Trajectory(n={len(self)}{ident}{lab})"

    def __getstate__(self):
        # The coordinate cache is derived data: dropping it keeps pickles
        # (index snapshots) lean and rebuilds lazily after load.
        return (self.data, self.traj_id, self.label)

    def __setstate__(self, state) -> None:
        self.data, self.traj_id, self.label = state
        self._coords = None
        self._length = None
        self._rect = None

    # ------------------------------------------------------------------ #
    # segment access
    # ------------------------------------------------------------------ #

    def segment(self, index: int) -> Segment:
        """The ``index``-th st-segment (0-based; paper uses 1-based ``e_i``)."""
        if not 0 <= index < self.num_segments:
            raise IndexError(f"segment index {index} out of range")
        return Segment(self[index], self[index + 1])

    def segments(self) -> Iterator[Segment]:
        """Iterate over all st-segments in order."""
        for i in range(self.num_segments):
            yield self.segment(i)

    # ------------------------------------------------------------------ #
    # derived quantities (paper Sec. III)
    # ------------------------------------------------------------------ #

    @property
    def length(self) -> float:
        """Total spatial length, Eq. 1 (cached; data is immutable by
        convention, like the :meth:`coords` cache).

        The lazy fill follows the idempotent read-compute-assign pattern
        (see :meth:`coords` for the contract), so concurrent first reads
        from multiple threads are safe.
        """
        cached = self._length
        if cached is None:
            if len(self) < 2:
                cached = 0.0
            else:
                diffs = np.diff(self.data[:, :2], axis=0)
                cached = float(np.sqrt((diffs * diffs).sum(axis=1)).sum())
            self._length = cached
        return cached

    @property
    def duration(self) -> float:
        """Elapsed time between first and last st-point."""
        if len(self) < 2:
            return 0.0
        return float(self.data[-1, 2] - self.data[0, 2])

    def segment_lengths(self) -> np.ndarray:
        """Vector of per-segment spatial lengths."""
        if len(self) < 2:
            return np.empty(0, dtype=np.float64)
        diffs = np.diff(self.data[:, :2], axis=0)
        return np.sqrt((diffs * diffs).sum(axis=1))

    def bounding_rect(self) -> Tuple[float, float, float, float]:
        """Axis-aligned spatial bounding rectangle ``(xmin, ymin, xmax, ymax)``
        (cached like :attr:`length`, never pickled: TrajTree refinement
        reads it per member)."""
        cached = self._rect
        if cached is None:
            if len(self) == 0:
                raise ValueError("empty trajectory has no bounding rectangle")
            lo, hi = self.spatial().min(axis=0), self.spatial().max(axis=0)
            cached = (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))
            self._rect = cached
        return cached

    # ------------------------------------------------------------------ #
    # sub-trajectories and edits
    # ------------------------------------------------------------------ #

    def subtrajectory(self, start: int, stop: int) -> "Trajectory":
        """Sub-trajectory over points ``[start, stop)`` (paper ``T[a..b]``)."""
        return Trajectory(self.data[start:stop], traj_id=self.traj_id,
                          label=self.label, validate=False)

    def is_subtrajectory_of(self, other: "Trajectory") -> bool:
        """Whether ``self`` appears as a contiguous run of points in ``other``.

        Paper Definition 2: ``T1 ⊆ T2`` iff every point of T1 equals the
        corresponding point of T2 under some offset.
        """
        n, m = len(self), len(other)
        if n == 0:
            return True
        if n > m:
            return False
        for offset in range(m - n + 1):
            if np.array_equal(self.data, other.data[offset:offset + n]):
                return True
        return False

    def with_point_inserted(self, segment_index: int, fraction: float) -> "Trajectory":
        """New trajectory with a point interpolated inside a segment.

        This is the structural half of the paper's ``ins`` edit: splitting
        segment ``e`` at the interpolated point with a timestamp proportional
        to the spatial split.  Used heavily by the noise injectors (Sec. V-C).
        """
        if not 0 <= segment_index < self.num_segments:
            raise IndexError(f"segment index {segment_index} out of range")
        seg = self.segment(segment_index)
        p = seg.point_at_fraction(fraction)
        new_row = np.array([[p.x, p.y, p.t]])
        data = np.vstack([
            self.data[: segment_index + 1],
            new_row,
            self.data[segment_index + 1:],
        ])
        return Trajectory(data, traj_id=self.traj_id, label=self.label, validate=False)

    def point_at_time(self, t: float) -> STPoint:
        """Position at absolute time ``t`` under linear interpolation.

        Clamped to the endpoints outside the observed interval; used by the
        DISSIM baseline, which compares time-synchronized positions.
        """
        if len(self) == 0:
            raise ValueError("empty trajectory has no position")
        times = self.data[:, 2]
        if t <= times[0]:
            return self[0]
        if t >= times[-1]:
            return self[len(self) - 1]
        idx = int(np.searchsorted(times, t, side="right")) - 1
        idx = min(idx, len(self) - 2)
        t0, t1 = times[idx], times[idx + 1]
        if t1 <= t0:
            return self[idx]
        frac = (t - t0) / (t1 - t0)
        return self.segment(idx).point_at_fraction(float(frac))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def points_list(self) -> List[Tuple[float, float, float]]:
        """Points as a list of ``(x, y, t)`` tuples."""
        return [tuple(row) for row in self.data]

    def spatial(self) -> np.ndarray:
        """``(n, 2)`` view of the spatial coordinates."""
        return self.data[:, :2]

    def coords(self) -> np.ndarray:
        """Cached *contiguous* ``(n, 2)`` float64 spatial matrix.

        The copy (``data`` has row stride 3, so ``spatial()`` is never
        contiguous) is made once per instance and reused; the numpy EDwP
        backend and the batch query APIs read trajectories through this, so
        repeated distances against the same trajectory amortize the
        conversion.  Treat the returned array as read-only: ``Trajectory``
        data is immutable by convention and the cache is never invalidated.

        Concurrency contract (relied on by the query service, asserted by
        ``tests/test_concurrent_caches.py``): the fill is *idempotent* —
        the code reads the slot once into a local, computes a value that
        depends only on the immutable ``data``, and publishes it with a
        single attribute assignment.  Racing first calls may each build
        their own (equal) array; whichever assignment lands last wins, and
        every caller holds a correct, fully constructed result.  Keep this
        shape when editing: never assign the slot before the value is
        complete, and never read the slot twice.
        """
        cached = self._coords
        if cached is None:
            cached = np.ascontiguousarray(self.data[:, :2], dtype=np.float64)
            self._coords = cached
        return cached

    def times(self) -> np.ndarray:
        """``(n,)`` view of the timestamps."""
        return self.data[:, 2]

    def reversed(self) -> "Trajectory":
        """Spatially reversed trajectory with the original time axis."""
        if len(self) == 0:
            return Trajectory([], traj_id=self.traj_id, label=self.label)
        data = self.data[::-1].copy()
        data[:, 2] = self.data[:, 2]
        return Trajectory(data, traj_id=self.traj_id, label=self.label, validate=False)

    def translated(self, dx: float, dy: float) -> "Trajectory":
        """Trajectory shifted spatially by ``(dx, dy)``."""
        data = self.data.copy()
        data[:, 0] += dx
        data[:, 1] += dy
        return Trajectory(data, traj_id=self.traj_id, label=self.label, validate=False)

    @staticmethod
    def from_xy(xy: Sequence[Sequence[float]], dt: float = 1.0,
                traj_id: Optional[int] = None,
                label: Optional[str] = None) -> "Trajectory":
        """Build from spatial coordinates with uniform time spacing ``dt``."""
        arr = np.asarray(xy, dtype=np.float64)
        if arr.size == 0:
            return Trajectory([], traj_id=traj_id, label=label)
        times = np.arange(arr.shape[0], dtype=np.float64) * dt
        data = np.column_stack([arr, times])
        return Trajectory(data, traj_id=traj_id, label=label)

    def resampled_at_times(self, times: Sequence[float]) -> "Trajectory":
        """New trajectory with positions linearly interpolated at ``times``."""
        pts = []
        for t in times:
            p = self.point_at_time(float(t))
            pts.append((p.x, p.y, float(t)))
        return Trajectory(pts, traj_id=self.traj_id, label=self.label, validate=False)

    def distance_travelled_at(self, index: int) -> float:
        """Cumulative spatial length of the prefix ending at point ``index``."""
        if index <= 0:
            return 0.0
        lengths = self.segment_lengths()
        return float(lengths[:index].sum())


def assign_ids(trajectories: Sequence[Trajectory]) -> List[int]:
    """The library-wide id rule for a dataset, in dataset order.

    Provided ``traj_id`` attributes are used when all are present and
    unique; positional ids (``0..n-1``) are assigned otherwise.  ``TrajTree``,
    ``TrajForest`` and ``ColumnarStore`` all key on this one rule, which is
    what lets forest answers share the id space of a single tree.
    """
    provided = [t.traj_id for t in trajectories]
    if all(p is not None for p in provided) and len(set(provided)) == len(
        provided
    ):
        return [int(p) for p in provided]
    return list(range(len(trajectories)))
