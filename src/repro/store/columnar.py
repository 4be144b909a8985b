"""Columnar trajectory storage (ROADMAP item 2).

A dataset of ragged trajectories is packed into two flat arrays:

* ``points`` — one contiguous ``(P, 3)`` float64 matrix of every st-point
  of every trajectory, concatenated in dataset order (row = ``[x, y, t]``,
  the exact layout of :attr:`repro.core.trajectory.Trajectory.data`);
* ``offsets`` — an ``(n + 1,)`` int64 prefix array with ``offsets[0] == 0``,
  non-decreasing, ``offsets[-1] == P``: trajectory ``i`` is the row slice
  ``points[offsets[i]:offsets[i + 1]]``.

Plus ``ids`` (``(n,)`` int64 trajectory ids, unique) and optional per-
trajectory labels.  DESIGN.md ("Columnar store and sharded forest")
documents the layout and the offsets contract.

The slice *is* the trajectory: :meth:`ColumnarStore.trajectory` wraps it
in a :class:`~repro.core.trajectory.Trajectory` without copying, so a
store loaded with ``mmap_mode="r"`` serves trajectory data straight off
the page cache and the batched kernels (``edwp_many``, the node bound
``edwp_sub_box_many``) consume store-backed trajectories unchanged
— their first :meth:`~repro.core.trajectory.Trajectory.coords` call makes
the same contiguous spatial copy it makes for object-backed trajectories,
and every distance is bit-identical
(``tests/test_store_roundtrip.py``).

On disk a store is a directory of ``.npy`` files (``points.npy``,
``offsets.npy``, ``ids.npy``) next to a ``meta.json`` manifest carrying
the format version, the labels, and one sha256 checksum per array file;
:meth:`ColumnarStore.load` memory-maps the points by default, so opening
a multi-gigabyte dataset costs pages, not RAM.

Persistence is crash-safe (DESIGN.md, "Fault model and degraded
serving"): every file is written through the
:mod:`repro.store.atomic` temp-sibling/fsync/rename protocol and
``meta.json`` — which names the checksums — is written *last*, so a save
interrupted at any byte offset leaves either the previous intact store or
a directory :meth:`ColumnarStore.load` rejects with a typed
:class:`StoreError`; it never loads silently wrong data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..core.trajectory import Trajectory, assign_ids
from .atomic import (
    PathLike,
    atomic_write_bytes,
    atomic_write_json,
    cleanup_stale_temps,
    npy_bytes,
    read_manifest,
    verify_checksum,
)

__all__ = ["ColumnarStore", "StoreError"]

_MAGIC = "repro-columnar-store"
#: bumped when the on-disk layout changes (arrays, meta schema)
#: (1.1.0: per-file sha256 checksums in meta.json, crash-safe writes)
_FORMAT_VERSION = "1.1.0"

#: the array files a store directory must contain
_ARRAY_FILES = ("points.npy", "offsets.npy", "ids.npy")


class StoreError(ValueError):
    """A store directory is missing, incomplete, or malformed.

    Raised instead of bare ``FileNotFoundError`` / ``KeyError`` so callers
    (and the CLI) can report *which* file or invariant failed.
    """


class ColumnarStore:
    """A trajectory dataset packed into contiguous columnar arrays.

    Parameters
    ----------
    points:
        ``(P, 3)`` float64 array of concatenated ``[x, y, t]`` rows.
    offsets:
        ``(n + 1,)`` int64 prefix array (see the module docstring for the
        contract).  Zero-length slices (empty trajectories) are legal.
    ids:
        ``(n,)`` int64 unique trajectory ids; defaults to ``0..n-1``.
    labels:
        Optional per-trajectory labels (``None`` entries allowed).
    validate:
        Check the offsets contract and id uniqueness (cheap — O(n), not
        O(P); default True).
    """

    def __init__(
        self,
        points: np.ndarray,
        offsets: np.ndarray,
        ids: Optional[np.ndarray] = None,
        labels: Optional[Sequence[Optional[str]]] = None,
        validate: bool = True,
    ):
        points = np.asarray(points, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise StoreError(
                f"points must be a (P, 3) array, got shape {points.shape}"
            )
        if offsets.ndim != 1 or offsets.shape[0] < 1:
            raise StoreError(
                f"offsets must be a (n + 1,) array, got shape {offsets.shape}"
            )
        n = offsets.shape[0] - 1
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
        if validate:
            if int(offsets[0]) != 0:
                raise StoreError("offsets[0] must be 0")
            if np.any(np.diff(offsets) < 0):
                raise StoreError("offsets must be non-decreasing")
            if int(offsets[-1]) != points.shape[0]:
                raise StoreError(
                    f"offsets[-1] ({int(offsets[-1])}) must equal the "
                    f"number of point rows ({points.shape[0]})"
                )
            if ids.shape != (n,):
                raise StoreError(
                    f"ids must have shape ({n},), got {ids.shape}"
                )
            if len(np.unique(ids)) != n:
                raise StoreError("trajectory ids must be unique")
            if labels is not None and len(labels) != n:
                raise StoreError(
                    f"labels must have length {n}, got {len(labels)}"
                )
        self.points = points
        self.offsets = offsets
        self.ids = ids
        self.labels = list(labels) if labels is not None else None
        self._id_to_pos = {int(tid): pos for pos, tid in enumerate(ids)}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_trajectories(
        cls, trajectories: Sequence[Trajectory]
    ) -> "ColumnarStore":
        """Pack object-backed trajectories into one columnar store.

        Trajectory ids are respected when all are present and unique,
        positional otherwise (the same rule as
        ``TrajTree``'s bulk-load), so a store round-trip preserves the id
        space an index over the same dataset would use.

        Input hardening: zero-point trajectories and non-finite (NaN/inf)
        coordinates raise :class:`StoreError` naming the offending
        trajectory — the DP kernels downstream would silently propagate
        NaNs into every distance they touch, so garbage is rejected at
        the packing boundary instead.
        """
        trajectories = list(trajectories)
        n = len(trajectories)
        for i, t in enumerate(trajectories):
            name = (f"id {t.traj_id}" if t.traj_id is not None
                    else f"position {i}")
            if len(t) == 0:
                raise StoreError(
                    f"trajectory {name} has zero points; stores only "
                    f"accept non-empty trajectories"
                )
            if not np.isfinite(t.data).all():
                raise StoreError(
                    f"trajectory {name} contains NaN/inf coordinates"
                )
        offsets = np.zeros(n + 1, dtype=np.int64)
        for i, t in enumerate(trajectories):
            offsets[i + 1] = offsets[i] + len(t)
        points = np.empty((int(offsets[-1]), 3), dtype=np.float64)
        for i, t in enumerate(trajectories):
            points[offsets[i]:offsets[i + 1]] = t.data
        ids = np.array(assign_ids(trajectories), dtype=np.int64)
        labels: Optional[List[Optional[str]]] = [
            t.label for t in trajectories
        ]
        if all(lab is None for lab in labels):
            labels = None
        return cls(points, offsets, ids, labels, validate=False)

    # ------------------------------------------------------------------ #
    # container surface
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of trajectories."""
        return self.offsets.shape[0] - 1

    @property
    def num_points(self) -> int:
        """Total st-point rows across all trajectories."""
        return self.points.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held (or mapped) by the three arrays."""
        return self.points.nbytes + self.offsets.nbytes + self.ids.nbytes

    def __contains__(self, traj_id: int) -> bool:
        return int(traj_id) in self._id_to_pos

    def trajectory(self, pos: int) -> Trajectory:
        """The trajectory at dataset position ``pos``, as a zero-copy view.

        The returned ``Trajectory.data`` is a slice of :attr:`points` —
        no rows are copied, whether the store is in-memory or mmap'd.
        Treat it as read-only (mmap-backed slices enforce this).
        """
        n = len(self)
        if not 0 <= pos < n:
            raise IndexError(f"trajectory position {pos} out of range")
        lo, hi = int(self.offsets[pos]), int(self.offsets[pos + 1])
        label = self.labels[pos] if self.labels is not None else None
        return Trajectory(
            self.points[lo:hi],
            traj_id=int(self.ids[pos]),
            label=label,
            validate=False,
        )

    def get(self, traj_id: int) -> Trajectory:
        """The trajectory with this id (zero-copy, like :meth:`trajectory`)."""
        pos = self._id_to_pos.get(int(traj_id))
        if pos is None:
            raise KeyError(f"trajectory id {traj_id} not in store")
        return self.trajectory(pos)

    def trajectories(self) -> List[Trajectory]:
        """All trajectories, in dataset order (each a zero-copy view)."""
        return [self.trajectory(i) for i in range(len(self))]

    def __iter__(self) -> Iterator[Trajectory]:
        for i in range(len(self)):
            yield self.trajectory(i)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, path: PathLike) -> None:
        """Write the store as a directory of ``.npy`` files + ``meta.json``.

        ``np.save`` writes float64/int64 verbatim, so a round-trip is
        bit-identical; the directory is created if missing.

        Crash-safe: stale temp files from an earlier interrupted save are
        swept first, each file goes through the
        :mod:`repro.store.atomic` write protocol, and ``meta.json`` —
        recording one sha256 checksum per array file — lands last.  A
        save that dies at any point leaves either the previous intact
        store or a directory whose damage :meth:`load` detects as a typed
        :class:`StoreError` (checksum or manifest mismatch).
        """
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        cleanup_stale_temps(root)
        checksums = {
            "points.npy": atomic_write_bytes(
                root / "points.npy",
                npy_bytes(np.ascontiguousarray(self.points)),
            ),
            "offsets.npy": atomic_write_bytes(
                root / "offsets.npy", npy_bytes(self.offsets)
            ),
            "ids.npy": atomic_write_bytes(
                root / "ids.npy", npy_bytes(self.ids)
            ),
        }
        meta = {
            "magic": _MAGIC,
            "version": _FORMAT_VERSION,
            "trajectories": len(self),
            "points": self.num_points,
            "labels": self.labels,
            "checksums": checksums,
        }
        atomic_write_json(root / "meta.json", meta)

    @classmethod
    def load(cls, path: PathLike, mmap: bool = True,
             verify: bool = True) -> "ColumnarStore":
        """Load a store written by :meth:`save`.

        ``mmap=True`` (default) maps ``points.npy`` read-only
        (``np.load(..., mmap_mode="r")``): trajectory views then read
        straight from the file and the resident cost is pages touched,
        not dataset size.  ``mmap=False`` reads everything into RAM.

        ``verify=True`` (default) checks every array file against the
        sha256 checksum ``meta.json`` records before trusting it, so a
        torn or bit-flipped file is a typed error, never wrong floats.
        The check streams each file once — ``verify=False`` skips it when
        mmap-opening a huge store whose load-time scan you cannot afford
        (integrity then rests on the atomic-write protocol alone).

        Raises :class:`StoreError` naming the missing/invalid piece for
        anything that is not a complete, compatible store directory.

        Opening also sweeps stale ``*.tmp*`` files a crashed writer left
        behind (:func:`repro.store.atomic.read_manifest`).
        """
        root = Path(path)
        if not root.is_dir():
            raise StoreError(f"{root!s} is not a store directory")
        meta_path = root / "meta.json"
        meta = read_manifest(
            meta_path, _MAGIC, _FORMAT_VERSION, StoreError,
            "a columnar trajectory store", "repack the store",
        )
        checksums = meta.get("checksums")
        if not isinstance(checksums, dict):
            raise StoreError(
                f"{meta_path!s} records no file checksums; "
                f"store incomplete or tampered with"
            )
        arrays = {}
        for name in _ARRAY_FILES:
            file = root / name
            if not file.is_file():
                raise StoreError(f"store file {file!s} is missing")
            if verify:
                expected = checksums.get(name)
                if not expected:
                    raise StoreError(
                        f"{meta_path!s} records no checksum for {name}"
                    )
                verify_checksum(file, expected, error_cls=StoreError)
            try:
                mode = "r" if (mmap and name == "points.npy") else None
                arrays[name] = np.load(file, mmap_mode=mode)
            except (OSError, ValueError) as exc:
                raise StoreError(
                    f"store file {file!s} is unreadable: {exc}"
                ) from None
        store = cls(
            arrays["points.npy"],
            arrays["offsets.npy"],
            arrays["ids.npy"],
            meta.get("labels"),
            validate=True,
        )
        if len(store) != meta.get("trajectories"):
            raise StoreError(
                f"{root!s}: meta.json promises {meta.get('trajectories')} "
                f"trajectories, arrays hold {len(store)}"
            )
        return store

    def __repr__(self) -> str:
        return (
            f"ColumnarStore(trajectories={len(self)}, "
            f"points={self.num_points})"
        )
