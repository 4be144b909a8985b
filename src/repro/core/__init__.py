"""Core contribution of the paper: the EDwP distance family.

Public surface:

* :class:`~repro.core.trajectory.Trajectory`, :class:`~repro.core.trajectory.STPoint`,
  :class:`~repro.core.trajectory.Segment` — the data model (Definitions 1-3).
* :func:`~repro.core.edwp.edwp`, :func:`~repro.core.edwp.edwp_avg`,
  :func:`~repro.core.edwp.edwp_alignment` — Sec. III-A.
* :func:`~repro.core.edwp.edwp_many` — batched EDwP of one query against
  many trajectories (the hot path of index refinement and benchmarks).
* :func:`~repro.core.edwp_sub.edwp_sub`, :func:`~repro.core.edwp_sub.prefix_dist`
  — the sub-trajectory distance of Sec. IV-B (Eq. 5-6).
* :func:`~repro.core.backend.set_backend` /
  :func:`~repro.core.backend.get_backend` /
  :func:`~repro.core.backend.use_backend` — switch between the pure-Python
  reference DPs and the vectorized numpy kernels; :mod:`repro.core.backend`
  holds the switch and the one kernel table behind it (DESIGN.md,
  "Dual-backend EDwP kernels").
"""

from .trajectory import STPoint, Segment, Trajectory
from .edwp import (
    BACKENDS,
    BackendError,
    EditOp,
    EdwpResult,
    UnknownBackendError,
    edwp,
    edwp_alignment,
    edwp_avg,
    edwp_many,
    get_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "STPoint",
    "Segment",
    "Trajectory",
    "EditOp",
    "EdwpResult",
    "edwp",
    "edwp_alignment",
    "edwp_avg",
    "edwp_many",
    "BACKENDS",
    "BackendError",
    "UnknownBackendError",
    "get_backend",
    "set_backend",
    "use_backend",
]
