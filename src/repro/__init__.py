"""repro — reproduction of "Indexing and Matching Trajectories under
Inconsistent Sampling Rates" (Ranu, P, Telang, Deshpande, Raghavan;
ICDE 2015).

The package provides:

* ``repro.core`` — the EDwP distance family (Sec. III): the
  :class:`~repro.core.trajectory.Trajectory` model, :func:`~repro.core.edwp.edwp`,
  :func:`~repro.core.edwp.edwp_avg` and the sub-trajectory distance
  :func:`~repro.core.edwp_sub.edwp_sub`.
* ``repro.index`` — the TrajTree index (Sec. IV): st-boxes, tBoxSeqs, pivot
  partitioning and exact k-NN querying, plus the sharded
  :class:`~repro.index.forest.TrajForest` answering the same exact queries.
* ``repro.store`` — columnar, memory-mappable trajectory storage
  (:class:`~repro.store.ColumnarStore`): zero-copy store-backed
  trajectories every kernel and index consumes unchanged.
* ``repro.baselines`` — DTW, LCSS, ERP, EDR, DISSIM, MA, Lp, Fréchet,
  Hausdorff and an EDR filter-and-refine index (the paper's comparators),
  each dual-backend, plus the batched distance-matrix engine
  (:func:`~repro.baselines.matrix.pairwise_matrix` /
  :func:`~repro.baselines.matrix.cross_matrix`).
* ``repro.datasets`` — synthetic Beijing-taxi and ASL-sign workloads, the
  Sec. V noise protocols, trip splitting and uniform re-interpolation.
* ``repro.eval`` — classification, robustness, UB-factor and feature-matrix
  harnesses regenerating every table and figure (see the benchmark matrix
  in README.md).

Every distance runs on one of two interchangeable backends — the
pure-Python reference DPs and the vectorized numpy kernels
(``set_backend("numpy")``).  :mod:`repro.core.backend` holds the switch
and the one kernel table; DESIGN.md documents the contract between the
tiers ("Dual-backend EDwP kernels" and "Baseline kernels").

Quickstart::

    from repro import Trajectory, edwp_avg, TrajTree

    t1 = Trajectory([(0, 0, 0), (0, 10, 30)])
    t2 = Trajectory([(2, 0, 0), (2, 7, 14), (2, 10, 20)])
    print(edwp_avg(t1, t2))

    from repro.datasets import generate_beijing
    db = generate_beijing(200, seed=7)
    tree = TrajTree(db, normalized=True)
    print(tree.knn(db[0], k=5))
"""

from .core import (
    BACKENDS,
    BackendError,
    EditOp,
    EdwpResult,
    STPoint,
    Segment,
    Trajectory,
    UnknownBackendError,
    edwp,
    edwp_alignment,
    edwp_avg,
    edwp_many,
    get_backend,
    set_backend,
    use_backend,
)
from .core.edwp_sub import edwp_sub, edwp_sub_alignment, prefix_dist
from .index import TBoxSeq, TrajForest, TrajTree, edwp_sub_box
from .baselines import cross_matrix, pairwise_matrix
from .store import ColumnarStore

__version__ = "1.0.0"

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
    "get_backend",
    "set_backend",
    "use_backend",
    "BACKENDS",
    "BackendError",
    "UnknownBackendError",
    "edwp_sub",
    "edwp_sub_alignment",
    "prefix_dist",
    "TBoxSeq",
    "TrajTree",
    "TrajForest",
    "ColumnarStore",
    "edwp_sub_box",
    "cross_matrix",
    "pairwise_matrix",
    "__version__",
]
