"""Unified batched distance-matrix engine.

The paper's headline experiments (the Table-1 feature comparison, the
Fig. 5 classification and robustness sweeps) all reduce to O(N²) pairwise
distance matrices over one metric at a time.  This module computes those
matrices through each metric's batched capability
(:attr:`repro.baselines.registry.DistanceSpec.many` — one query against a
whole target batch in lockstep), instead of dispatching N² individual
python calls:

* :func:`cross_matrix` — a ``(len(queries), len(targets))`` matrix, one
  batched row per query.
* :func:`pairwise_matrix` — the square self-matrix; for symmetric metrics
  only the upper triangle is computed (row ``i`` against ``trajs[i:]``)
  and mirrored.

Both accept a registry name (plus its parameters) or a prebuilt
:class:`~repro.baselines.registry.DistanceSpec` and follow the global
:func:`repro.core.set_backend` choice unless ``backend=`` pins one.
Metrics without a lockstep kernel (MA, Hausdorff, DISSIM, Lp) fall back
to a per-pair loop over ``spec.fn`` — same contract, no batching speedup.

Batched rows reuse each trajectory's cached
:meth:`~repro.core.trajectory.Trajectory.coords` matrix and pack
variable-length targets with lockstep padding, which is exact (answers
are read at each pair's own corner cell — see DESIGN.md, "Baseline
kernels", for the contract this engine guarantees).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.trajectory import Trajectory
from .ma import MAParams
from .registry import DistanceSpec, get_distance

__all__ = ["pairwise_matrix", "cross_matrix"]

MetricArg = Union[str, DistanceSpec]


def _resolve_spec(metric: MetricArg, **params) -> DistanceSpec:
    if isinstance(metric, DistanceSpec):
        if any(value is not None for value in params.values()):
            raise TypeError(
                "pass eps/ma_params/backend to get_distance, not alongside "
                "a prebuilt DistanceSpec"
            )
        return metric
    return get_distance(metric, **params)


def _row(spec: DistanceSpec, query: Trajectory,
         targets: Sequence[Trajectory]) -> List[float]:
    if spec.many is not None:
        return spec.many(query, targets)
    return [spec.fn(query, t) for t in targets]


def cross_matrix(
    queries: Sequence[Trajectory],
    targets: Sequence[Trajectory],
    metric: MetricArg = "edwp",
    *,
    eps: Optional[float] = None,
    ma_params: Optional[MAParams] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Distance matrix of every query against every target.

    ``metric`` is a registry name (``eps``/``ma_params``/``backend`` are
    forwarded to :func:`~repro.baselines.registry.get_distance`) or a
    prebuilt spec.  Returns a ``(len(queries), len(targets))`` float
    array; entry ``[i, j]`` equals ``metric(queries[i], targets[j])`` with
    the metric's own base-case semantics (``inf`` entries included).
    """
    spec = _resolve_spec(metric, eps=eps, ma_params=ma_params,
                         backend=backend)
    queries = list(queries)
    targets = list(targets)
    out = np.empty((len(queries), len(targets)), dtype=np.float64)
    for i, query in enumerate(queries):
        out[i, :] = _row(spec, query, targets)
    return out


def pairwise_matrix(
    trajs: Sequence[Trajectory],
    metric: MetricArg = "edwp",
    *,
    eps: Optional[float] = None,
    ma_params: Optional[MAParams] = None,
    backend: Optional[str] = None,
    symmetric: Optional[bool] = None,
) -> np.ndarray:
    """Square self-distance matrix over one trajectory set.

    ``symmetric`` defaults to the spec's own
    :attr:`~repro.baselines.registry.DistanceSpec.symmetric` flag: when
    true, row ``i`` is computed against ``trajs[i:]`` only and mirrored
    (halving the work); pass ``symmetric=False`` to force the full
    ``cross_matrix(trajs, trajs)`` — required for MA, whose alignment is
    directional.
    """
    spec = _resolve_spec(metric, eps=eps, ma_params=ma_params,
                         backend=backend)
    if symmetric is None:
        symmetric = spec.symmetric
    trajs = list(trajs)
    if not symmetric:
        return cross_matrix(trajs, trajs, spec)

    n = len(trajs)
    out = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        row = _row(spec, trajs[i], trajs[i:])
        out[i, i:] = row
        out[i:, i] = row
    return out
