"""Bootstrap confidence intervals for experiment statistics.

The paper reports point estimates (means over repeated draws); for a
reproduction it is useful to know whether an observed gap between two
metrics (e.g. EDwP vs EDR correlation) is larger than the resampling noise
of a laptop-scale run.  Percentile-bootstrap utilities over per-query /
per-draw result vectors provide that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["BootstrapCI", "bootstrap_mean_ci", "bootstrap_diff_ci"]


@dataclass(frozen=True)
class BootstrapCI:
    """A point estimate plus a percentile-bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (f"{self.estimate:.4f} "
                f"[{self.low:.4f}, {self.high:.4f}] "
                f"@{self.confidence:.0%}")


def bootstrap_mean_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Percentile bootstrap CI for the mean of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(num_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return BootstrapCI(
        estimate=float(arr.mean()),
        low=float(np.quantile(means, alpha)),
        high=float(np.quantile(means, 1.0 - alpha)),
        confidence=confidence,
    )


def bootstrap_diff_ci(
    values_a: Sequence[float],
    values_b: Sequence[float],
    confidence: float = 0.95,
    num_resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """CI for ``mean(A) - mean(B)`` over *paired* observations.

    Pairing (one observation per query for each metric) removes the shared
    query-difficulty variance, which is what makes small robustness sweeps
    interpretable.  Raises when the two vectors have different lengths.
    """
    a = np.asarray(values_a, dtype=np.float64)
    b = np.asarray(values_b, dtype=np.float64)
    if a.size != b.size:
        raise ValueError("paired bootstrap requires equal-length samples")
    if a.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    diffs = a - b
    ci = bootstrap_mean_ci(diffs, confidence, num_resamples, seed)
    return ci
