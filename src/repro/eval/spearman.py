"""Spearman rank correlation and the paper's k-NN comparison protocol.

Sec. V-C: robustness of a metric is the Spearman correlation between the
k-NN list computed on the clean database ``D1`` and the list for the same
query on the noised database ``D2``.  Because the two lists may not overlap,
the paper forms the *union* of the two lists, fetches every union element's
rank in each database's full ordering, and correlates those two rank
vectors.  :func:`knn_list_correlation` implements exactly that protocol.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence

import numpy as np

__all__ = ["spearman", "rank", "knn_list_correlation"]


def rank(values: Sequence[float]) -> np.ndarray:
    """Fractional ranks (average ranks for ties), 1-based."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.float64)
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rank correlation coefficient (tie-aware).

    Returns 1.0 for degenerate inputs of length < 2 or zero rank variance
    on both sides (two constant rankings agree trivially), following the
    convention that identical orderings correlate perfectly.
    """
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    if len(x) < 2:
        return 1.0
    rx = rank(x)
    ry = rank(y)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 and sy == 0.0:
        return 1.0
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def knn_list_correlation(
    dists_clean: Dict[Hashable, float],
    dists_noisy: Dict[Hashable, float],
    k: int,
) -> float:
    """The paper's protocol: Spearman over the union of the two k-NN lists.

    ``dists_clean`` / ``dists_noisy`` map every database trajectory id to
    its distance from the query in D1 / D2.  The two top-k lists are formed,
    their union is ranked within each full ordering, and the two rank
    vectors are correlated.  Values near 1 mean the metric's neighbourhoods
    survived the injected noise.
    """
    if set(dists_clean) != set(dists_noisy):
        raise ValueError("both databases must contain the same trajectory ids")
    if k <= 0:
        raise ValueError("k must be positive")

    def top_k(d: Dict[Hashable, float]) -> List[Hashable]:
        return [tid for tid, _ in sorted(d.items(), key=lambda x: (x[1], str(x[0])))[:k]]

    union = list(dict.fromkeys(top_k(dists_clean) + top_k(dists_noisy)))

    def ranks_of(d: Dict[Hashable, float]) -> List[float]:
        ordered = sorted(d.items(), key=lambda x: (x[1], str(x[0])))
        position = {tid: i for i, (tid, _) in enumerate(ordered)}
        return [float(position[tid]) for tid in union]

    return spearman(ranks_of(dists_clean), ranks_of(dists_noisy))
