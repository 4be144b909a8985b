"""Clean-data accuracy — Fig. 5(a) (paper Sec. V-B).

The ASL-style dataset carries a sign label per trajectory.  The paper picks
``c`` random classes, runs 10-fold cross-validation with a 1-NN classifier
under each distance metric, and repeats the draw for stability.  Accuracy
as a function of ``c`` is Fig. 5(a); EDwP should degrade slowest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.trajectory import Trajectory
from .knn import DistanceFn, distance_values

__all__ = ["nn_classify", "cross_validated_accuracy", "classification_experiment",
           "ClassificationResult"]


def nn_classify(
    query: Trajectory,
    references: Sequence[Trajectory],
    distance: DistanceFn,
) -> Optional[str]:
    """Label of the nearest reference (1-NN); None for no references.

    Query-vs-references distances run through the metric's batched
    ``many`` form when it has one (:func:`repro.eval.knn.distance_values`),
    so the CV folds of Fig. 5(a) amortize numpy dispatch per test point.
    Ties keep the first-seen reference, matching the strict-``<`` scan.
    """
    references = list(references)
    if not references:
        return None
    values = distance_values(query, references, distance)
    best_label: Optional[str] = None
    best_d = float("inf")
    for ref, d in zip(references, values):
        if d < best_d:
            best_d = d
            best_label = ref.label
    return best_label


def cross_validated_accuracy(
    dataset: Sequence[Trajectory],
    distance: DistanceFn,
    folds: int = 10,
    seed: int = 0,
) -> float:
    """k-fold cross-validated 1-NN accuracy on a labelled dataset."""
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least two trajectories")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    folds = min(folds, n)
    correct = 0
    total = 0
    for f in range(folds):
        test_idx = set(order[f::folds])
        train = [dataset[i] for i in range(n) if i not in test_idx]
        for i in test_idx:
            predicted = nn_classify(dataset[i], train, distance)
            total += 1
            if predicted == dataset[i].label:
                correct += 1
    return correct / total if total else 0.0


@dataclass
class ClassificationResult:
    """Accuracy per metric per class count."""

    class_counts: List[int] = field(default_factory=list)
    accuracy: Dict[str, List[float]] = field(default_factory=dict)


def classification_experiment(
    dataset: Sequence[Trajectory],
    metrics: Dict[str, DistanceFn],
    class_counts: Sequence[int],
    repeats: int = 3,
    folds: int = 10,
    seed: int = 0,
) -> ClassificationResult:
    """The Fig. 5(a) sweep: accuracy vs number of classes.

    For each ``c`` in ``class_counts``, ``repeats`` random subsets of ``c``
    classes are drawn (the paper repeats 100 times; scale down via
    ``repeats``), 10-fold CV accuracy is measured per metric, and the mean
    over draws is reported.
    """
    labels = sorted({t.label for t in dataset if t.label is not None})
    by_label: Dict[str, List[Trajectory]] = {lab: [] for lab in labels}
    for t in dataset:
        if t.label is not None:
            by_label[t.label].append(t)

    result = ClassificationResult(class_counts=list(class_counts))
    for name in metrics:
        result.accuracy[name] = []

    rng = random.Random(seed)
    for c in class_counts:
        if c > len(labels):
            raise ValueError(f"dataset has only {len(labels)} classes, need {c}")
        draws = [rng.sample(labels, c) for _ in range(repeats)]
        for name, dist in metrics.items():
            accs: List[float] = []
            for draw_i, chosen in enumerate(draws):
                subset = [t for lab in chosen for t in by_label[lab]]
                accs.append(
                    cross_validated_accuracy(subset, dist, folds=folds,
                                             seed=seed + draw_i)
                )
            result.accuracy[name].append(float(np.mean(accs)))
    return result
