"""Fig. 5(a): multi-class 1-NN classification accuracy on the ASL workload.

Accuracy of EDwP, EDR, LCSS, DISSIM and MA as the number of sign classes
grows from 5 to 25 (10-fold CV, repeated class draws).  The paper's claims:
EDwP is most accurate at every class count and degrades slowest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..datasets import generate_asl
from ..eval.classification import classification_experiment
from .common import classification_metrics

__all__ = ["Fig5aResult", "run_fig5a"]


@dataclass
class Fig5aResult:
    """Accuracy per metric per class count."""

    class_counts: List[int] = field(default_factory=list)
    accuracy: Dict[str, List[float]] = field(default_factory=dict)


def run_fig5a(
    class_counts: Sequence[int] = (5, 10, 15, 20, 25),
    instances_per_class: int = 8,
    repeats: int = 2,
    folds: int = 5,
    seed: int = 7,
) -> Fig5aResult:
    """Run the Fig. 5(a) sweep at laptop scale.

    The full 98-class corpus is generated once; each cell draws ``repeats``
    random subsets of ``c`` classes (the paper repeats 100x with 10 folds;
    the defaults scale that down — see README.md's benchmark matrix).
    The 1-NN inner loops run each test point against its fold's references
    through the metrics' batched lockstep kernels.
    """
    dataset = generate_asl(
        num_classes=max(class_counts),
        instances_per_class=instances_per_class,
        seed=seed,
    )
    metrics = classification_metrics(dataset)
    res = classification_experiment(
        dataset, metrics, class_counts, repeats=repeats, folds=folds, seed=seed
    )
    return Fig5aResult(class_counts=res.class_counts, accuracy=res.accuracy)
