"""Tables I/II and the Fig. 1 scenario numbers.

Regenerates the robustness feature matrix empirically (probe distances, see
:mod:`repro.eval.feature_matrix`), checks the paper's fully specified
worked examples (the Fig. 1(c) EDR threshold flip, the Fig. 1(d) MA
ordering pathology, the Appendix-A triangle-inequality counterexample and
the Example-1/4 EDwP anchors), and reports agreement with the printed
Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..baselines import MAParams, get_distance
from ..core import Trajectory, edwp
from ..core.edwp_sub import edwp_sub
from ..baselines.edr import edr
from ..baselines.ma import ma
from ..eval.feature_matrix import (
    FeatureProbe,
    feature_matrix,
    fig1d_ordering_scenario,
    format_feature_table,
)

__all__ = ["Table1Result", "run_table1", "scenario_anchors"]


@dataclass
class Table1Result:
    """Empirical feature matrix plus scenario anchor values."""

    probes: Dict[str, Dict[str, FeatureProbe]] = field(default_factory=dict)
    threshold_free: Dict[str, bool] = field(default_factory=dict)
    anchors: Dict[str, float] = field(default_factory=dict)
    rendered: str = ""


def scenario_anchors() -> Dict[str, float]:
    """Every fully-specified number the paper prints for its scenarios."""
    # Appendix A: triangle inequality counterexample
    t1 = Trajectory.from_xy([(0, 0), (0, 1)])
    t2 = Trajectory.from_xy([(0, 0), (0, 1), (0, 2)])
    t3 = Trajectory.from_xy([(0, 0), (0, 1), (0, 2), (0, 3)])

    # Fig. 2(a) / Examples 1 and 4 (T1's second segment is not printed in
    # the paper; only the EDwPsub(T2, T1) = 80 value is fully determined)
    fig2_t1 = Trajectory([(0, 0, 0), (0, 10, 30), (3, 17, 51)])
    fig2_t2 = Trajectory([(2, 0, 0), (2, 7, 14), (2, 10, 20)])

    # Fig. 1(c): phase-shifted pair, EDR = max at eps 2 but 0 at eps 3
    pha = Trajectory([(0, 0, 0), (0, 50, 50), (0, 100, 100)])
    phb = Trajectory([(0, 3, 0), (0, 53, 50), (0, 103, 100)])

    return {
        "appendixA_edwp_t1_t2": edwp(t1, t2),        # paper: 1
        "appendixA_edwp_t2_t3": edwp(t2, t3),        # paper: 1
        "appendixA_edwp_t1_t3": edwp(t1, t3),        # paper: 4
        "example4_edwpsub_t2_t1": edwp_sub(fig2_t2, fig2_t1),  # paper: 80
        "fig1c_edr_eps2": float(edr(pha, phb, 2.0)),  # paper: 3 (maximum)
        "fig1c_edr_eps3": float(edr(pha, phb, 3.0)),  # paper: 0
    }


def run_table1(eps: float = 3.0) -> Table1Result:
    """Build the empirical Table I and the scenario anchors.

    ``eps`` parameterizes the threshold-dependent comparators for the
    behavioural probes (the probe trajectories live on a ~100-unit extent;
    3.0 matches the paper's Fig. 1 scale).  Every metric follows the
    global :func:`repro.core.set_backend` choice; all backends produce the
    same table (the kernels agree to float tolerance).
    """
    metrics = {
        "DTW": get_distance("dtw"),
        "LCSS": get_distance("lcss", eps=eps),
        "ERP": get_distance("erp"),
        "EDR": get_distance("edr", eps=eps),
        "DISSIM": get_distance("dissim"),
        "MA": get_distance("ma", ma_params=MAParams(gap_penalty=5.0,
                                                    match_threshold=eps)),
        "EDwP": get_distance("edwp"),
    }
    threshold_free = {
        name: spec.threshold_free for name, spec in metrics.items()
    }
    probes = feature_matrix(metrics)
    anchors = scenario_anchors()

    # Fig. 1(d): MA rates the out-of-order T1 as close to T2 as the ordered
    # T3 is, while EDwP separates them.
    t1, t2, t3 = fig1d_ordering_scenario()
    anchors["fig1d_ma_ratio"] = (
        ma(t1, t2) / max(ma(t3, t2), 1e-12)
    )
    anchors["fig1d_edwp_ratio"] = (
        edwp(t1, t2) / max(edwp(t3, t2), 1e-12)
    )

    rendered = format_feature_table(probes, threshold_free)
    return Table1Result(
        probes=probes,
        threshold_free=threshold_free,
        anchors=anchors,
        rendered=rendered,
    )
