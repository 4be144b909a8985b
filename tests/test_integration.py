"""End-to-end integration tests across the whole stack.

These walk the full user story: generate a fleet, split trips, inject
noise, index, query, and evaluate — the pipeline every figure of the paper
runs through.
"""

import numpy as np
import pytest

from repro import Trajectory, TrajTree, edwp, edwp_avg
from repro.baselines import EDRIndex, get_distance
from repro.datasets import (
    densify,
    generate_asl,
    generate_beijing,
    generate_cab_streams,
    interpolate_dataset,
    split_trips,
)
from repro.eval.knn import knn_scan
from repro.eval.robustness import make_noisy_dataset, pair_correlations
from repro.eval.spearman import knn_list_correlation


class TestFullPipeline:
    def test_streams_to_knn(self):
        """Raw streams -> trip splitting -> TrajTree -> exact k-NN."""
        streams = generate_cab_streams(4, trips_per_cab=3, seed=5)
        trips = split_trips(streams)
        trips = [t for t in trips if t.num_segments >= 1]
        assert len(trips) >= 4
        tree = TrajTree(trips, num_vps=10, min_node_size=4,
                        normalized=True, seed=0)
        q = trips[0]
        got = tree.knn(q, 3)
        want = tree.knn_scan(q, 3)
        assert [t for t, _ in got] == [t for t, _ in want]

    def test_noise_pipeline_correlation(self):
        """The Fig. 5 measurement loop on a small corpus, EDwP vs EDR."""
        clean = generate_beijing(25, seed=9)
        d1, d2 = make_noisy_dataset(clean, "inter", 1.0, seed=0)
        eps = 500.0
        metrics = {
            "EDwP": get_distance("edwp").fn,
            "EDR": get_distance("edr", eps=eps).fn,
        }
        result = pair_correlations(d1, d2, metrics, k=5, query_ids=[0, 7])
        edwp_corr = np.mean(result["EDwP"])
        edr_corr = np.mean(result["EDR"])
        assert edwp_corr > 0.85
        assert edwp_corr >= edr_corr - 1e-9

    def test_trajtree_beats_index_free_candidates(self, small_refine_flush):
        """TrajTree computes exact EDwP for fewer trajectories than a scan
        on clustered city data."""
        from repro.index.trajtree import TrajTreeStats

        db = generate_beijing(60, seed=3)
        tree = TrajTree(db, num_vps=20, normalized=True, seed=0)
        q = generate_beijing(3, seed=123)[2]
        stats = TrajTreeStats()
        got = tree.knn(q, 5, stats=stats)
        assert [t for t, _ in got] == [t for t, _ in tree.knn_scan(q, 5)]
        assert stats.exact_computations < len(db)

    def test_edr_index_on_interpolated_city_data(self):
        db = generate_beijing(30, seed=4)
        dbi = interpolate_dataset(db, max_points=64)
        idx = EDRIndex(dbi, eps=400.0, num_references=4, seed=0)
        qi = interpolate_dataset(generate_beijing(1, seed=321),
                                 max_points=64)[0]
        assert [t for t, _ in idx.knn(qi, 4)] == [
            t for t, _ in idx.knn_scan(qi, 4)
        ]

    def test_classification_pipeline(self):
        """ASL corpus -> 1-NN classification beats chance under EDwP."""
        from repro.eval.classification import cross_validated_accuracy

        ds = generate_asl(num_classes=5, instances_per_class=4, seed=11)
        acc = cross_validated_accuracy(ds, edwp_avg, folds=4, seed=0)
        assert acc > 1.0 / 5 + 0.2

    def test_densified_database_preserves_edwp_knn(self):
        """The headline robustness property at database level: densifying
        every trajectory leaves the EDwP k-NN list (near) unchanged."""
        db = generate_beijing(20, seed=6)
        rng = np.random.default_rng(0)
        noisy = [densify(t, 1.0, rng) for t in db]
        q = db[3]
        table1 = {t.traj_id: edwp_avg(q, t) for t in db}
        table2 = {t.traj_id: edwp_avg(q, t) for t in noisy}
        table1.pop(3)
        table2.pop(3)
        assert knn_list_correlation(table1, table2, k=5) > 0.95
