"""The documentation contract: referenced docs exist and keep their anchors.

Docstrings across the package send the reader to DESIGN.md sections and
README.md's benchmark matrix; this locks those promises in, alongside the
standalone checker (``tools/check_doc_links.py``) that CI runs.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_no_dangling_doc_references():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from check_doc_links import dangling_references
    finally:
        sys.path.pop(0)
    assert dangling_references() == []


def test_design_md_keeps_promised_sections():
    """Every section docstrings point at must stay in DESIGN.md."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    for heading in (
        "## The EDwPsub DP realization",
        "## TrajTree leaf refinement",
        "## Partition balance guard",
        "## Dataset substitution table",
        "## Dual-backend EDwP kernels",
        "## Baseline kernels",
        "## Index bound kernels",
        "### Batched leaf refinement",
        "## Query service",
        "## Columnar store and sharded forest",
        "## Fault model and degraded serving",
        "## Compiled tier: deleted",
        "## Overload control and anytime queries",
    ):
        assert heading in text, f"DESIGN.md lost section {heading!r}"
    # the deviations those sections must keep documenting
    for keyword in ("Viterbi", "min_node_size", "nearest pivot",
                    "T-Drive", "Sign Language", "lockstep"):
        assert keyword in text
    # the baseline-kernels section must keep its anchored sub-contracts
    for keyword in ("anti-diagonal", "pairwise_matrix", "cross_matrix",
                    "eps-threshold conventions", "corner cell",
                    "<= eps", "delta > 0", "DistanceSpec.symmetric"):
        assert keyword in text, f"DESIGN.md lost {keyword!r}"
    # the index-bound-kernels section must keep its sub-contracts
    for keyword in ("dist(s, ∪B)", "Rounding margin", "geometry()",
                    "distance_rows", "REFINE_FLUSH", "members_pruned",
                    "fig6a_bound_gate"):
        assert keyword in text, f"DESIGN.md lost {keyword!r}"
    # the query-service section must keep its sub-contracts
    for keyword in ("coalescing window", "singleflight", "snapshot id",
                    "ServiceOverloaded", "RequestTimeout", "query_many",
                    "service_gate", "naive serial dispatch"):
        assert keyword in text, f"DESIGN.md lost {keyword!r}"
    # the store/forest section must keep its sub-contracts
    for keyword in ("offsets[-1] == P", "round-robin",
                    "mmap_mode=\"r\"", "StoreError", "heapq.merge",
                    "(distance, traj_id)", "forest.json", "ShardLoadError",
                    "forest_gate", "elementwise sum"):
        assert keyword in text, f"DESIGN.md lost {keyword!r}"
    # the fault-model section must keep its sub-contracts
    for keyword in ("os.replace", "fsync", "sha256", "verify_checksum",
                    "on_shard_error", "shard_census", "full jitter",
                    "ServiceConnectionError", "repro.testing.faults",
                    "resilience_gate"):
        assert keyword in text, f"DESIGN.md lost {keyword!r}"
    # the overload-control section must keep its sub-contracts
    for keyword in ("QueryBudget", "BudgetTracker", "AnytimeResult",
                    "bound_factor", "residual", "shard_exact",
                    "max_inflight - reserved_control", "half_open",
                    "retry_after", "RetryExhausted", "combine_budgets",
                    "p99 / SLO", "overload_gate"):
        assert keyword in text, f"DESIGN.md lost {keyword!r}"
    # the compiled-tier decision record must keep its sub-contracts
    for keyword in ("UnknownBackendError", "not re-measured", "×5", "×1.5",
                    "BENCHMARK.json", "--backend", "on_shard_error=\"skip\"",
                    "tree.backend = None"):
        assert keyword in text, f"DESIGN.md lost {keyword!r}"
    # in-page anchors that README/docstrings point at must resolve to a
    # heading (GitHub slug rule: lowercase, spaces -> dashes)
    slugs = {
        re.sub(r"[^a-z0-9 -]", "", line.lstrip("#").strip().lower())
        .replace(" ", "-")
        for line in text.splitlines() if line.startswith("#")
    }
    for anchor in ("baseline-kernels", "dual-backend-edwp-kernels",
                   "the-edwpsub-dp-realization", "trajtree-leaf-refinement",
                   "dataset-substitution-table", "index-bound-kernels",
                   "batched-leaf-refinement", "query-service",
                   "columnar-store-and-sharded-forest",
                   "fault-model-and-degraded-serving",
                   "compiled-tier-deleted",
                   "overload-control-and-anytime-queries"):
        assert anchor in slugs, f"DESIGN.md anchor #{anchor} no longer resolves"


def test_readme_covers_the_promised_ground():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for needle in (
        "examples/quickstart.py",
        "python -m repro",
        "set_backend",
        "edwp_many",
        "bench_core_ops.py",
        "repro.core.edwp",        # paper -> module map
        "DESIGN.md",
        # the baseline-family backend guide and matrix-engine quickstart
        "pairwise_matrix",
        "cross_matrix",
        "dtw_many",
        "repro.baselines.fast",
        "DESIGN.md#baseline-kernels",
        "bench_table1_features.py",
        # the index bound engine's backend guide and gate
        "DESIGN.md#index-bound-kernels",
        "bench_fig6a_querytime_dbsize.py",
        # the query service quickstart and gate
        "repro serve",
        "repro.service",
        "ServiceClient",
        "DESIGN.md#query-service",
        "bench_service_throughput.py",
        # the columnar-store / forest quickstart and gate
        "repro.store",
        "build-store",
        "build-forest",
        "--forest",
        "TrajForest",
        "ColumnarStore",
        "DESIGN.md#columnar-store-and-sharded-forest",
        "bench_forest_scale.py",
        # the fault-tolerance ops notes and chaos gate
        "--on-shard-error",
        "RetryPolicy",
        "health",
        "reload",
        "ServiceConnectionError",
        "SIGTERM",
        "repro.testing.faults",
        "DESIGN.md#fault-model-and-degraded-serving",
        "bench_service_resilience.py",
        # the overload-control ops notes and gate
        "QueryBudget",
        "--slo-ms",
        "RetryExhausted",
        "ServiceUnavailable",
        "retry_after",
        "DESIGN.md#overload-control-and-anytime-queries",
        "bench_service_overload.py",
        # the two-backend guide and differential matrix
        "UnknownBackendError",
        "DESIGN.md#compiled-tier-deleted",
        "test_backend_matrix.py",
    ):
        assert needle in text, f"README.md lost {needle!r}"
