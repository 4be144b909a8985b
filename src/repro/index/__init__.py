"""TrajTree index (paper Sec. IV).

Public surface:

* :class:`~repro.index.tboxseq.TBoxSeq`,
  :func:`~repro.index.tboxseq.edwp_sub_box` and
  :func:`~repro.index.tboxseq.edwp_sub_box_many` — box sequences (Def. 5;
  each st-box of Def. 4 is a row of its arrays) and the
  Theorem-2 node bound ``2 · Σ_s |s| · dist(s, ∪B)``, one vectorized pass
  on every backend (single and batched forms; DESIGN.md, "Index bound
  kernels").
* :func:`~repro.index.partition.partition` — pivot partitioning (Alg. 1).
* :class:`~repro.index.vantage.VantageIndex` — Lipschitz-style vantage
  descriptors and the VP-based upper bound (Sec. IV-E), for the Fig. 6(c)/(d)
  UB-factor experiment; the tree's search does not use them.
* :class:`~repro.index.trajtree.TrajTree` — the index with exact k-NN
  querying (Alg. 2).
* :class:`~repro.index.budget.QueryBudget` /
  :class:`~repro.index.budget.BudgetTracker` /
  :class:`~repro.index.budget.AnytimeResult` — cooperative query cost
  budgets and the anytime-answer contract (DESIGN.md, "Overload control
  and anytime queries").
* :class:`~repro.index.forest.TrajForest` — a sharded forest of
  TrajTrees answering the same exact queries (DESIGN.md, "Columnar store
  and sharded forest"), conforming to the
  :class:`~repro.index.protocol.QueryIndex` protocol the service layer
  serves.
* :func:`~repro.index.persistence.save_tree` /
  :func:`~repro.index.persistence.load_tree` and
  :func:`~repro.index.persistence.save_forest` /
  :func:`~repro.index.persistence.load_forest` — the two snapshot
  formats.
"""

from .tboxseq import TBoxSeq, edwp_sub_box, edwp_sub_box_many
from .budget import AnytimeResult, BudgetTracker, QueryBudget, combine_budgets
from .partition import partition
from .vantage import VantageIndex, select_vantage_points, vantage_distance, vp_distance
from .trajtree import TrajTree
from .forest import SHARD_SCHEMES, TrajForest, assign_shards
from .protocol import QueryIndex, ensure_query_index
from .persistence import (
    ShardLoadError,
    load_forest,
    load_tree,
    save_forest,
    save_tree,
)

__all__ = [
    "TBoxSeq",
    "edwp_sub_box",
    "edwp_sub_box_many",
    "partition",
    "QueryBudget",
    "BudgetTracker",
    "AnytimeResult",
    "combine_budgets",
    "VantageIndex",
    "select_vantage_points",
    "vantage_distance",
    "vp_distance",
    "TrajTree",
    "TrajForest",
    "SHARD_SCHEMES",
    "assign_shards",
    "QueryIndex",
    "ensure_query_index",
    "ShardLoadError",
    "load_tree",
    "save_tree",
    "load_forest",
    "save_forest",
]
