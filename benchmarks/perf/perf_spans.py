"""Spans recorded from outside the program, by attribute substitution.

The traced run wraps the names the layers call across their boundaries
(:data:`TARGETS`) with a recorder that notes name, start, end, parent span
and the query id shared by every span under one top-level call, plus a
batch-size count taken at the same boundary.  Spans stay in memory; a
layer's self time is its span minus the part its direct children cover.
Nothing under ``src/`` changes — a target that no longer exists is listed
in ``SpanRecorder.missing`` and its metrics read as absent, never as a
failed run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["SpanRecorder", "TARGETS", "self_times", "totals"]


def _len_of(position: int):
    """Count function: the length of the batch passed at ``position`` (0
    when a caller passes it by keyword — a count must never raise)."""
    def count(args, kwargs) -> int:
        return len(args[position]) if len(args) > position else 0

    return count


_len_arg0, _len_arg1 = _len_of(0), _len_of(1)


#: (module, owner class or None, attribute, span name, count function).
#: Module-level names are patched *in the namespace that calls them*
#: (``repro.index.trajtree`` imports its kernels by name), which is the
#: layer boundary.
TARGETS = [
    ("repro.index.trajtree", None, "edwp_many", "core.edwp_many", _len_arg1),
    ("repro.index.trajtree", None, "edwp_sub_many", "core.edwp_sub_many",
     _len_arg1),
    ("repro.index.trajtree", None, "edwp_sub_fast_queries",
     "core.edwp_sub_fast_queries", _len_arg0),
    ("repro.index.trajtree", None, "polyline_rects_distance",
     "core.geometry.quick_bound", _len_arg1),
    ("repro.index.trajtree", None, "edwp_sub_box_many",
     "index.tboxseq.box_bound", _len_arg1),
    ("repro.index.trajtree", None, "partition", "index.partition", None),
    ("repro.index.vantage", "VantageIndex", "build", "index.vantage.build",
     None),
    ("repro.index.vantage", "VantageIndex", "describe",
     "index.vantage.describe", None),
    ("repro.index.vantage", "VantageIndex", "top_k", "index.vantage.top_k",
     None),
    ("repro.index.tboxseq", "TBoxSeq", "from_trajectories",
     "index.tboxseq.from_trajectories", _len_arg0),
    ("repro.index.tboxseq", "TBoxSeq", "with_trajectory",
     "index.tboxseq.with_trajectory", None),
    ("repro.index.trajtree", "TrajTree", "__init__", "index.trajtree.build",
     _len_arg1),
    ("repro.index.trajtree", "TrajTree", "knn", "index.trajtree.knn", None),
    ("repro.index.trajtree", "TrajTree", "range_query",
     "index.trajtree.range", None),
    ("repro.index.trajtree", "TrajTree", "subtrajectory_knn",
     "index.trajtree.subknn", None),
    ("repro.index.trajtree", "TrajTree", "warm_caches", "index.warm_caches",
     None),
    ("repro.index.forest", "TrajForest", "knn", "index.forest.knn", None),
    ("repro.index.forest", "TrajForest", "query_many",
     "index.forest.query_many", _len_arg1),
    ("repro.index.persistence", None, "save_tree",
     "index.persistence.save_tree", None),
    ("repro.index.persistence", None, "load_tree",
     "index.persistence.load_tree", None),
    ("repro.index.persistence", None, "save_forest",
     "index.persistence.save_forest", None),
    ("repro.index.persistence", None, "load_forest",
     "index.persistence.load_forest", None),
    ("repro.store.columnar", "ColumnarStore", "save", "store.columnar.save",
     None),
    ("repro.store.columnar", "ColumnarStore", "load", "store.columnar.load",
     None),
]

#: The spans that are one query each; everything below them shares their id.
QUERY_SPANS = ("index.trajtree.knn", "index.trajtree.range",
               "index.trajtree.subknn")


class SpanRecorder:
    """In-memory span log plus the install/uninstall of the wrappers.

    ``spans`` rows are ``[name, start, end, parent, query_id, count]`` with
    ``parent`` an index into the same list (``-1`` for a root) and
    ``query_id`` the index of the root span.  One stack per thread: the
    service computes on an executor thread while the event loop keeps
    running.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        span = [name, 0.0, None, parent, -1, 0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        span[4] = self.spans[parent][4] if stack else index
        stack.append(index)
        span[1] = self._clock()
        return index

    def end(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[2] = self._clock()
        span[5] = count
        self._local.stack.pop()

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index, count(args, kwargs) if count else 0)

        traced.__wrapped__ = fn
        return traced

    # -- attribute substitution ------------------------------------------

    def install(self, targets: Sequence[tuple] = TARGETS) -> None:
        for module_name, owner_name, attr, name, count in targets:
            try:
                owner = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, name, count))
            else:
                wrapped = self.wrap(raw, name, count)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def take(self) -> List[list]:
        """Hand over the finished spans and start an empty log (call it
        between phases, when no span is open)."""
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "missing": self.missing}, f)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus the part its direct children cover.

    Children of one span run one after another on the parent's thread, so
    the covered part is the sum of their durations, each clipped to the
    parent's interval.
    """
    out = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            lo = max(span[1], spans[parent][1])
            hi = min(span[2], spans[parent][2])
            out[parent] -= max(0.0, hi - lo)
    return out


def totals(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds, self seconds, summed count."""
    out: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(
            span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
        row["count"] += span[5]
    return out
