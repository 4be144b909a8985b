"""Compare two sets of harness results, one row per (metric, workload).

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl [--layers]

``A`` is the base (the parent commit, or the first of two acceptance
sets), ``B`` the candidate; each file holds the JSON lines ``run.py --out``
appended, any number of runs per workload.  A row shows both medians, the
ratio ``B/A`` with its base, the bound ``BENCHMARK.json`` fixes for the
metric and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread of either side (interquartile
                distance over median, three or more runs) is wider than
                the bound, so the row cannot tell either way.

``--layers`` adds the per-layer metrics of the traced runs (no bound, no
verdict: they explain a row, they do not gate it).  Exit status: 1 when a
row regressed, 2 when none did but some are unresolved, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def load(path: str) -> dict:
    """``{(trace, workload, metric): [values...]}`` of one result file."""
    out = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        for metric, m in doc["metrics"].items():
            if m["value"] is not None:
                out[doc["trace"], doc["workload"], metric].append(m["value"])
    return out


def spread(values) -> float:
    if len(values) < 3:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a, b, better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, cand = statistics.median(a), statistics.median(b)
    worse = (cand - base) if better == "lower" else (base - cand)
    return "regressed" if worse > bound * abs(base) else "ok"


def rows(a: dict, b: dict, layers: bool):
    sections = [(0, SPEC["end_to_end"])]
    if layers:
        sections.append((1, SPEC["per_layer"]))
    for trace, metrics in sections:
        for workload in (w["name"] for w in SPEC["workloads"]):
            for m in metrics:
                key = (trace, workload, m["name"])
                if key in a and key in b:
                    yield workload, m, a[key], b[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    a, b = load(args.base), load(args.candidate)
    counts = defaultdict(int)
    print(f"{'workload':<13}{'metric':<50}{'A':>12}{'B':>12}  "
          f"{'B/A':>7}  {'bound':>6}  {'spread A/B':>12}  verdict")
    for workload, m, va, vb in rows(a, b, args.layers):
        base, cand = statistics.median(va), statistics.median(vb)
        ratio = f"{cand / base:7.3f}" if base else "    n/a"
        if "bound" in m:
            bound = f"{m['bound']:6.2f}"
            result = verdict(va, vb, m["better"], m["bound"])
            counts[result] += 1
        else:
            bound, result = "     -", "-"
        print(f"{workload:<13}{m['name']:<50}{base:>12.5g}{cand:>12.5g}  "
              f"{ratio}  {bound}  {spread(va):>5.3f}/{spread(vb):<5.3f}  "
              f"{result}  (base {base:.5g} {m['unit']}, "
              f"n={len(va)}/{len(vb)})")
    print(f"# {counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    if counts["regressed"]:
        return 1
    return 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
