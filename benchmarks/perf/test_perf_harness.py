"""Tier-1 checks of the perf harness (benchmarks/perf): every workload
driven end to end at the ``--smoke`` scale, plus the helpers the numbers
rest on."""

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import perf_measure as pm  # noqa: E402
import perf_spans  # noqa: E402
import perf_workloads as pw  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((pm.REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert set(WORKLOADS) == set(pw.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_workload_end_to_end(workload, trace):
    doc = run.run_one(workload, seed=3, seconds=0.2, trace=trace,
                      scale="smoke")
    section = "per_layer" if trace else "end_to_end"
    assert set(doc["metrics"]) == {m["name"] for m in SPEC[section]}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    line = json.loads(run.contract_line(doc))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    else:
        assert doc["missing_targets"] == []
    assert doc["provenance"]["backend"] == "numpy"
    # nothing left behind: temp snapshot dirs removed, server stopped
    assert not any(pw.WORK.iterdir())


def test_cli_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "build_update",
         "--seed", "5", "--seconds", "0.2", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_corrupt_oracle_answer_exits_nonzero(monkeypatch, capsys):
    honest = pw.TrajTree.knn_scan

    def corrupt(self, query, k):
        answer = honest(self, query, k)
        return [(answer[0][0], answer[0][1] * 2 + 1.0)] + answer[1:]

    monkeypatch.setattr(pw.TrajTree, "knn_scan", corrupt)
    status = run.main(["--workload", "tree_knn", "--seed", "3",
                       "--seconds", "0.2", "--smoke"])
    assert status != 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


def test_seeded_inputs_reproduce_and_differ():
    def draws(seed):
        return pw.zipf_draws(50, 400, np.random.default_rng(seed)).tolist()

    def updates(seed):
        return pw.update_sequence(20, 12, 6, random.Random(seed))

    def kinds(seed):
        return pw.op_kinds(60, random.Random(seed))

    for make in (draws, updates, kinds):
        assert make(1) == make(1)
        assert make(1) != make(2)
    # zipf: rank 1 is drawn far more often than the tail
    counts = np.bincount(draws(1), minlength=50)
    assert counts[0] > 4 * counts[25:].max()
    # every delete names an id that is live when it runs
    live = set(range(20))
    for kind, arg in updates(7):
        if kind == "insert":
            live.add(20 + arg)
        else:
            assert arg in live
            live.remove(arg)
    assert len(live) == 20 + 12 - 6


def test_self_time_is_span_minus_direct_children():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3];  root -> b [5, 9];  lone [20, 21]
    spans = [
        ["root", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 3],
        ["a1", 2.0, 3.0, 1, 0, 0],
        ["b", 5.0, 9.0, 0, 0, 5],
        ["a", 20.0, 21.0, -1, 4, 1],
    ]
    assert perf_spans.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    totals = perf_spans.totals(spans)
    assert totals["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0,
                           "count": 4}
    assert totals["root"]["self_s"] == 3.0


def test_recorder_links_parent_and_query_id_and_restores_names():
    recorder = perf_spans.SpanRecorder()
    original = pw.TrajTree.knn
    recorder.install()
    assert pw.TrajTree.knn is not original
    recorder.uninstall()
    assert pw.TrajTree.knn is original
    outer = recorder.wrap(lambda: inner(), "outer")
    inner = recorder.wrap(lambda: None, "inner", count=lambda a, k: 7)
    outer()
    outer()
    rows = recorder.take()
    assert [r[0] for r in rows] == ["outer", "inner", "outer", "inner"]
    assert [r[3] for r in rows] == [-1, 0, -1, 2]       # parent span
    assert [r[4] for r in rows] == [0, 0, 2, 2]         # shared query id
    assert rows[1][5] == 7 and recorder.spans == []
    gone = perf_spans.SpanRecorder()
    gone.install([("repro.index.trajtree", None, "no_such_name", "x", None)])
    assert gone.missing == ["x"]


def test_percentile_refuses_thin_tails():
    values = list(range(199))
    assert pm.percentile(values, 0.5) == 99
    with pytest.raises(ValueError, match="samples beyond"):
        pm.percentile(values, 0.95)              # 9 beyond
    assert pm.percentile(list(range(200)), 0.95) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        pm.percentile(list(range(19)), 0.5)
    with pytest.raises(ValueError):
        pm.percentile([], 0.5, min_beyond=0)


def test_compare_verdicts(tmp_path, capsys):
    def write(name, values):
        lines = [
            json.dumps({"workload": "tree_knn", "trace": 0, "metrics": {
                "latency_p50_ms": {"value": v, "unit": "ms"}}})
            for v in values
        ]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    base = write("a", [10.0, 10.1, 9.9, 10.0])
    assert compare.main([base, write("same", [10.2, 10.1, 10.3, 10.2])]) == 0
    assert compare.main([base, write("slow", [15.0, 15.1, 14.9, 15.0])]) == 1
    assert compare.main([base, write("wild", [6.0, 10.0, 14.0, 18.0])]) == 2
    out = capsys.readouterr().out
    assert "regressed" in out and "unresolved" in out and " ok " in out
