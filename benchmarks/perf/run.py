"""One benchmark for the whole stack (see README.md next to this file).

    python3 benchmarks/perf/run.py --workload <name|all> --seed <int> \\
        [--seconds S] [--trace 0|1] [--out FILE] [--smoke]

One invocation runs one workload in this (fresh) process, checks its
answers against oracles, prints every metric by name with its unit and, as
the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, measured with nothing
wrapped; ``--trace 1`` reports the per-layer metrics, from a traced pass
plus stand-alone timings.  ``--workload all`` runs every workload both
ways, each in its own child process.  ``--out`` appends one JSON line per
run (provenance, phase walls, sample counts, metrics) — the input of
``compare.py``.  The exit status is non-zero when any answer was wrong,
refused or failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import perf_measure as pm  # noqa: E402
import perf_spans  # noqa: E402
import perf_workloads as pw  # noqa: E402
from perf_measure import now  # noqa: E402

SPEC = json.loads((pm.REPO_ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def run_untraced(workload: pw.Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics, nothing wrapped.

    The run is split over ``replicas`` independent copies of the workload
    (sub-seeds of the seed), each set up, measured and verified on its
    own: ``setup_s`` is the median set-up, latencies pool across the
    copies, and the figures depend less on what one seed happened to
    generate.  Times are at the speed probe's nominal speed
    (``perf_measure.Stopwatch``); ``phases`` keeps the walls as measured.
    """
    setups, amplification, latencies = [], [], []
    ops = wall = points = build_s = attempted = failed = 0
    phases = {"setup_s": [], "measure_s": [], "verify_s": []}
    slowdown = {"setup": [], "measure": []}
    for replica in range(workload.replicas):
        with contextlib.ExitStack() as cleanup:
            t0 = now()
            watch = pm.Stopwatch(5)
            state, setup_s = watch.time(
                lambda: workload.setup(seed * 1000 + replica, cleanup))
            t1 = now()
            measured = workload.measure(state, seconds / workload.replicas)
            t2 = now()
            checked, wrong = workload.verify(state, measured)
            snapshot, raw = workload.footprint(state)
            t3 = now()
        setups.append(setup_s)
        points += state.points
        build_s += state.build_s
        amplification.append(snapshot / raw)
        latencies.extend(measured.latencies_ms)
        ops += measured.ops
        wall += measured.wall
        attempted += checked
        failed += wrong
        slowdown["setup"].append(watch.slowdown)
        slowdown["measure"].append(measured.slowdown)
        for name, value in zip(phases, (t1 - t0, t2 - t1, t3 - t2)):
            phases[name].append(value)
    mb = workload.min_beyond
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_qps": ops / wall,
            "latency_p50_ms": pm.percentile(latencies, 0.50, mb),
            "latency_p95_ms": pm.percentile(latencies, 0.95, mb),
            "peak_rss_mb": pm.peak_rss_mb(workload.rss_of_children),
            "build_points_per_s": points / build_s,
            "snapshot_amplification": statistics.median(amplification),
        },
        "attempted": attempted,
        "failed": failed,
        "phases": phases,
        "slowdown": slowdown,
        "samples": {"latency_p50_ms": len(latencies),
                    "latency_p95_ms": len(latencies)},
    }


def run_traced(workload: pw.Workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics: one copy of the workload, its set-up and one
    timed pass recorded as spans, one identical pass untraced (counters,
    per-kind latencies, and the base the tracing overhead is read off)."""
    recorder = perf_spans.SpanRecorder()
    with contextlib.ExitStack() as cleanup:
        recorder.install()
        try:
            state = workload.setup(seed * 1000, cleanup)
        finally:
            recorder.uninstall()
        setup_spans = recorder.take()
        base = workload.measure(state, seconds / 2)
        traced, query_spans = workload.measure_traced(state, seconds / 2,
                                                      recorder)
        attempted, failed = workload.verify(state, base)
        layer = workload.layers(state, base, traced, setup_spans, query_spans)
    layer["bench.trace_overhead_share"] = (
        (traced.wall / traced.ops) / (base.wall / base.ops) - 1.0
    )
    layer["bench.failed_share"] = failed / attempted
    return {"metrics": layer, "attempted": attempted, "failed": failed,
            "missing_targets": recorder.missing,
            "samples": {"spans": len(setup_spans) + len(query_spans)}}


def run_one(name: str, seed: int, seconds: float, trace: int,
            scale: str) -> dict:
    sizes = dict(pw.SIZES["trace" if trace and scale == "full" else scale]
                 [name])
    min_beyond = pm.MIN_BEYOND if scale == "full" else 0
    workload = pw.WORKLOADS[name](sizes, min_beyond)
    t0 = now()
    doc = (run_traced if trace else run_untraced)(workload, seed, seconds)
    wanted = units("per_layer" if trace else "end_to_end")
    unknown = set(doc["metrics"]) - set(wanted)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    doc["metrics"] = {
        metric: {"value": doc["metrics"].get(metric), "unit": unit}
        for metric, unit in wanted.items()
    }
    doc.update(workload=name, trace=trace, scale=scale, seconds=seconds,
               wall_s=now() - t0, correct=doc["failed"] == 0,
               provenance=pm.provenance(seed, pw.BACKEND, sizes))
    return doc


def contract_line(doc: dict) -> str:
    """The result object the benchmark driver reads.  A per-layer metric
    the workload never touches (or whose wrapped name is gone) reads 0."""
    metrics = {
        name: {"value": m["value"] if m["value"] is not None else 0.0,
               "unit": m["unit"]}
        for name, m in doc["metrics"].items()
    }
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(pw.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append one JSON line per run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: drives every code path in seconds")
    args = parser.parse_args(argv)

    if args.workload == "all":
        status = 0
        for name in pw.WORKLOADS:
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                       name, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(trace)]
                cmd += ["--out", args.out] if args.out else []
                cmd += ["--smoke"] if args.smoke else []
                status = max(status, subprocess.call(cmd))
        return status

    doc = run_one(args.workload, args.seed, args.seconds, args.trace,
                  "smoke" if args.smoke else "full")
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(doc) + "\n")
    print(f"# {doc['workload']} seed={args.seed} trace={args.trace} "
          f"{doc['wall_s']:.1f}s attempted={doc['attempted']} "
          f"failed={doc['failed']}")
    for name, m in doc["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<52}{value:>14} {m['unit']}")
    print(contract_line(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the server subprocess is
    # stopped and the temp directories removed on that path too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
