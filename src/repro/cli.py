"""Command-line experiment runner: ``python -m repro <experiment> [options]``.

Every table and figure of the paper can be regenerated from the shell:

    python -m repro table1
    python -m repro fig5a --classes 5 10 15 --instances 6
    python -m repro fig5b            # robustness vs k (inter protocol)
    python -m repro fig5c            # robustness vs n
    python -m repro fig5j --db-size 150
    python -m repro fig6a --db-sizes 50 100 200
    python -m repro fig6b
    python -m repro fig6c
    python -m repro fig6d
    python -m repro fig6e            # build time (same sweep as fig6a)
    python -m repro fig6f            # build time vs theta

Output is the textual equivalent of the figure: the x-axis sweep with one
column per technique.

Beyond the figures, ``python -m repro serve`` runs the concurrent query
service (``repro.service``): a warm index behind an asyncio TCP server
with request coalescing, an LRU result cache, bounded-queue backpressure
and a ``/stats`` endpoint — see DESIGN.md, "Query service", and the
README quickstart:

    python -m repro --backend numpy serve --synthetic 200 --port 8765

The storage/scale pipeline (DESIGN.md, "Columnar store and sharded
forest") has its own subcommands: ``build-store`` packs a dataset (CSV,
JSON, or synthetic) into a columnar, memory-mappable ``repro.store``
directory; ``build-forest`` builds a sharded TrajTree forest from a
store — optionally in parallel worker processes — and writes a
ForestSnapshot; ``serve --forest`` serves that snapshot exactly like a
single-tree ``--index``:

    python -m repro build-store --synthetic 5000 --out data.store
    python -m repro --backend numpy build-forest --store data.store \\
        --shards 8 --workers 4 --out forest.idx
    python -m repro serve --forest forest.idx --port 8765

``--backend numpy`` (before the experiment name) runs **every** distance —
the EDwP family and all baseline comparators (DTW, EDR, ERP, LCSS,
Fréchet, Hausdorff, DISSIM) — through the vectorized kernels instead of
the pure-Python reference DPs, and the harnesses batch each
query-vs-database sweep through the lockstep kernels: same numbers, an
order of magnitude less waiting on the larger sweeps (see DESIGN.md,
"Baseline kernels").  The index experiments (fig5j, fig6a-f) additionally
run TrajTree's exact refinement and build-time pivot selection through
the lockstep kernels (the node bound is one vectorized pass on every
backend; DESIGN.md, "Index bound kernels") — identical trees and neighbor
sets, several times faster queries and builds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core import BACKENDS, set_backend
from .eval.timing import format_series_table
from .experiments import (
    PAPER_PROTOCOL_FIGURES,
    robustness_sweep,
    run_fig5a,
    run_fig5j,
    run_fig6c,
    run_fig6d,
    run_scaling,
    run_table1,
    run_theta_sweep,
)

__all__ = ["main"]

_ROBUST_FIGS = {
    "fig5b": ("inter", "k"), "fig5c": ("inter", "n"),
    "fig5d": ("intra", "k"), "fig5e": ("intra", "n"),
    "fig5f": ("phase", "k"), "fig5g": ("phase", "n"),
    "fig5h": ("perturb", "k"), "fig5i": ("perturb", "n"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the tables and figures of the EDwP/TrajTree "
                    "paper (ICDE 2015) at laptop scale.",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="distance backend for every metric (EDwP and all baseline "
             "comparators): the pure-Python reference DPs (default) or the "
             "vectorized numpy kernels (same results, faster sweeps)",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    sub.add_parser("table1", help="Tables I/II + Fig. 1 scenario anchors")

    p5a = sub.add_parser("fig5a", help="classification accuracy vs #classes")
    p5a.add_argument("--classes", type=int, nargs="+", default=[5, 10, 15, 20, 25])
    p5a.add_argument("--instances", type=int, default=8)
    p5a.add_argument("--repeats", type=int, default=2)
    p5a.add_argument("--seed", type=int, default=7)

    for name, (protocol, vary) in _ROBUST_FIGS.items():
        p = sub.add_parser(
            name,
            help=f"robustness: {protocol} protocol vs {vary}",
        )
        p.add_argument("--db-size", type=int, default=60)
        p.add_argument("--queries", type=int, default=3)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--no-edr-i", action="store_true",
                       help="skip the expensive EDR-I comparator")

    p5j = sub.add_parser("fig5j", help="query time vs k")
    p5j.add_argument("--db-size", type=int, default=200)
    p5j.add_argument("--k-values", type=int, nargs="+", default=[5, 10, 20, 30, 50])
    p5j.add_argument("--queries", type=int, default=3)
    p5j.add_argument("--seed", type=int, default=7)

    for name in ("fig6a", "fig6e"):
        p = sub.add_parser(
            name,
            help="query time vs db size" if name == "fig6a"
            else "index build time vs db size",
        )
        p.add_argument("--db-sizes", type=int, nargs="+",
                       default=[50, 100, 200, 400])
        p.add_argument("--queries", type=int, default=3)
        p.add_argument("--seed", type=int, default=7)

    for name in ("fig6b", "fig6f"):
        p = sub.add_parser(
            name,
            help="query time vs theta" if name == "fig6b"
            else "build time vs theta",
        )
        p.add_argument("--thetas", type=float, nargs="+",
                       default=[0.2, 0.4, 0.6, 0.8, 0.95])
        p.add_argument("--db-size", type=int, default=150)
        p.add_argument("--seed", type=int, default=7)

    p6c = sub.add_parser("fig6c", help="UB-factor vs #VPs")
    p6c.add_argument("--vps", type=int, nargs="+", default=[10, 20, 40, 80, 160])
    p6c.add_argument("--db-size", type=int, default=120)
    p6c.add_argument("--seed", type=int, default=7)

    p6d = sub.add_parser("fig6d", help="UB-factor vs k")
    p6d.add_argument("--k-values", type=int, nargs="+", default=[5, 10, 25, 50, 100])
    p6d.add_argument("--db-size", type=int, default=120)
    p6d.add_argument("--seed", type=int, default=7)

    pbs = sub.add_parser(
        "build-store",
        help="pack a dataset into a columnar, memory-mappable store "
             "directory (repro.store; see DESIGN.md, 'Columnar store and "
             "sharded forest')",
    )
    bs_source = pbs.add_mutually_exclusive_group(required=True)
    bs_source.add_argument(
        "--synthetic", type=int, metavar="N",
        help="pack N synthetic Beijing-taxi trajectories",
    )
    bs_source.add_argument(
        "--csv", metavar="PATH",
        help="pack a flat CSV corpus (repro.datasets.io.load_csv schema)",
    )
    bs_source.add_argument(
        "--json", metavar="PATH",
        help="pack a JSON corpus (repro.datasets.io.load_json schema)",
    )
    pbs.add_argument("--out", required=True, metavar="DIR",
                     help="store directory to write")
    pbs.add_argument("--seed", type=int, default=7,
                     help="seed for the --synthetic generator")

    pbf = sub.add_parser(
        "build-forest",
        help="build a sharded TrajTree forest from a columnar store and "
             "write a ForestSnapshot directory",
    )
    pbf.add_argument("--store", required=True, metavar="DIR",
                     help="columnar store directory (see build-store)")
    pbf.add_argument("--out", required=True, metavar="DIR",
                     help="forest snapshot directory to write")
    pbf.add_argument("--shards", type=int, default=4,
                     help="shard count (clamped to the dataset size)")
    pbf.add_argument("--scheme", choices=["round_robin", "hash"],
                     default="round_robin",
                     help="shard assignment scheme (results are identical "
                          "either way; see DESIGN.md)")
    pbf.add_argument("--workers", type=int, default=None,
                     help="build shards in this many worker processes, "
                          "each memory-mapping the store")
    pbf.add_argument("--seed", type=int, default=7,
                     help="base build seed (per-shard seeds derive from it)")
    pbf.add_argument("--min-node-size", type=int, default=10,
                     help="maximum leaf size per shard tree")
    pbf.add_argument("--raw", action="store_true",
                     help="index raw EDwP instead of the default "
                          "length-normalized EDwPavg")

    ps = sub.add_parser(
        "serve",
        help="run the concurrent query service (coalescing + cache + "
             "/stats; see DESIGN.md, 'Query service')",
    )
    source = ps.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--index", metavar="PATH",
        help="serve a TrajTree snapshot written by "
             "repro.index.persistence.save_tree",
    )
    source.add_argument(
        "--forest", metavar="PATH",
        help="serve a ForestSnapshot directory written by "
             "repro.index.persistence.save_forest (or build-forest)",
    )
    source.add_argument(
        "--synthetic", type=int, metavar="N",
        help="build and serve an in-memory index over N synthetic "
             "Beijing-taxi trajectories (EDwPavg-normalized)",
    )
    ps.add_argument(
        "--on-shard-error", choices=["fail", "skip"], default="fail",
        help="with --forest: refuse to start on a damaged shard (fail, "
             "default) or serve degraded over the healthy shards and "
             "retry the snapshot in the background (skip); see DESIGN.md, "
             "'Fault model and degraded serving'",
    )
    ps.add_argument(
        "--reload-base", type=float, default=1.0,
        help="base delay in seconds of the background snapshot reload "
             "retry when serving degraded (capped exponential backoff)",
    )
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=8765,
                    help="TCP port (0 binds an ephemeral port)")
    ps.add_argument("--seed", type=int, default=7,
                    help="seed for the --synthetic build")
    ps.add_argument("--window-ms", type=float, default=2.0,
                    help="request-coalescing window in milliseconds")
    ps.add_argument("--max-batch", type=int, default=64,
                    help="dispatch as soon as this many requests wait")
    ps.add_argument("--max-pending", type=int, default=256,
                    help="bounded queue: shed (ServiceOverloaded) above this")
    ps.add_argument("--cache-size", type=int, default=1024,
                    help="LRU result-cache entries (0 disables caching)")
    ps.add_argument("--timeout", type=float, default=30.0,
                    help="default per-request deadline in seconds")
    ps.add_argument("--slo-ms", type=float, default=None,
                    help="latency SLO in milliseconds: as the measured "
                         "p99 approaches it, query budgets tighten and "
                         "answers degrade to flagged anytime results "
                         "(see DESIGN.md, 'Overload control and anytime "
                         "queries'); unset disables degradation")
    ps.add_argument("--max-inflight", type=int, default=64,
                    help="admission-control concurrency tokens; control "
                         "ops (stats/health) keep 2 reserved tokens so "
                         "they never starve behind query floods")
    ps.add_argument("--breaker-cooldown", type=float, default=0.5,
                    help="seconds the dispatch circuit breaker stays "
                         "open after tripping before probing again")
    ps.add_argument("--breaker-threshold", type=float, default=0.5,
                    help="dispatch failure rate (0..1] that trips the "
                         "circuit breaker")
    ps.add_argument("--selftest", action="store_true",
                    help="serve on the chosen port, run one client "
                         "query + /stats roundtrip, then exit")

    return parser


def _run_build_store(args) -> int:
    """The ``build-store`` subcommand: dataset -> columnar store dir."""
    from .store import ColumnarStore

    if args.synthetic is not None:
        from .datasets import generate_beijing

        trajs = generate_beijing(args.synthetic, seed=args.seed)
        origin = f"{args.synthetic} synthetic Beijing trajectories"
    elif args.csv is not None:
        from .datasets.io import load_csv

        trajs = load_csv(args.csv)
        origin = f"CSV corpus {args.csv}"
    else:
        from .datasets.io import load_json

        trajs = load_json(args.json)
        origin = f"JSON corpus {args.json}"

    store = ColumnarStore.from_trajectories(trajs)
    store.save(args.out)
    print(f"packed {origin} into {args.out}: "
          f"{len(store)} trajectories, {store.num_points} points, "
          f"{store.nbytes / 1e6:.1f} MB of arrays "
          f"(load with ColumnarStore.load(..., mmap=True))")
    return 0


def _run_build_forest(args) -> int:
    """The ``build-forest`` subcommand: store dir -> ForestSnapshot dir."""
    import time

    from .index.forest import TrajForest
    from .index.persistence import save_forest
    from .store import ColumnarStore, StoreError

    try:
        store = ColumnarStore.load(args.store, mmap=True)
    except StoreError as exc:
        print(f"cannot load store: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    forest = TrajForest.from_store(
        args.store,
        num_shards=args.shards,
        scheme=args.scheme,
        seed=args.seed,
        workers=args.workers,
        normalized=not args.raw,
        min_node_size=args.min_node_size,
        backend=args.backend,
    )
    elapsed = time.perf_counter() - start
    save_forest(forest, args.out)
    summary = forest.storage_summary()
    print(f"built {forest.num_shards}-shard forest over {len(store)} "
          f"trajectories in {elapsed:.1f}s "
          f"({summary['nodes']} nodes, {summary['leaves']} leaves; "
          f"scheme {forest.scheme}, workers {args.workers or 1})")
    print(f"snapshot written to {args.out} "
          f"(serve with: python -m repro serve --forest {args.out})")
    return 0


def _run_serve(args) -> int:
    """The ``serve`` subcommand (pulled out of :func:`main` for clarity)."""
    import asyncio
    import signal

    from .index.persistence import load_forest, load_tree
    from .service import Backoff, QueryService, ServiceClient, ServiceConfig, serve
    from .store.atomic import cleanup_stale_temps

    loader = None
    try:
        if args.index is not None:
            # Reap temp debris a crashed snapshot writer left next to the
            # tree file (forest loads sweep their own directory).
            parent = Path(args.index).parent
            if parent.is_dir():
                cleanup_stale_temps(parent)
            loader = lambda: load_tree(args.index)  # noqa: E731
            tree = loader()
            origin = f"snapshot {args.index}"
        elif args.forest is not None:
            loader = lambda: load_forest(  # noqa: E731
                args.forest, on_shard_error=args.on_shard_error
            )
            tree = loader()
            origin = (f"forest snapshot {args.forest} "
                      f"({tree.num_shards} shards)")
            if tree.degraded:
                census = tree.shard_census()
                origin += (f", DEGRADED: {census['healthy']}/"
                           f"{census['total']} shards healthy")
    except ValueError as exc:   # snapshot gates, incl. ShardLoadError
        print(f"cannot load index: {exc}", file=sys.stderr)
        return 2
    if args.index is None and args.forest is None:
        from .datasets import generate_beijing
        from .index import TrajTree

        db = generate_beijing(args.synthetic, seed=args.seed)
        tree = TrajTree(db, normalized=True, seed=args.seed,
                        backend=args.backend)
        origin = f"synthetic Beijing db of {args.synthetic}"

    config = ServiceConfig(
        window=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        cache_capacity=args.cache_size,
        default_timeout=args.timeout,
        max_inflight=args.max_inflight,
        breaker_cooldown=args.breaker_cooldown,
        breaker_threshold=args.breaker_threshold,
        slo_ms=args.slo_ms,
    )
    service = QueryService(tree, config, loader=loader)

    async def run() -> int:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass    # platform without loop signal handlers
        server = await serve(service, host=args.host, port=args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"serving {origin} ({len(tree)} trajectories) "
              f"on {host}:{port}", flush=True)
        print(f"coalescing window {args.window_ms:g} ms, "
              f"max batch {args.max_batch}, queue bound {args.max_pending}, "
              f"cache {args.cache_size} entries", flush=True)
        if service.degraded and loader is not None:
            print(f"serving degraded; retrying snapshot reload in the "
                  f"background (base delay {args.reload_base:g}s)",
                  flush=True)
            service.start_reload_retry(Backoff(base=args.reload_base))
        try:
            if args.selftest:
                client = await ServiceClient.connect(host, port)
                try:
                    probe = tree.get(tree.ids()[0])
                    results, meta = await client.knn(probe, k=3)
                    stats = await client.stats()
                    health = await client.health()
                finally:
                    await client.aclose()
                print(f"selftest knn: {len(results)} neighbours, "
                      f"nearest id {results[0][0]} at {results[0][1]:.4f}, "
                      f"{meta['latency_ms']:.2f} ms")
                print(f"selftest stats: {stats['requests']} requests, "
                      f"{stats['batches']['dispatched']} batches, "
                      f"cache {stats['cache']['hits']}/"
                      f"{stats['cache']['misses']} hit/miss")
                print(f"selftest health: {health['status']}, "
                      f"{health['shards']['healthy']}/"
                      f"{health['shards']['total']} shards")
                return 0
            await stop.wait()
            print("signal received; draining in-flight requests",
                  flush=True)
            return 0
        finally:
            server.close()
            await server.wait_closed()
            await service.aclose()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        # fallback for platforms where the signal handler didn't install
        print("shutting down")
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.backend is not None:
        set_backend(args.backend)
    name = args.experiment

    if name == "serve":
        return _run_serve(args)
    if name == "build-store":
        return _run_build_store(args)
    if name == "build-forest":
        return _run_build_forest(args)

    if name == "table1":
        result = run_table1()
        print("Empirical Table I (probe ratios; paper's claims in "
              "PAPER_TABLE_I):")
        print(result.rendered)
        print("\nScenario anchors (paper value in parentheses):")
        expected = {
            "appendixA_edwp_t1_t2": 1.0, "appendixA_edwp_t2_t3": 1.0,
            "appendixA_edwp_t1_t3": 4.0, "example4_edwpsub_t2_t1": 80.0,
            "fig1c_edr_eps2": 3.0, "fig1c_edr_eps3": 0.0,
        }
        for key, value in result.anchors.items():
            want = expected.get(key)
            suffix = f"  (paper: {want:g})" if want is not None else ""
            print(f"  {key:<28} {value:.4f}{suffix}")
        return 0

    if name == "fig5a":
        result = run_fig5a(class_counts=args.classes,
                           instances_per_class=args.instances,
                           repeats=args.repeats, seed=args.seed)
        print("Fig. 5(a): 1-NN classification accuracy vs #classes")
        print(format_series_table("#classes", result.class_counts,
                                  result.accuracy))
        return 0

    if name in _ROBUST_FIGS:
        protocol, vary = _ROBUST_FIGS[name]
        figure = PAPER_PROTOCOL_FIGURES[protocol][0 if vary == "k" else 1]
        result = robustness_sweep(
            protocol, vary, db_size=args.db_size, num_queries=args.queries,
            include_edr_i=not args.no_edr_i, seed=args.seed,
        )
        print(f"Fig. {figure}: {protocol} robustness vs {result.x_name} "
              f"(Spearman correlation, higher is better)")
        print(format_series_table(result.x_name, result.x_values,
                                  result.series))
        return 0

    if name == "fig5j":
        result = run_fig5j(db_size=args.db_size, k_values=args.k_values,
                           num_queries=args.queries, seed=args.seed)
        print("Fig. 5(j): total query seconds vs k")
        print(format_series_table("k", result.x_values, result.series))
        return 0

    if name in ("fig6a", "fig6e"):
        result = run_scaling(db_sizes=args.db_sizes,
                             num_queries=args.queries, seed=args.seed)
        if name == "fig6a":
            print("Fig. 6(a): total query seconds vs database size")
            print(format_series_table("db size", result.x_values,
                                      result.series))
        else:
            print("Fig. 6(e): index build seconds vs database size")
            print(format_series_table("db size", result.x_values,
                                      result.build_seconds))
        return 0

    if name in ("fig6b", "fig6f"):
        result = run_theta_sweep(thetas=args.thetas, db_size=args.db_size,
                                 seed=args.seed)
        if name == "fig6b":
            print("Fig. 6(b): query seconds vs theta")
            print(format_series_table("theta", result.x_values,
                                      result.series))
        else:
            print("Fig. 6(f): build seconds vs theta")
            print(format_series_table("theta", result.x_values,
                                      result.build_seconds))
        return 0

    if name == "fig6c":
        result = run_fig6c(vp_counts=args.vps, db_size=args.db_size,
                           seed=args.seed)
        print("Fig. 6(c): UB-factor vs #VPs (lower is tighter; optimal = 1)")
        print(format_series_table("#VPs", result.x_values, result.series))
        return 0

    if name == "fig6d":
        result = run_fig6d(k_values=args.k_values, db_size=args.db_size,
                           seed=args.seed)
        print("Fig. 6(d): UB-factor vs k (lower is tighter; optimal = 1)")
        print(format_series_table("k", result.x_values, result.series))
        return 0

    print(f"unknown experiment: {name}", file=sys.stderr)
    return 2
