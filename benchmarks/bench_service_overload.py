"""Service overload gate (ISSUE 10).

One end-to-end pass over the overload-control surface of DESIGN.md
("Overload control and anytime queries"), driven against a live TCP
service:

* a **flood** at several times the admitted concurrency (16 client
  connections against 2 concurrently admitted queries) must shed or
  serve every request through typed errors only — zero unhandled
  exceptions, at least 95% of answers delivered after client retries,
  and a server-side p99 under the 250 ms SLO;
* a **health prober** runs throughout the flood on the reserved control
  tokens; its p99 must stay under 50 ms — overload on the query class
  must never starve observability;
* under sustained measured pressure the degradation policy tightens to
  its **epsilon floor**: answers come back flagged approximate with a
  reported ``bound_factor`` that the measured error never exceeds, and
  both stay at or under the floor's 1 + epsilon = 2.0 guarantee;
* once the pressure stops, the policy **decays back to exact**: answers
  become bit-identical to the no-budget oracle with no anytime flags;
* a burst of injected dispatch errors **trips the circuit breaker**
  (typed ``ServiceUnavailable`` with a ``retry_after`` hint) and the
  half-open probes close it again after the cooldown.

Any unhandled error, SLO miss, unflagged approximation, or factor above
the epsilon guarantee fails the gate.  The regenerated table lands in
``benchmarks/results/overload_gate.txt`` and is uploaded as a CI
artifact.
"""

import asyncio
import random
import time

import pytest

from repro.datasets import generate_beijing
from repro.datasets.beijing import BeijingConfig
from repro.index import QueryBudget, TrajTree
from repro.service import (
    QueryService,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceUnavailable,
    serve,
)
from repro.testing.faults import FaultPlan, injected

from conftest import emit

N = 300                   # trajectories served: > REFINE_FLUSH, so the
                          # tree traverses and epsilon has pops to cut
K = 4
PROBES = 8                # distinct probe queries (coalescing feeds on reuse)
FLOOD_CLIENTS = 16        # 8x the 2 concurrently admitted queries
REQUESTS_PER_CLIENT = 20
SLO_MS = 250.0
HEALTH_SLO_MS = 50.0
FACTOR_CAP = 2.0          # 1 + floor epsilon
DRAIN_CAP = 600           # max queries to decay the policy back to exact

#: Short trips keep a single EDwP k-NN at a few milliseconds, so the
#: flood stresses admission and queueing, not the distance kernels.
SHORT_TRIPS = BeijingConfig(min_hops=4, max_hops=8,
                            sample_low=60.0, sample_high=120.0)

CONFIG = ServiceConfig(
    window=0.001, max_batch=8, cache_capacity=0,
    max_inflight=4, reserved_control=2, admission_max_waiting=12,
    breaker_window=8, breaker_min_samples=4, breaker_threshold=0.5,
    breaker_cooldown=0.3, breaker_probes=2,
    slo_ms=SLO_MS, degradation_floor=QueryBudget(epsilon=1.0),
)


def check_answer(qid, results, meta, oracle):
    """Every delivered answer is either exact and bit-identical to the
    oracle, or flagged approximate with a sound factor under the epsilon
    guarantee.  Returns the (measured, reported) factor pair for flagged
    answers, else ``None``."""
    anytime = meta.get("anytime")
    if anytime is None or anytime["exact"]:
        assert results == oracle[qid], f"unflagged wrong answer for {qid}"
        return None
    assert anytime["reason"] == "epsilon"
    reported = anytime["bound_factor"]
    true_kth = oracle[qid][-1][1]
    measured = max(d for _, d in results) / true_kth
    assert measured <= reported + 1e-9, "reported factor violated"
    assert reported <= FACTOR_CAP + 1e-9, "epsilon guarantee violated"
    return measured, reported


@pytest.mark.benchmark(group="service-overload")
def test_service_overload_gate(benchmark, results_dir):
    db = generate_beijing(N, seed=7, config=SHORT_TRIPS)
    tree = TrajTree(db, normalized=True, seed=7, backend="numpy")
    probes = generate_beijing(PROBES, seed=1009, config=SHORT_TRIPS)
    oracle = {q.traj_id: tree.knn(q, K) for q in probes}

    async def drive():
        service = QueryService(tree, CONFIG)
        server = await serve(service, port=0)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()

        # ---- phase 1: flood at 8x admitted concurrency --------------- #
        async def flood_client(cid):
            client = await ServiceClient.connect(
                "127.0.0.1", port,
                retry=RetryPolicy(attempts=10, base=0.005, cap=0.05,
                                  seed=100 + cid),
            )
            rng = random.Random(cid)
            delivered, typed_failures, unhandled = [], [], 0
            for _ in range(REQUESTS_PER_CLIENT):
                q = probes[rng.randrange(PROBES)]
                try:
                    results, meta = await client.knn(q, K)
                    delivered.append((q.traj_id, results, meta))
                except ServiceError as exc:
                    typed_failures.append(exc.code)
                except Exception:           # the gate: nothing untyped
                    unhandled += 1
            await client.aclose()
            return delivered, typed_failures, unhandled

        flood_done = asyncio.Event()

        async def health_prober():
            probe = await ServiceClient.connect("127.0.0.1", port)
            samples = []
            while not flood_done.is_set():
                t0 = loop.time()
                health = await probe.health()
                samples.append((loop.time() - t0) * 1000.0)
                assert health["ready"] is True
                await asyncio.sleep(0.01)
            await probe.aclose()
            return samples

        prober = asyncio.ensure_future(health_prober())
        t0 = time.perf_counter()
        per_client = await asyncio.gather(*(
            flood_client(c) for c in range(FLOOD_CLIENTS)
        ))
        flood_s = time.perf_counter() - t0
        flood_done.set()
        health_ms = sorted(await prober)

        flood_p99 = service.stats.latency_summary()["p99_ms"]
        sheds = sum(service.admission.shed.values())
        delivered = [a for answers, _, _ in per_client for a in answers]
        typed = [c for _, codes, _ in per_client for c in codes]
        unhandled = sum(u for _, _, u in per_client)
        total = FLOOD_CLIENTS * REQUESTS_PER_CLIENT

        assert unhandled == 0, "untyped exception escaped to a client"
        assert len(delivered) >= 0.95 * total, \
            f"only {len(delivered)}/{total} answers delivered: {typed}"
        assert flood_p99 < SLO_MS, f"flood p99 {flood_p99:.1f}ms over SLO"
        health_p99 = health_ms[int(0.99 * (len(health_ms) - 1))]
        assert health_p99 < HEALTH_SLO_MS, \
            f"health p99 {health_p99:.1f}ms — control class starved"

        factors = [f for qid, results, meta in delivered
                   for f in [check_answer(qid, results, meta, oracle)]
                   if f is not None]
        flood_approx = len(factors)

        # ---- phase 2: sustained pressure -> epsilon-floor answers ---- #
        for _ in range(32):
            service.degradation.observe(2 * SLO_MS / 1000.0)
        assert service.degradation.current_budget() == \
            CONFIG.degradation_floor
        client = await ServiceClient.connect("127.0.0.1", port)
        for q in probes:
            results, meta = await client.knn(q, K)
            f = check_answer(q.traj_id, results, meta, oracle)
            if f is not None:
                factors.append(f)
        degraded_approx = len(factors) - flood_approx
        assert degraded_approx >= 1, \
            "epsilon floor never produced an approximate answer"

        # ---- phase 3: pressure gone -> decays back to exact ---------- #
        drain = 0
        while (service.degradation.current_budget() is not None
               and drain < DRAIN_CAP):
            await client.knn(probes[drain % PROBES], K)
            drain += 1
        assert service.degradation.current_budget() is None, \
            f"degradation never decayed within {DRAIN_CAP} queries"
        for q in probes:
            results, meta = await client.knn(q, K)
            assert results == oracle[q.traj_id]
            assert meta["anytime"] is None

        # ---- phase 4: dispatch errors trip the breaker, then heal ---- #
        plan = FaultPlan().on("service.dispatch", "error", times=4)
        tripped_errors = 0
        with injected(plan):
            for q in probes:
                if service.breaker.state == "open":
                    break
                try:
                    await client.knn(q, K)
                except ServiceError:
                    tripped_errors += 1
        assert service.breaker.state == "open"
        with pytest.raises(ServiceUnavailable) as refusal:
            await client.knn(probes[0], K)
        assert refusal.value.retry_after is not None
        assert refusal.value.retry_after > 0
        await asyncio.sleep(CONFIG.breaker_cooldown + 0.05)
        for q in probes[:CONFIG.breaker_probes]:   # half-open probes
            results, _ = await client.knn(q, K)
            assert results == oracle[q.traj_id]
        assert service.breaker.state == "closed"
        assert service.breaker.trips == 1

        await client.aclose()
        server.close()
        await server.wait_closed()
        await service.aclose()
        return dict(
            flood_s=flood_s, flood_p99=flood_p99, health_p99=health_p99,
            health_n=len(health_ms), delivered=len(delivered),
            total=total, sheds=sheds, typed=len(typed),
            flood_approx=flood_approx, degraded_approx=degraded_approx,
            factors=factors, drain=drain, tripped_errors=tripped_errors,
        )

    m = benchmark.pedantic(lambda: asyncio.run(drive()),
                           rounds=1, iterations=1)
    worst_measured = max((f[0] for f in m["factors"]), default=1.0)
    worst_reported = max((f[1] for f in m["factors"]), default=1.0)

    rows = [
        f"{'trajectories':<36}{N:>10,}",
        f"{'flood clients':<36}{FLOOD_CLIENTS:>10}",
        f"{'admitted query concurrency':<36}"
        f"{CONFIG.max_inflight - CONFIG.reserved_control:>10}",
        f"{'flood requests':<36}{m['total']:>10}",
        f"{'delivered after retries':<36}{m['delivered']:>10}",
        f"{'admission sheds (client-retried)':<36}{m['sheds']:>10}",
        f"{'typed client failures':<36}{m['typed']:>10}",
        f"{'flood wall time (s)':<36}{m['flood_s']:>10.2f}",
        f"{'flood p99 (ms, SLO 250)':<36}{m['flood_p99']:>10.1f}",
        f"{'health p99 during flood (ms)':<36}{m['health_p99']:>10.1f}",
        f"{'health samples':<36}{m['health_n']:>10}",
        f"{'approximate answers (flood)':<36}{m['flood_approx']:>10}",
        f"{'approximate answers (degraded)':<36}{m['degraded_approx']:>10}",
        f"{'worst measured factor':<36}{worst_measured:>10.3f}",
        f"{'worst reported factor':<36}{worst_reported:>10.3f}",
        f"{'queries to decay back to exact':<36}{m['drain']:>10}",
        f"{'dispatch errors to trip breaker':<36}{m['tripped_errors']:>10}",
        "",
        f"gate: zero unhandled errors; >=95% delivered; p99 < {SLO_MS:g}ms "
        f"under {FLOOD_CLIENTS} clients vs "
        f"{CONFIG.max_inflight - CONFIG.reserved_control} admitted; "
        f"health p99 < {HEALTH_SLO_MS:g}ms on reserved control tokens; "
        f"approximate answers flagged with measured <= reported <= "
        f"{FACTOR_CAP:g}; exact answers bit-identical to the no-budget "
        "oracle after decay; breaker trips on injected dispatch errors "
        "and closes after half-open probes",
    ]
    emit(results_dir, "overload_gate",
         f"Service overload gate — {FLOOD_CLIENTS}-client flood, "
         f"{SLO_MS:g}ms SLO, epsilon-1.0 degradation floor, "
         "breaker trip + recovery",
         "\n".join(rows))
