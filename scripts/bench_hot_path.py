#!/usr/bin/env python
"""Micro-benchmark of the online-phase hot path.

Measures, on the Figure 4 TPC-H scalability scenario scaled up for stable
timing (scale 2.0, sampling rate 0.4, 200 MCMC iterations, all 8 instances):

* raw join-operator throughput (``inner_join`` / ``full_outer_join`` of the
  two largest instances), and
* the end-to-end ``DANCE.acquire()`` wall clock for Q1/Q2/Q3 (offline graph
  build timed separately).

Results are printed and appended to ``BENCH_hotpath.json`` at the repository
root, so the performance trajectory is tracked PR over PR.  By default the
scenario is measured once per columnar backend (numpy and pure-python; see
``repro/relational/backend.py``), appending one entry per backend with a
``"backend"`` field.  ``--chains`` / ``--executor`` measure the multi-chain
MCMC search (``repro/search/chains.py``); ``--executor all`` sweeps
serial/thread/process — plus, above one chain, a ``process_shared`` leg
served from the zero-copy shared columnar store (``repro/search/shm.py``) —
in one invocation and writes one self-contained entry whose ``"executors"``
map holds the per-executor timings (with a computed ``executor_parity``
flag).  ``--shm`` appends a mode='shm' entry: the PR 8 executor sweep
through long-lived services driven by the concurrent batch API, timing
cold-pool, warm-pool and warm-after-delta phases per plan and asserting
that the shared-store pool absorbs a catalog delta with zero full worker
resyncs and unlinks every segment on close.  ``--service`` additionally
appends a
service-mode entry (``repro/service``): cold vs. warm request latency through
one long-lived ``AcquisitionService`` plus a concurrent batch, parity-checked
against the cold run, with the warm request measured both with and without
the session's Step-1 memo (``step1_memo_speedup``) and the service's latency
percentiles recorded.  ``--catalog`` appends a mode='storage' entry
(``repro/storage``): a cold build-offline + first request + ``persist()`` to a
throwaway sqlite catalog versus a warm ``Marketplace.open()`` + build-offline
(asserting zero JI recomputes) + first request, parity-checked against the
cold run.  ``--qos`` appends a mode='qos'
entry (``repro/service/qos``, PR 9): a gold/silver/bronze request mix driven
through one qos-enabled service under contention, recording per-tier
queue-wait p50/p95/p99 from the weighted-fair-queue scheduler and asserting
gold waits less than bronze at the p95.  HTTP serving is measured, with a
noise band, by ``perfbench/run.py`` (the hot-tpce workload).  ``--scale`` /
``--iterations`` / ``--sampling-rate`` shrink the scenario for smoke runs
(e.g. in CI).  Run with::

    PYTHONPATH=src python scripts/bench_hot_path.py [--output BENCH_hotpath.json]
                                                    [--backend both|auto|numpy|python]
                                                    [--chains N]
                                                    [--executor serial|thread|process|all]
                                                    [--service]
                                                    [--catalog]
                                                    [--shm]
                                                    [--qos]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import DanceConfig, ServiceConfig
from repro.core.dance import DANCE
from repro.relational import backend as columnar_backend
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.relational.joins import full_outer_join, inner_join
from repro.search.mcmc import EXECUTORS, MCMCConfig
from repro.service import AcquisitionService
from repro.workloads.queries import queries_for
from repro.workloads.tpch import tpch_workload

SCALE = 2.0
SAMPLING_RATE = 0.4
MCMC_ITERATIONS = 200
BUDGET = 1000.0
JOIN_REPEATS = 5


def _best_of(repeats: int, fn, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn`` ``repeats`` times; return (last result, best wall-clock seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


def bench_joins(workload) -> dict[str, float]:
    lineitem = workload.dirty_or_clean("lineitem")
    orders = workload.dirty_or_clean("orders")
    customer = workload.dirty_or_clean("customer")
    joined, inner_seconds = _best_of(JOIN_REPEATS, inner_join, lineitem, orders)
    outer, outer_seconds = _best_of(JOIN_REPEATS, full_outer_join, customer, orders)
    return {
        "inner_join_seconds": inner_seconds,
        "inner_join_rows": len(joined),
        "full_outer_join_seconds": outer_seconds,
        "full_outer_join_rows": len(outer),
    }


def _marketplace_for(workload) -> Marketplace:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload.tables:
        marketplace.host(
            MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
        )
    return marketplace


def _requests_for(workload) -> list[AcquisitionRequest]:
    return [
        AcquisitionRequest(
            source_attributes=list(query.source_attributes),
            target_attributes=list(query.target_attributes),
            budget=BUDGET,
        )
        for query in queries_for(workload).values()
    ]


def bench_acquire(workload, args: argparse.Namespace, executor: str) -> dict[str, object]:
    marketplace = _marketplace_for(workload)
    config = DanceConfig(
        sampling_rate=args.sampling_rate,
        mcmc=MCMCConfig(
            iterations=args.iterations,
            seed=0,
            chains=args.chains,
            executor=executor,
        ),
    )
    dance = DANCE(marketplace, config)

    start = time.perf_counter()
    dance.build_offline()
    offline_seconds = time.perf_counter() - start

    results: dict[str, object] = {"offline_seconds": offline_seconds}
    total = 0.0
    for query in queries_for(workload).values():
        request = AcquisitionRequest(
            source_attributes=list(query.source_attributes),
            target_attributes=list(query.target_attributes),
            budget=BUDGET,
        )
        start = time.perf_counter()
        acquisition = dance.acquire(request)
        elapsed = time.perf_counter() - start
        total += elapsed
        results[f"acquire_{query.name}_seconds"] = elapsed
        results[f"acquire_{query.name}_correlation"] = acquisition.estimated_correlation
        hit_rate = getattr(acquisition, "mcmc_cache_hit_rate", None)
        if hit_rate is not None:
            results[f"acquire_{query.name}_cache_hit_rate"] = hit_rate
    results["acquire_total_seconds"] = total
    return results


def bench_service(workload, args: argparse.Namespace) -> dict[str, object]:
    """Cold vs. warm request latency through one long-lived acquisition service.

    The *cold* number is the first ``acquire()`` of Q1 on a fresh session
    (empty caches, pools not yet spun up); the *warm* number repeats the
    identical request against the now-hot session — same seed, bit-identical
    result, served almost entirely from the shared evaluation memo and the
    Step-1 memo (which skips the landmark/Steiner search).  The same
    cold/warm pair is measured again with the Step-1 memo disabled
    (``ServiceConfig(step1_memo=False)``) to isolate its contribution; the
    two services must agree bit-for-bit.  The batch number serves all
    queries concurrently through the batch API; the service's latency
    percentiles are recorded alongside.
    """
    marketplace = _marketplace_for(workload)
    executor = args.executor if args.executor != "all" else "thread"

    def service_config(step1_memo: bool) -> DanceConfig:
        return DanceConfig(
            sampling_rate=args.sampling_rate,
            mcmc=MCMCConfig(
                iterations=args.iterations, seed=0, chains=args.chains, executor=executor
            ),
            service=ServiceConfig(max_batch_workers=4, step1_memo=step1_memo),
        )

    requests = _requests_for(workload)
    results: dict[str, object] = {}
    with AcquisitionService(
        marketplace, service_config(step1_memo=True), build_offline=False
    ) as service:
        start = time.perf_counter()
        service.dance.build_offline()
        results["offline_seconds"] = time.perf_counter() - start

        start = time.perf_counter()
        cold = service.acquire(requests[0])
        cold_seconds = time.perf_counter() - start
        # Warm repeats are all served from the session caches, so best-of
        # timing just removes scheduler noise from the small numbers.
        warm, warm_seconds = _best_of(JOIN_REPEATS, service.acquire, requests[0])

        start = time.perf_counter()
        batch = service.acquire_batch(requests)
        batch_seconds = time.perf_counter() - start

        metrics = service.metrics()
        results.update(
            {
                "cold_request_seconds": cold_seconds,
                "warm_request_seconds": warm_seconds,
                "warm_speedup": cold_seconds / warm_seconds if warm_seconds else None,
                "cold_correlation": cold.estimated_correlation,
                "warm_parity": warm.estimated_correlation == cold.estimated_correlation
                and warm.sql() == cold.sql(),
                "warm_cache_hit_rate": warm.mcmc_cache_hit_rate,
                "batch_requests": len(requests),
                "batch_seconds": batch_seconds,
                "batch_ok": batch.ok,
                "batch_correlations": [
                    item.result.estimated_correlation if item.ok else None
                    for item in batch
                ],
                "step1_memo": metrics["step1_memo"],
                "latency_p50_seconds": metrics["latency"]["p50_seconds"],
                "latency_p95_seconds": metrics["latency"]["p95_seconds"],
                "latency_p99_seconds": metrics["latency"]["p99_seconds"],
            }
        )

    # Same warm request with the Step-1 memo off: isolates how much of the
    # warm-path win comes from skipping the landmark/Steiner search.
    with AcquisitionService(
        _marketplace_for(workload), service_config(step1_memo=False)
    ) as service:
        cold_off = service.acquire(requests[0])
        warm_off, warm_off_seconds = _best_of(JOIN_REPEATS, service.acquire, requests[0])
    results.update(
        {
            "warm_request_seconds_memo_off": warm_off_seconds,
            "step1_memo_speedup": (
                warm_off_seconds / warm_seconds if warm_seconds else None
            ),
            "step1_memo_parity": (
                warm_off.estimated_correlation == warm.estimated_correlation
                and cold_off.estimated_correlation == cold.estimated_correlation
                and warm_off.sql() == warm.sql()
            ),
        }
    )
    return results


def bench_storage(workload, args: argparse.Namespace) -> dict[str, object]:
    """Cold build + persist vs. warm ``Marketplace.open()`` restart (PR 6).

    The *cold* side builds the offline join graph from scratch, serves the
    first request, and persists the whole marketplace (tables, encodings,
    offline state) to a throwaway sqlite catalog.  The *warm* side reopens
    that catalog, rebuilds the offline phase — which must adopt every
    persisted JI weight, i.e. recompute **zero** edges — and serves the same
    first request; results must agree bit-for-bit with the cold run.
    """
    executor = args.executor if args.executor != "all" else "serial"
    config = DanceConfig(
        sampling_rate=args.sampling_rate,
        mcmc=MCMCConfig(
            iterations=args.iterations, seed=0, chains=args.chains, executor=executor
        ),
    )
    request = _requests_for(workload)[0]
    results: dict[str, object] = {"storage_kind": "sqlite"}
    with tempfile.TemporaryDirectory() as scratch:
        catalog = Path(scratch) / "marketplace.catalog"

        dance = DANCE(_marketplace_for(workload), config)
        start = time.perf_counter()
        dance.build_offline()
        results["cold_offline_seconds"] = time.perf_counter() - start
        start = time.perf_counter()
        cold = dance.acquire(request)
        results["cold_request_seconds"] = time.perf_counter() - start
        start = time.perf_counter()
        dance.persist(catalog)
        results["persist_seconds"] = time.perf_counter() - start
        results["catalog_bytes"] = catalog.stat().st_size
        results["cold_ji_computations"] = dance.join_graph.ji_computations
        results["cold_edge_recomputes"] = dance.join_graph.edge_recomputes

        start = time.perf_counter()
        warm_dance = DANCE(Marketplace.open(catalog), config)
        warm_dance.build_offline()
        results["warm_open_offline_seconds"] = time.perf_counter() - start
        results["warm_ji_computations"] = warm_dance.join_graph.ji_computations
        results["warm_edge_recomputes"] = warm_dance.join_graph.edge_recomputes
        if warm_dance.join_graph.edge_recomputes != 0:
            raise AssertionError(
                "warm restart recomputed "
                f"{warm_dance.join_graph.edge_recomputes} I-edges; expected 0"
            )
        start = time.perf_counter()
        warm = warm_dance.acquire(request)
        results["warm_request_seconds"] = time.perf_counter() - start
        warm_dance.marketplace.storage.close()

    results["warm_parity"] = (
        warm.estimated_correlation == cold.estimated_correlation
        and warm.sql() == cold.sql()
    )
    results["offline_speedup"] = (
        results["cold_offline_seconds"] / results["warm_open_offline_seconds"]
        if results["warm_open_offline_seconds"]
        else None
    )
    return results


def bench_acquire_shared(workload, args: argparse.Namespace) -> dict[str, object]:
    """The process leg of the sweep again, through a zero-copy shared pool.

    Same scenario as :func:`bench_acquire` with ``executor='process'``, but the
    chains run on a persistent :func:`~repro.search.chains.shared_chain_pool`
    whose workers map the encoded columnar store out of shared memory instead
    of receiving pickled tables — correlations must stay bit-identical to the
    rest of the sweep.
    """
    from repro.search.acquisition import SearchRuntime
    from repro.search.chains import shared_chain_pool
    from repro.search.plan import ExecutionPlan
    from repro.search.shm import live_segments

    marketplace = _marketplace_for(workload)
    plan = ExecutionPlan(executor="process", chains=args.chains, shared_store=True)
    config = DanceConfig(
        sampling_rate=args.sampling_rate,
        mcmc=MCMCConfig(iterations=args.iterations, seed=0),
        plan=plan,
    )
    dance = DANCE(marketplace, config)

    start = time.perf_counter()
    dance.build_offline()
    offline_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pool, state = shared_chain_pool(
        dance.join_graph,
        dance.fds,
        token="bench-shared",
        max_workers=plan.resolved_workers(),
        version=dance.graph_version,
    )
    results: dict[str, object] = {
        "offline_seconds": offline_seconds,
        "pool_spinup_seconds": time.perf_counter() - start,
    }
    total = 0.0
    try:
        for query in queries_for(workload).values():
            request = AcquisitionRequest(
                source_attributes=list(query.source_attributes),
                target_attributes=list(query.target_attributes),
                budget=BUDGET,
            )
            runtime = SearchRuntime(pool=pool, pool_state=state, plan=plan)
            start = time.perf_counter()
            acquisition = dance.acquire(request, runtime=runtime)
            elapsed = time.perf_counter() - start
            total += elapsed
            results[f"acquire_{query.name}_seconds"] = elapsed
            results[f"acquire_{query.name}_correlation"] = (
                acquisition.estimated_correlation
            )
        results["shared_store"] = state.stats()
    finally:
        pool.shutdown(wait=True)
        state.close()
    leaked = live_segments()
    if leaked:
        raise AssertionError(f"shared sweep leaked segments: {leaked}")
    results["acquire_total_seconds"] = total
    return results


SHM_SEED_BASE = {"cold": 1000, "warm": 2000}
SHM_ROUNDS = 4


def bench_shm(workload, args: argparse.Namespace) -> dict[str, object]:
    """PR 8 shared-memory executor sweep through long-lived services.

    One :class:`~repro.service.AcquisitionService` per plan (serial / thread /
    process-without-shared-store / process-with-shared-store), all alive at
    once and serving the workload queries through the service's concurrent
    batch API — the service workload — in three phases:

    * **cold** — fresh seeds on fresh sessions; the first batch pays the
      lazy pool spin-up (fork + worker cold load for the process plans).
    * **warm** — new seeds on the hot pools: real chain walks, no spin-up.
    * **warm_after_delta** — ``register_source_tables`` replaces one hosted
      instance, then the warm seed grid reruns against the refreshed graph.
      The shared-store pool must absorb the change as a versioned delta with
      **zero** full worker resyncs; the legacy process pool is rebuilt.

    The warm phases are best-of-``SHM_ROUNDS``, and within each round every
    plan serves the identical seed grid back-to-back, so plans are compared
    under the same machine conditions.  Every round must produce identical
    correlations across all plans (``executor_parity`` — asserted, not just
    recorded), and ``/dev/shm`` must be clean once the services close.  The
    per-plan headline ``acquire_total_seconds`` is steady-state serving on
    the long-lived pool (warm plus warm-after-delta); the one-time spin-up
    stays visible in the cold phase and the ``acquire_total_with_cold``
    total.
    """
    from repro.search.plan import ExecutionPlan
    from repro.search.shm import live_segments

    chains = args.chains if args.chains > 1 else 4
    plans = {
        "serial": ExecutionPlan(executor="serial", chains=chains),
        "thread": ExecutionPlan(executor="thread", chains=chains),
        "process_legacy": ExecutionPlan(
            executor="process", chains=chains, shared_store=False
        ),
        "process": ExecutionPlan(executor="process", chains=chains, shared_store=True),
    }
    queries = queries_for(workload)
    requests = _requests_for(workload)
    delta_name = sorted(workload.tables)[0]

    runs: dict[str, dict[str, object]] = {}
    parity: dict[str, dict[str, list[float]]] = {label: {} for label in plans}
    services: dict[str, AcquisitionService] = {}

    def batch_round(label: str, tag: str, base: int) -> float:
        seeds = [base + index for index in range(len(requests))]
        start = time.perf_counter()
        batch = services[label].acquire_batch(requests, seeds=seeds)
        elapsed = time.perf_counter() - start
        if not batch.ok:
            raise AssertionError(
                f"[{label}] batch failed: {[str(i.error) for i in batch.errors()]}"
            )
        parity[label][tag] = [item.result.estimated_correlation for item in batch]
        return elapsed

    def serve_phase(name: str, seed_base: int, rounds: int) -> None:
        """Best-of-``rounds`` batches; plans interleave within each round.

        Every round is a fresh seed grid (never a memoised repeat), shared by
        all plans and served back-to-back, so best-of-rounds removes
        single-CPU scheduler noise without favouring whichever plan happened
        to run on a quiet machine.
        """
        totals: dict[str, list[float]] = {label: [] for label in plans}
        for round_index in range(rounds):
            base = seed_base + 1000 * round_index
            for label in plans:
                totals[label].append(batch_round(label, f"{name}@r{round_index}", base))
        for label, series in totals.items():
            runs[label][name] = {
                "batch_seconds": min(series),
                "first_batch_seconds": series[0],
                "rounds": rounds,
            }

    try:
        for label, plan in plans.items():
            config = DanceConfig(
                sampling_rate=args.sampling_rate,
                mcmc=MCMCConfig(iterations=args.iterations, seed=0),
                plan=plan,
                service=ServiceConfig(max_batch_workers=4),
            )
            runs[label] = {"plan": plan.spec()}
            start = time.perf_counter()
            services[label] = AcquisitionService(_marketplace_for(workload), config)
            runs[label]["offline_seconds"] = time.perf_counter() - start

        # Cold is a single round: the first batch pays the lazy pool
        # spin-up, which a best-of would wash out.
        serve_phase("cold", SHM_SEED_BASE["cold"], rounds=1)
        serve_phase("warm", SHM_SEED_BASE["warm"], rounds=SHM_ROUNDS)
        for label in plans:
            start = time.perf_counter()
            services[label].register_source_tables([workload.table(delta_name)])
            runs[label]["delta_register_seconds"] = time.perf_counter() - start
        # The register reset the session caches, so the warm seed grid
        # reruns as fresh walks against the refreshed graph.
        serve_phase("warm_after_delta", SHM_SEED_BASE["warm"], rounds=SHM_ROUNDS)
        for label in plans:
            runs[label]["shared_store"] = services[label].describe()["shared_store"]
    finally:
        for service in services.values():
            service.close()

    for label, run in runs.items():
        # The headline number is steady-state serving on the long-lived
        # pool — the warm grid plus the same grid after the catalog delta.
        # The one-time pool spin-up stays visible in the cold phase and in
        # the ``_with_cold`` total.
        run["acquire_total_seconds"] = (
            run["warm"]["batch_seconds"] + run["warm_after_delta"]["batch_seconds"]
        )
        run["acquire_total_with_cold_seconds"] = (
            run["acquire_total_seconds"] + run["cold"]["batch_seconds"]
        )

    reference = parity["serial"]
    if any(passes != reference for passes in parity.values()):
        raise AssertionError(f"executor parity broken across shm sweep: {parity}")
    stats = runs["process"]["shared_store"]
    if stats is None:
        raise AssertionError("process plan did not build a shared-store pool")
    if stats["worker_resyncs"] != 0:
        raise AssertionError(f"warm pool did not survive the delta: {stats}")
    if stats["deltas_published"] < 1:
        raise AssertionError(f"no delta was published to the warm pool: {stats}")
    leaked = live_segments()
    if leaked:
        raise AssertionError(f"leaked shared-memory segments after close: {leaked}")
    return {
        "chains": chains,
        "delta_instance": delta_name,
        "queries": list(queries),
        "executor_parity": True,
        "process_vs_thread": {
            "process_seconds": runs["process"]["acquire_total_seconds"],
            "thread_seconds": runs["thread"]["acquire_total_seconds"],
            "process_not_slower": (
                runs["process"]["acquire_total_seconds"]
                <= runs["thread"]["acquire_total_seconds"]
            ),
        },
        "executors": runs,
    }


QOS_TIER_LADDER = ("gold", "silver", "bronze")


def bench_qos(workload, args: argparse.Namespace) -> dict[str, object]:
    """Per-tier queue-wait percentiles under WFQ contention (PR 9).

    Every workload query is submitted once per SLA tier per round through one
    qos-enabled service whose four batch workers contend for the single
    execution slot, so the weighted fair queue decides who waits.  The
    per-tier percentiles come from the scheduler's own queue-wait histograms
    (``metrics()["qos"]["tiers"]``); under contention gold (weight 4) must
    wait measurably less than bronze (weight 1) at the p95, which the entry
    records as ``gold_p95_below_bronze``.
    """
    executor = args.executor if args.executor != "all" else "thread"
    config = DanceConfig(
        sampling_rate=args.sampling_rate,
        mcmc=MCMCConfig(
            iterations=args.iterations, seed=0, chains=args.chains, executor=executor
        ),
        service=ServiceConfig(max_batch_workers=4, qos=True),
    )
    requests = [
        AcquisitionRequest(
            source_attributes=list(query.source_attributes),
            target_attributes=list(query.target_attributes),
            budget=BUDGET,
            shopper=f"{tier}-shopper",
            tier=tier,
        )
        for query in queries_for(workload).values()
        for tier in QOS_TIER_LADDER
    ]
    with AcquisitionService(_marketplace_for(workload), config) as service:
        service.acquire_batch(requests)  # warm the session caches first
        all_ok = True
        start = time.perf_counter()
        for _ in range(args.qos_rounds):
            all_ok = service.acquire_batch(requests).ok and all_ok
        wall_seconds = time.perf_counter() - start
        metrics = service.metrics()

    tiers = {
        name: {
            "weight": stats["weight"],
            "requests": stats["requests"],
            "queue_wait_p50_seconds": stats["queue_wait"]["p50_seconds"],
            "queue_wait_p95_seconds": stats["queue_wait"]["p95_seconds"],
            "queue_wait_p99_seconds": stats["queue_wait"]["p99_seconds"],
        }
        for name, stats in metrics["qos"]["tiers"].items()
    }
    gold_p95 = tiers["gold"]["queue_wait_p95_seconds"]
    bronze_p95 = tiers["bronze"]["queue_wait_p95_seconds"]
    return {
        "rounds": args.qos_rounds,
        "requests_per_round": len(requests),
        "batch_workers": 4,
        "batch_ok": all_ok,
        "wall_seconds": wall_seconds,
        "queue_wait_p50_seconds": metrics["queue_wait"]["p50_seconds"],
        "execution_p50_seconds": metrics["execution"]["p50_seconds"],
        "tiers": tiers,
        "gold_p95_below_bronze": gold_p95 < bronze_p95,
    }


def _base_entry(args: argparse.Namespace, resolved_backend: str, executor: str) -> dict:
    return {
        "label": args.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "backend": resolved_backend,
        "scenario": {
            "workload": "tpch",
            "scale": args.scale,
            "sampling_rate": args.sampling_rate,
            "mcmc_iterations": args.iterations,
            "budget": BUDGET,
            "chains": args.chains,
            "executor": executor,
        },
    }


def bench_backend(backend_name: str, args: argparse.Namespace) -> list[dict[str, object]]:
    """Measure the full scenario under one columnar backend.

    The workload is rebuilt from scratch so that every encoding is produced by
    the requested backend (tables cache their encodings).  Returns one entry
    for the library scenario (with an ``"executors"`` sub-map under
    ``--executor all``) plus, with ``--service``, one service-mode entry.
    """
    resolved = columnar_backend.set_backend(backend_name)
    workload = tpch_workload(scale=args.scale, seed=0)
    entry = _base_entry(args, resolved, args.executor)
    entry.update(bench_joins(workload))
    if args.executor == "all":
        sweep: dict[str, dict[str, object]] = {}
        for executor in EXECUTORS:
            sweep[executor] = bench_acquire(workload, args, executor)
        if args.chains > 1:
            # PR 8: the same process walk served from the zero-copy shared
            # columnar store; bit-identical, so it joins the parity check.
            sweep["process_shared"] = bench_acquire_shared(workload, args)
        entry["executors"] = sweep
        correlations = [
            {k: v for k, v in run.items() if k.endswith("_correlation")}
            for run in sweep.values()
        ]
        entry["executor_parity"] = all(c == correlations[0] for c in correlations)
        # The serial run's flat keys stay on the entry itself, so history
        # tooling (and check_multichain_parity.py) keeps working unchanged.
        entry.update(sweep["serial"])
    else:
        entry.update(bench_acquire(workload, args, args.executor))
    entries = [entry]
    if args.service:
        service_entry = _base_entry(args, resolved, args.executor)
        service_entry["mode"] = "service"
        service_entry["service"] = bench_service(workload, args)
        entries.append(service_entry)
    if args.catalog:
        storage_entry = _base_entry(args, resolved, args.executor)
        storage_entry["mode"] = "storage"
        storage_entry["storage"] = bench_storage(workload, args)
        entries.append(storage_entry)
    if args.shm:
        shm_entry = _base_entry(args, resolved, "all")
        shm_entry["mode"] = "shm"
        shm_entry["shm"] = bench_shm(workload, args)
        entries.append(shm_entry)
    if args.qos:
        qos_entry = _base_entry(args, resolved, args.executor)
        qos_entry["mode"] = "qos"
        qos_entry["qos"] = bench_qos(workload, args)
        entries.append(qos_entry)
    return entries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=_REPO_ROOT / "BENCH_hotpath.json",
        help="JSON file the measurements are appended to",
    )
    parser.add_argument(
        "--label", default="current", help="label recorded with this measurement"
    )
    parser.add_argument(
        "--backend",
        default="both",
        choices=["both", "auto", "numpy", "python"],
        help="columnar backend(s) to measure ('both' appends one entry per backend)",
    )
    parser.add_argument(
        "--chains",
        type=int,
        default=1,
        help="number of parallel MCMC chains per acquisition (1 = the paper's walk)",
    )
    parser.add_argument(
        "--executor",
        default="serial",
        choices=[*EXECUTORS, "all"],
        help="executor for multi-chain walks (ignored when --chains 1); "
        "'all' sweeps every executor into one self-contained entry",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="additionally measure cold vs. warm requests through one "
        "long-lived AcquisitionService (appends a mode='service' entry)",
    )
    parser.add_argument(
        "--catalog",
        action="store_true",
        help="additionally measure a cold build+persist vs. warm "
        "Marketplace.open() restart (appends a mode='storage' entry)",
    )
    parser.add_argument(
        "--shm",
        action="store_true",
        help="additionally measure the PR 8 shared-memory executor sweep "
        "through a long-lived service: cold pool, warm pool and "
        "warm-after-delta passes per plan (appends a mode='shm' entry)",
    )
    parser.add_argument(
        "--qos",
        action="store_true",
        help="additionally measure per-tier queue-wait percentiles through a "
        "qos-enabled service under contention (appends a mode='qos' entry)",
    )
    parser.add_argument(
        "--qos-rounds",
        type=int,
        default=12,
        help="measured batch passes over the tiered request set (--qos)",
    )
    parser.add_argument(
        "--scale", type=float, default=SCALE, help="TPC-H workload scale factor"
    )
    parser.add_argument(
        "--sampling-rate",
        type=float,
        default=SAMPLING_RATE,
        help="offline-phase correlated sampling rate",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=MCMC_ITERATIONS,
        help="MCMC iterations per chain",
    )
    args = parser.parse_args()

    if args.backend == "both":
        backends = ["python"]
        if columnar_backend.numpy_available():
            backends.append("numpy")
        else:
            print("numpy is not importable; measuring the pure-python backend only")
    else:
        backends = [args.backend]

    entries = []
    try:
        for backend_name in backends:
            entries.extend(bench_backend(backend_name, args))
    finally:
        columnar_backend.set_backend(None)

    history: list[dict[str, object]] = []
    if args.output.exists():
        try:
            history = json.loads(args.output.read_text())
        except (OSError, json.JSONDecodeError):
            history = []
    history.extend(entries)
    args.output.write_text(json.dumps(history, indent=2) + "\n")

    def show(mapping: dict, indent: str = "") -> None:
        for key, value in mapping.items():
            if isinstance(value, dict):
                print(f"{indent}{key}:")
                show(value, indent + "    ")
            elif isinstance(value, float):
                print(f"{indent}{key:>40}: {value:.4f}")
            else:
                print(f"{indent}{key:>40}: {value}")

    for entry in entries:
        mode = f" [{entry['mode']}]" if "mode" in entry else ""
        print(f"--- backend: {entry['backend']}{mode}")
        show(entry)
    print(f"\nwrote {args.output}")


if __name__ == "__main__":
    main()
