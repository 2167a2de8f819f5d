#!/usr/bin/env python
"""Assert the multi-chain determinism contract, offline or live.

**JSON mode** (the original CI ``bench-smoke`` check): given a bench JSON
produced by ``scripts/bench_hot_path.py`` — the same tiny scenario run under
``--chains 1`` / ``--chains 4``, serial / thread / process executors, both
columnar backends — every entry must report *exactly* the same per-query
correlations.  Results depend only on ``(seed, chains)``, never on the
executor, the scheduling order, or the backend.

**Live mode** (the CI ``shm-smoke`` check): ``--executor process
--shared-store`` serves a real workload through an ``AcquisitionService``
under the requested :class:`~repro.search.plan.ExecutionPlan` and replays it
serially; the served bits must agree, a mid-run ``register_source_tables``
delta must be absorbed by the warm shared-store pool with **zero** full
worker resyncs, and every shared-memory segment must be unlinked on close.
A second replay lowers the re-sampling threshold ``eta`` to ``FIRED_ETA``,
so that the correlated re-sampling hook fires on the served target graphs,
and must agree bit for bit across the serial, thread and requested
executors, before and after the delta.

Usage::

    python scripts/check_multichain_parity.py bench-smoke.json
    PYTHONPATH=src python scripts/check_multichain_parity.py \\
        --executor process --shared-store [--chains 3] [--scale 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

#: Live mode's second re-sampling threshold: the served TPC-H 0.2 target
#: graphs have first-level joins of 17-28 rows, so it fires on every one.
FIRED_ETA = 16

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


# ---------------------------------------------------------------- JSON mode
def correlations(entry: dict) -> dict[str, float]:
    return {
        key: value
        for key, value in entry.items()
        if key.startswith("acquire_") and key.endswith("_correlation")
    }


def describe(entry: dict) -> str:
    scenario = entry.get("scenario", {})
    return (
        f"backend={entry.get('backend')} chains={scenario.get('chains')} "
        f"executor={scenario.get('executor')}"
    )


def check_json(path: Path) -> int:
    entries = json.loads(path.read_text())
    if len(entries) < 2:
        print(f"error: {path} holds {len(entries)} entries; need >= 2 to compare")
        return 1

    reference = correlations(entries[0])
    if not reference:
        print(f"error: first entry of {path} has no acquire_*_correlation keys")
        return 1

    failures = 0
    for entry in entries[1:]:
        current = correlations(entry)
        if set(current) != set(reference):
            print(f"MISMATCH [{describe(entry)}]: query set differs: "
                  f"{sorted(current)} vs {sorted(reference)}")
            failures += 1
            continue
        for key, expected in reference.items():
            if current[key] != expected:
                print(
                    f"MISMATCH [{describe(entry)}] {key}: "
                    f"{current[key]!r} != {expected!r} [{describe(entries[0])}]"
                )
                failures += 1

    if failures:
        print(f"\n{failures} correlation mismatch(es) across {len(entries)} entries")
        return 1
    print(
        f"OK: {len(entries)} entries agree bit-for-bit on "
        f"{len(reference)} correlation(s): "
        + ", ".join(f"{key}={value}" for key, value in sorted(reference.items()))
    )
    return 0


# ---------------------------------------------------------------- live mode
def fingerprint(result) -> tuple:
    return (
        tuple(result.target_graph.nodes),
        tuple(tuple(sorted(edge)) for edge in result.target_graph.edges),
        result.estimated_correlation,
        result.estimated_quality,
        result.estimated_join_informativeness,
        result.estimated_price,
        tuple(result.sql()),
    )


def check_live(args) -> int:
    from repro.core.config import DanceConfig, ServiceConfig
    from repro.marketplace.dataset import MarketplaceDataset
    from repro.marketplace.market import Marketplace
    from repro.marketplace.shopper import AcquisitionRequest
    from repro.pricing.models import EntropyPricingModel
    from repro.sampling.resampling import ResamplingPolicy
    from repro.search.mcmc import MCMCConfig
    from repro.search.plan import ExecutionPlan
    from repro.search.shm import live_segments
    from repro.service import AcquisitionService
    from repro.workloads.queries import queries_for
    from repro.workloads.tpch import tpch_workload

    workload = tpch_workload(scale=args.scale, seed=0)
    requests = [
        AcquisitionRequest(
            source_attributes=list(query.source_attributes),
            target_attributes=list(query.target_attributes),
            budget=1000.0,
        )
        for query in queries_for(workload).values()
    ]
    # A clean variant of a hosted instance: registering it is a replacement,
    # which the shared-store pool must absorb as a versioned delta.
    delta_name = sorted(workload.tables)[0]
    delta_table = workload.table(delta_name)
    requested = ExecutionPlan(
        executor=args.executor,
        chains=args.chains,
        shared_store=True if args.shared_store else None,
    )

    def build_marketplace() -> Marketplace:
        pricing = EntropyPricingModel()
        marketplace = Marketplace(default_pricing=pricing)
        for name in workload.tables:
            marketplace.host(
                MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
            )
        return marketplace

    def replay(plans, resampling: ResamplingPolicy) -> tuple[list, int, int]:
        """Serve every plan cold and after the delta; compare with the first plan.

        Returns the outcomes, the failure count and on how many of the first
        plan's served graphs the policy fires."""
        failures = 0
        outcomes = []
        fired = 0
        for plan in plans:
            config = DanceConfig(
                sampling_rate=0.5,
                mcmc=MCMCConfig(iterations=args.iterations, seed=0),
                plan=plan,
                resampling=resampling,
                service=ServiceConfig(max_batch_workers=1),
            )
            with AcquisitionService(build_marketplace(), config) as service:
                results = [service.acquire(request) for request in requests]
                if not outcomes:
                    fired = sum(
                        fires(result.target_graph, service.dance.join_graph, resampling)
                        for result in results
                    )
                cold = [fingerprint(result) for result in results]
                service.register_source_tables([delta_table])
                warm = [fingerprint(service.acquire(request)) for request in requests]
                store_stats = service.describe()["shared_store"]
            outcomes.append((plan, cold, warm, store_stats))

        (_, first_cold, first_warm, _) = outcomes[0]
        label = f"eta={resampling.threshold}"
        for plan, cold, warm, store_stats in outcomes[1:]:
            if cold != first_cold:
                failures += 1
                print(f"MISMATCH [{plan.spec()}, {label}]: cold results differ from serial")
            if warm != first_warm:
                failures += 1
                print(
                    f"MISMATCH [{plan.spec()}, {label}]: post-delta results differ from serial"
                )
            if plan.executor == "process" and plan.wants_shared_store:
                if store_stats is None:
                    failures += 1
                    print(f"FAIL [{plan.spec()}, {label}]: no shared-store pool was built")
                else:
                    if store_stats["worker_resyncs"] != 0:
                        failures += 1
                        print(
                            f"FAIL [{plan.spec()}, {label}]: warm pool did not survive "
                            f"the delta: {store_stats}"
                        )
                    if store_stats["deltas_published"] + store_stats["rebases"] < 1:
                        failures += 1
                        print(
                            f"FAIL [{plan.spec()}, {label}]: no update was published: "
                            f"{store_stats}"
                        )
        return outcomes, failures, fired

    serial = ExecutionPlan(executor="serial", chains=args.chains)
    outcomes, failures, _ = replay([serial, requested], ResamplingPolicy())
    fired_policy = ResamplingPolicy(threshold=FIRED_ETA, rate=0.5, seed=0)
    thread = ExecutionPlan(executor="thread", chains=args.chains)
    fired_plans = [serial, thread] + ([requested] if requested.executor != "thread" else [])
    _, fired_failures, fired = replay(fired_plans, fired_policy)
    failures += fired_failures
    if not fired:
        failures += 1
        print(
            f"FAIL: eta={FIRED_ETA} fired on none of the {len(requests)} served "
            f"target graphs; lower FIRED_ETA"
        )
    leaked = live_segments()
    if leaked:
        failures += 1
        print(f"FAIL: leaked shared-memory segments after close: {leaked}")

    if failures:
        print(f"\n{failures} live-parity failure(s)")
        return 1
    stats = outcomes[-1][3]
    print(
        f"OK: {len(requests)} requests x 2 plans bit-identical "
        f"(chains={args.chains}, executor={args.executor}, "
        f"shared_store={bool(args.shared_store)}); shared-store stats: {stats}; "
        f"eta={FIRED_ETA} fired on {fired}/{len(requests)} served graphs and "
        f"{len(fired_plans)} plans agree; no leaked segments"
    )
    return 0


def fires(graph, join_graph, policy) -> bool:
    """Whether ``policy`` re-samples an intermediate of ``graph``'s evaluation.

    The first level whose unsampled join exceeds ``eta`` is where it fires."""
    sizes: list[int] = []
    probe = SimpleNamespace(draw=lambda num_rows: sizes.append(num_rows))
    tables = {name: join_graph.sample(name) for name in graph.nodes}
    graph.joined_table(tables, intermediate_hook=probe)
    return any(size > policy.threshold for size in sizes)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", nargs="?", type=Path,
                        help="bench JSON to compare (JSON mode)")
    parser.add_argument("--executor", default=None,
                        help="live mode: executor to check against serial")
    parser.add_argument("--shared-store", action="store_true",
                        help="live mode: force the shared columnar store on")
    parser.add_argument("--chains", type=int, default=3)
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--iterations", type=int, default=60)
    args = parser.parse_args(argv[1:])
    if args.executor is not None:
        return check_live(args)
    if args.bench_json is None:
        parser.print_help()
        return 2
    return check_json(args.bench_json)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
