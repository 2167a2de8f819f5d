#!/usr/bin/env python
"""Assert the multi-chain determinism contract on live services.

Both modes serve the TPC-H Q1-Q3 requests through real
``AcquisitionService`` instances under different
:class:`~repro.search.plan.ExecutionPlan` s and compare the served bits.

**Sweep** (the CI ``bench-smoke`` check, ``--sweep``): serve once with one
chain and once per four-chain plan: serial, thread, and process with and
without the shared columnar store.  The four-chain plans must agree bit for
bit, and one chain must match their correlations on this scenario.  Results
depend only on ``(seed, chains)``, never on the executor or the scheduling
order.  Every run is repeated with the re-sampling threshold ``eta`` lowered
to ``FIRED_ETA``, so that the hook fires and the walks replay join lineages
from their distinct-row summaries; there the four-chain plans must agree bit
for bit (one chain draws differently, so its fired answers are not
compared).

**Executor check** (the CI ``shm-smoke`` check): ``--executor process
--shared-store`` serves under the requested plan and replays serially; the
served bits must agree, a mid-run ``register_source_tables`` delta must be
absorbed by the warm shared-store pool with **zero** full worker resyncs,
no worker may unpickle the pinned worker spec more than once per published
version, and every shared-memory segment must be unlinked on close.  The
delta must keep some memoised evaluations and drop others, and every plan's
post-delta answers must equal those of a cold service built with the delta
registered before its first request: warm services alone would all agree
on an entry that was wrongly kept.  A second replay lowers the re-sampling
threshold ``eta`` to ``FIRED_ETA``, so that the correlated re-sampling hook
fires on the served target graphs, and must agree bit for bit across the
serial, thread and requested executors, before and after the delta.

Usage::

    PYTHONPATH=src python scripts/check_multichain_parity.py --sweep
    PYTHONPATH=src python scripts/check_multichain_parity.py \\
        --executor process --shared-store [--chains 3] [--scale 0.2]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import SimpleNamespace

#: Live mode's second re-sampling threshold: the served TPC-H 0.2 target
#: graphs have first-level joins of 17-28 rows, so it fires on every one.
FIRED_ETA = 16

#: Live mode's MCMC seed for every request, on warm and cold services alike.
SEED = 0

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


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


def tpch_requests(workload) -> list:
    from repro.marketplace.shopper import AcquisitionRequest
    from repro.workloads.queries import queries_for

    return [
        AcquisitionRequest(
            source_attributes=list(query.source_attributes),
            target_attributes=list(query.target_attributes),
            budget=1000.0,
        )
        for query in queries_for(workload).values()
    ]


def build_marketplace(workload):
    from repro.marketplace.dataset import MarketplaceDataset
    from repro.marketplace.market import Marketplace
    from repro.pricing.models import EntropyPricingModel

    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload.tables:
        marketplace.host(
            MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
        )
    return marketplace


def check_sweep(args) -> int:
    from repro.core.config import DanceConfig, ServiceConfig
    from repro.sampling.resampling import ResamplingPolicy
    from repro.search.mcmc import MCMCConfig
    from repro.search.plan import ExecutionPlan
    from repro.search.shm import live_segments
    from repro.service import AcquisitionService
    from repro.workloads.tpch import tpch_workload

    single = ExecutionPlan(executor="serial", chains=1)
    plans = [single] + [
        ExecutionPlan(executor=executor, chains=4, shared_store=shared_store)
        for executor, shared_store in (
            ("serial", None),
            ("thread", None),
            ("process", False),
            ("process", True),
        )
    ]
    policies = {
        "default": ResamplingPolicy(),
        f"eta={FIRED_ETA}": ResamplingPolicy(threshold=FIRED_ETA, rate=0.5, seed=0),
    }
    served: dict[tuple[str, str], list[tuple]] = {}
    fired = 0
    failures = 0
    workload = tpch_workload(scale=args.scale, seed=0)
    requests = tpch_requests(workload)
    for label, resampling in policies.items():
        for plan in plans:
            config = DanceConfig(
                sampling_rate=0.5,
                mcmc=MCMCConfig(iterations=args.iterations, seed=0),
                plan=plan,
                resampling=resampling,
                service=ServiceConfig(max_batch_workers=1),
            )
            with AcquisitionService(build_marketplace(workload), config) as service:
                results = [service.acquire(request) for request in requests]
                served[label, plan.spec()] = [fingerprint(result) for result in results]
                if resampling.threshold == FIRED_ETA:
                    join_graph = service.dance.join_graph
                    fired += sum(
                        fires(result.target_graph, join_graph, resampling)
                        for result in results
                    )
                if plan.shared_store and service.describe()["shared_store"] is None:
                    failures += 1
                    print(f"FAIL [{label} plan={plan.spec()}]: no shared store")

    for label in policies:
        reference = served[label, plans[1].spec()]
        for (key_label, spec), fingerprints in served.items():
            if key_label != label:
                continue
            if spec != single.spec():
                same = fingerprints == reference
            elif label == "default":
                # One chain and four chains are different walks; on this
                # scenario they find the same correlations.
                same = [f[2] for f in fingerprints] == [f[2] for f in reference]
            else:
                continue
            if not same:
                failures += 1
                print(f"MISMATCH [{label} plan={spec}] differs")
    if not fired:
        failures += 1
        print(
            f"FAIL: eta={FIRED_ETA} fired on none of the served target graphs; "
            f"lower FIRED_ETA"
        )
    leaked = live_segments()
    if leaked:
        failures += 1
        print(f"FAIL: leaked shared-memory segments after close: {leaked}")
    if failures:
        print(f"\n{failures} sweep failure(s)")
        return 1
    reference = served["default", plans[1].spec()]
    correlations = ", ".join(repr(f[2]) for f in reference)
    fired_runs = len(served) // len(policies) * len(reference)
    print(
        f"OK: {len(served)} (eta, plan) runs of {len(reference)} requests agree "
        f"(plans: {', '.join(plan.spec() for plan in plans)}); correlations: "
        f"{correlations}; eta={FIRED_ETA} fired on {fired}/{fired_runs} served graphs"
    )
    return 0


def check_live(args) -> int:
    from repro.core.config import DanceConfig, ServiceConfig
    from repro.sampling.resampling import ResamplingPolicy
    from repro.search.mcmc import MCMCConfig
    from repro.search.plan import ExecutionPlan
    from repro.search.shm import live_segments
    from repro.service import AcquisitionService
    from repro.workloads.tpch import tpch_workload

    workload = tpch_workload(scale=args.scale, seed=0)
    requests = tpch_requests(workload)
    # A clean variant of a hosted instance: registering it is a replacement,
    # which the shared-store pool must absorb as a versioned delta.  About
    # half of the memoised graphs join lineitem, so the delta both keeps and
    # drops memo entries.
    delta_table = workload.table("lineitem")
    requested = ExecutionPlan(
        executor=args.executor,
        chains=args.chains,
        shared_store=True if args.shared_store else None,
    )

    def config_for(plan, resampling: ResamplingPolicy) -> DanceConfig:
        return DanceConfig(
            sampling_rate=0.5,
            mcmc=MCMCConfig(iterations=args.iterations, seed=0),
            plan=plan,
            resampling=resampling,
            service=ServiceConfig(max_batch_workers=1),
        )

    def serve(service) -> list:
        return [service.acquire(request, seed=SEED) for request in requests]

    def replay(
        plans, resampling: ResamplingPolicy, *, memo_split: bool
    ) -> tuple[list, int, int]:
        """Serve every plan before and after the delta; compare with the first
        plan, and the post-delta answers with a cold service's.  With
        ``memo_split`` the delta must keep and drop memo entries in every plan.

        Returns the outcomes, the failure count and on how many of the first
        plan's served graphs the policy fires."""
        failures = 0
        outcomes = []
        fired = 0
        for plan in plans:
            config = config_for(plan, resampling)
            with AcquisitionService(build_marketplace(workload), config) as service:
                results = serve(service)
                if not outcomes:
                    fired = sum(
                        fires(result.target_graph, service.dance.join_graph, resampling)
                        for result in results
                    )
                before = [fingerprint(result) for result in results]
                summary = service.register_source_tables([delta_table])
                after = [fingerprint(result) for result in serve(service)]
                store_stats = service.describe()["shared_store"]
            memo = (summary["memo_kept"], summary["memo_dropped"])
            outcomes.append((plan, before, after, store_stats, memo))
        # The delta registered before the first request: nothing memoised
        # before the write can leak into these answers.
        with AcquisitionService(
            build_marketplace(workload),
            config_for(plans[0], resampling),
            source_tables=[delta_table],
        ) as service:
            cold_after = [fingerprint(result) for result in serve(service)]

        (_, first_before, _, _, _) = outcomes[0]
        label = f"eta={resampling.threshold}"
        for plan, before, after, store_stats, memo in outcomes:
            if before != first_before:
                failures += 1
                print(f"MISMATCH [{plan.spec()}, {label}]: cold results differ from serial")
            if after != cold_after:
                failures += 1
                print(
                    f"MISMATCH [{plan.spec()}, {label}]: post-delta results differ from "
                    f"a cold service with the delta registered"
                )
            if memo_split and not all(memo):
                failures += 1
                print(
                    f"FAIL [{plan.spec()}, {label}]: the delta must keep and drop memo "
                    f"entries; kept {memo[0]}, dropped {memo[1]}"
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
                    # A worker unpickles the pinned spec at most once per
                    # published version; a per-payload re-read would not.
                    versions = 1 + store_stats["deltas_published"] + store_stats["rebases"]
                    if store_stats["worker_spec_loads"] > plan.resolved_workers() * versions:
                        failures += 1
                        print(
                            f"FAIL [{plan.spec()}, {label}]: workers re-read the pinned "
                            f"spec more than once per version: {store_stats}"
                        )
        return outcomes, failures, fired

    serial = ExecutionPlan(executor="serial", chains=args.chains)
    outcomes, failures, _ = replay([serial, requested], ResamplingPolicy(), memo_split=True)
    fired_policy = ResamplingPolicy(threshold=FIRED_ETA, rate=0.5, seed=0)
    thread = ExecutionPlan(executor="thread", chains=args.chains)
    fired_plans = [serial, thread] + ([requested] if requested.executor != "thread" else [])
    _, fired_failures, fired = replay(fired_plans, fired_policy, memo_split=False)
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
    memo = "; ".join(
        f"{plan.spec()} kept {kept}, dropped {dropped}"
        for plan, _, _, _, (kept, dropped) in outcomes
    )
    print(
        f"OK: {len(requests)} requests x 2 plans bit-identical "
        f"(chains={args.chains}, executor={args.executor}, "
        f"shared_store={bool(args.shared_store)}), and equal to a cold service after "
        f"the delta; memo entries across the delta: {memo}; shared-store stats: {stats}; "
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
    parser.add_argument("--sweep", action="store_true",
                        help="compare chains and executors (bench-smoke)")
    parser.add_argument("--executor", default=None,
                        help="executor to check against serial (shm-smoke)")
    parser.add_argument("--shared-store", action="store_true",
                        help="with --executor: force the shared columnar store on")
    parser.add_argument("--chains", type=int, default=3)
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--iterations", type=int, default=60)
    args = parser.parse_args(argv[1:])
    if args.sweep:
        return check_sweep(args)
    if args.executor is not None:
        return check_live(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
