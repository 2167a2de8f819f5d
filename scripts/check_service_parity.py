#!/usr/bin/env python
"""Assert the service-layer determinism contract on a small TPC-H scenario.

Serves a batch of three acquisition requests (Q1/Q2/Q3) through one
``AcquisitionService`` — concurrently, with shared caches and derived
per-request seeds — and replays the same requests as serial one-at-a-time
``DANCE.acquire()`` calls with the same seeds on a cold middleware.  The two
must agree bit-for-bit on every recommendation (target graph, correlation,
quality, weight, price, SQL).  A warm repeat of the batch must agree with the
cold one too, answered from the session's answer memo without a search.

It then runs the admission-saturation smoke: a bounded queue under the
``block`` policy must serve the identical batch (backpressure never changes
results), and a saturated queue under ``reject`` must shed requests with
``AdmissionRejectedError`` while leaving every *served* request
bit-identical — then recover fully once the queue drains.

Then comes the WFQ smoke: a contended three-tier workload on one execution
slot (``ServiceConfig(qos=QosConfig(slots=1))``) must serve bit-identically
to the serial reference, and a batch of already-expired deadlines must be
shed whole with ``DeadlineExceededError`` and recover bit-identically
afterwards.

Then comes the fired smoke: under a re-sampling threshold low enough to
fire the hook (``FIRED_ETA``, the golden-answer test's setting), one service
serves Q1/Q2/Q3 at two seeds, so the second seed's walks read the fired
evaluations the first seed's left in the session's evaluation memos, and
then again in reverse order, which the answer memo serves.  Every answer
must equal a cold one-shot ``DANCE.acquire()`` at the same seed, and the
hook must have fired on some served winner (:func:`fired_winners`).

Last comes the fresh-seed smoke: a warm service serves Q1/Q2/Q3 at seeds it
never used, which miss the answer memo and hit the walk-space memo (the
starts and proposal graphs earlier requests built), then registers a new
source instance and serves two more requests, the second at a seed never
used.  Every answer must equal a cold one-shot ``DANCE.acquire()`` at the
same seed and graph state.

Used by the CI ``service-smoke`` job.  Run locally with::

    PYTHONPATH=src python scripts/check_service_parity.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import DanceConfig, ServiceConfig
from repro.core.dance import DANCE
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.pricing.sla import QosConfig
from repro.sampling.resampling import ResamplingPolicy
from repro.search.acquisition import SearchRuntime
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService, request_seed
from repro.workloads.queries import queries_for
from repro.workloads.tpch import tpch_workload

SCALE = 0.2
SAMPLING_RATE = 0.5
ITERATIONS = 60
BUDGET = 1000.0
BATCH_WORKERS = 3
#: A re-sampling threshold at which the hook fires on this scenario, and the
#: seeds the fired smoke serves.
FIRED_ETA = 16
FIRED_SEEDS = (0, 1)
#: Seeds the fresh-seed smoke warms its service with, and the never-used
#: seeds it then serves, one per request, and two more after its write.
WARM_SEEDS = (0, 1, 2)
FRESH_SEEDS = (1000, 1001, 1002)
AFTER_WRITE_SEEDS = (2000, 2001)


def build_marketplace(workload) -> Marketplace:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload.tables:
        marketplace.host(
            MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
        )
    return marketplace


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


def check_queue(workload, requests, reference_prints) -> int:
    """The admission-saturation smoke (block and reject policies)."""
    from repro.exceptions import AdmissionRejectedError

    failures = 0

    # Block policy: a queue bound smaller than the batch back-pressures the
    # submitter but must serve the identical batch.
    config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(iterations=ITERATIONS, seed=0),
        service=ServiceConfig(
            max_batch_workers=BATCH_WORKERS, max_queue_depth=1, admission="block"
        ),
    )
    with AcquisitionService(build_marketplace(workload), config) as service:
        bounded = service.acquire_batch(requests)
        queue = service.metrics()["queue"]
    if not bounded.ok:
        failures += 1
        print("FAIL[queue]: bounded block-policy batch reported errors")
    elif [fingerprint(item.result) for item in bounded] != reference_prints:
        failures += 1
        print("MISMATCH[queue]: block-policy bounded batch differs from unbounded")
    if queue["rejected"] != 0 or queue["admitted"] != len(requests):
        failures += 1
        print(f"FAIL[queue]: unexpected block-policy counters: {queue}")

    # Reject policy: saturate the queue (hold its only slot), shed the whole
    # batch, then drain and verify full recovery with bit-identical results.
    config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(iterations=ITERATIONS, seed=0),
        service=ServiceConfig(
            max_batch_workers=BATCH_WORKERS, max_queue_depth=1, admission="reject"
        ),
    )
    with AcquisitionService(build_marketplace(workload), config) as service:
        # Occupy the single slot, as an in-flight request would.
        held = service._scheduler.submit(requests[0])
        service._scheduler.await_grant(held)
        try:
            shed = service.acquire_batch(requests)
        finally:
            service._scheduler.release(held)
        if shed.ok or any(item.ok for item in shed):
            failures += 1
            print("FAIL[queue]: saturated reject-policy batch served requests")
        if not all(isinstance(item.error, AdmissionRejectedError) for item in shed):
            failures += 1
            print("FAIL[queue]: shed requests did not report AdmissionRejectedError")
        # Drained queue: serial requests admit one at a time, so none can be
        # shed, and each must reproduce the unbounded batch bit-for-bit.
        recovered_prints = [
            fingerprint(service.acquire(request, seed=request_seed(0, index)))
            for index, request in enumerate(requests)
        ]
        rejected = service.metrics()["queue"]["rejected"]
    if recovered_prints != reference_prints:
        failures += 1
        print("MISMATCH[queue]: post-saturation requests differ from unbounded batch")
    if rejected != len(requests):
        failures += 1
        print(f"FAIL[queue]: expected {len(requests)} rejections, counted {rejected}")

    if not failures:
        print(
            f"OK[queue]: block policy bit-identical under depth 1; reject policy "
            f"shed {len(requests)} and recovered bit-identically"
        )
    return failures


def check_wfq(workload, requests, reference_prints) -> int:
    """The WFQ smoke: contended-tier bit-identity and deadline shedding."""
    from repro.exceptions import DeadlineExceededError

    failures = 0
    ladder = [("goldie", "gold"), ("silvia", "silver"), ("bronn", "bronze")]
    tiered = [
        AcquisitionRequest(
            source_attributes=list(request.source_attributes),
            target_attributes=list(request.target_attributes),
            budget=request.budget,
            shopper=ladder[index % len(ladder)][0],
            tier=ladder[index % len(ladder)][1],
        )
        for index, request in enumerate(requests)
    ]
    config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(iterations=ITERATIONS, seed=0),
        service=ServiceConfig(max_batch_workers=BATCH_WORKERS, qos=QosConfig(slots=1)),
    )

    # Contended mixed-tier batch: three shoppers on three tiers fight for the
    # scheduler's single execution slot.  WFQ may reorder the grants any way
    # it likes — the served bytes must match the serial single-FIFO reference
    # exactly, because seeds and positions follow the request index.
    with AcquisitionService(build_marketplace(workload), config) as service:
        shaped = service.acquire_batch(tiered)
        qos = service.metrics()["qos"]
    if not shaped.ok:
        failures += 1
        print("FAIL[wfq]: contended mixed-tier batch reported errors")
    elif [fingerprint(item.result) for item in shaped] != reference_prints:
        failures += 1
        print("MISMATCH[wfq]: WFQ-scheduled batch differs from the serial reference")
    granted = {name: stats["requests"] for name, stats in qos["tiers"].items()}
    expected = {}
    for index in range(len(tiered)):
        tier = ladder[index % len(ladder)][1]
        expected[tier] = expected.get(tier, 0) + 1
    for name in granted:
        if granted.get(name, 0) != expected.get(name, 0):
            failures += 1
            print(f"FAIL[wfq]: per-tier grant counters {granted} != {expected}")
            break

    # Deadline shedding: a batch whose deadlines are already expired at
    # dequeue is shed whole with DeadlineExceededError (no request ever
    # burns a slot), and the service recovers bit-identically afterwards.
    expired = [
        AcquisitionRequest(
            source_attributes=list(request.source_attributes),
            target_attributes=list(request.target_attributes),
            budget=request.budget,
            shopper=f"hurried-{index}",
            deadline=0.0,
        )
        for index, request in enumerate(requests)
    ]
    with AcquisitionService(build_marketplace(workload), config) as service:
        shed = service.acquire_batch(expired)
        if shed.ok or any(item.ok for item in shed):
            failures += 1
            print("FAIL[wfq]: expired-deadline batch served requests")
        if not all(isinstance(item.error, DeadlineExceededError) for item in shed):
            failures += 1
            print("FAIL[wfq]: shed requests did not report DeadlineExceededError")
        recovered_prints = [
            fingerprint(service.acquire(request, seed=request_seed(0, index)))
            for index, request in enumerate(requests)
        ]
        deadline_exceeded = service.metrics()["qos"]["deadline_exceeded"]
    if recovered_prints != reference_prints:
        failures += 1
        print("MISMATCH[wfq]: post-shed requests differ from the serial reference")
    if deadline_exceeded != len(requests):
        failures += 1
        print(
            f"FAIL[wfq]: expected {len(requests)} deadline sheds, "
            f"counted {deadline_exceeded}"
        )

    if not failures:
        print(
            f"OK[wfq]: contended 3-tier WFQ batch bit-identical to serial "
            f"reference (grants {granted}); {len(requests)} deadline sheds "
            f"recovered bit-identically"
        )
    return failures


def fired_winners(results, join_graph) -> int:
    """How many served winners the re-sampling hook fired on: their
    evaluation's join holds fewer rows than the same graph joined with no
    hook on ``join_graph``'s samples."""
    fired = 0
    for result in results:
        graph = result.target_graph
        unsampled = graph.joined_table({name: join_graph.sample(name) for name in graph.nodes})
        fired += result.evaluation.join_rows < len(unsampled)
    return fired


def check_fired(workload, requests) -> int:
    """The fired smoke: fired evaluations shared across requests serve cold answers."""
    config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(iterations=ITERATIONS, seed=0),
        resampling=ResamplingPolicy(threshold=FIRED_ETA, rate=0.5, seed=0),
        service=ServiceConfig(max_batch_workers=1),
    )
    order = [(index, seed) for seed in FIRED_SEEDS for index in range(len(requests))]
    served: list[tuple[int, int, tuple]] = []
    with AcquisitionService(build_marketplace(workload), config) as service:
        results = []
        for index, seed in order + order[::-1]:
            results.append(service.acquire(requests[index], seed=seed))
            served.append((index, seed, fingerprint(results[-1])))
        fired = fired_winners(results, service.join_graph)

    dance = DANCE(build_marketplace(workload), config)
    dance.build_offline()
    cold = {
        (index, seed): fingerprint(
            dance.acquire(requests[index], runtime=SearchRuntime(mcmc_seed=seed))
        )
        for index, seed in order
    }

    failures = 0
    for index, seed, print_ in served:
        if print_ != cold[index, seed]:
            failures += 1
            print(
                f"MISMATCH[fired]: request {index} seed {seed}: served {print_} "
                f"!= cold {cold[index, seed]}"
            )
    if not fired:
        failures += 1
        print(f"FAIL[fired]: eta={FIRED_ETA} fired on no served winner; lower FIRED_ETA")
    if not failures:
        print(
            f"OK[fired]: eta={FIRED_ETA}, {len(served)} requests served forwards and "
            f"back bit-identical to cold one-shot DANCE.acquire; "
            f"{fired} served winners fired"
        )
    return failures


def check_fresh_seeds(workload, requests) -> int:
    """The fresh-seed smoke: answer-memo misses served from warm walk spaces."""
    from repro.relational.table import Table

    config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(iterations=ITERATIONS, seed=0),
        service=ServiceConfig(max_batch_workers=1),
    )
    customer = workload.table("customer")
    shop = Table.from_rows(
        "shop",
        ["custkey", "shop_note"],
        list(zip(customer.column("custkey"), customer.column("cname")))[:50],
    )

    def cold_prints(pairs, source_tables=()) -> list[tuple]:
        dance = DANCE(build_marketplace(workload), config)
        if source_tables:
            dance.register_source_tables(list(source_tables))
        dance.build_offline()
        return [
            fingerprint(dance.acquire(requests[index], runtime=SearchRuntime(mcmc_seed=seed)))
            for index, seed in pairs
        ]

    fresh = [(index, seed) for index, seed in enumerate(FRESH_SEEDS)]
    after = [(0, seed) for seed in AFTER_WRITE_SEEDS]
    failures = 0
    with AcquisitionService(build_marketplace(workload), config) as service:
        for seed in WARM_SEEDS:
            for request in requests:
                service.acquire(request, seed=seed)
        before = service.metrics()
        served = [fingerprint(service.acquire(requests[i], seed=s)) for i, s in fresh]
        between = service.metrics()
        mode = service.register_source_tables([shop])["mode"]
        served_after = [fingerprint(service.acquire(requests[i], seed=s)) for i, s in after]
        final = service.metrics()

    answer_misses = between["answer_memo"]["misses"] - before["answer_memo"]["misses"]
    answer_hits = between["answer_memo"]["hits"] - before["answer_memo"]["hits"]
    space_hits = between["walk_space_memo"]["hits"] - before["walk_space_memo"]["hits"]
    space_misses = between["walk_space_memo"]["misses"] - before["walk_space_memo"]["misses"]
    if (answer_misses, answer_hits) != (len(fresh), 0):
        failures += 1
        print(
            f"FAIL[fresh]: {len(fresh)} never-used seeds made {answer_misses} answer-memo "
            f"misses and {answer_hits} hits"
        )
    if space_hits == 0:
        failures += 1
        print(
            f"FAIL[fresh]: never-used seeds reused no warm walk space ({space_misses} misses)"
        )
    if final["walk_space_memo"]["hits"] == 0:
        failures += 1
        print("FAIL[fresh]: the request after the write did not reuse its walk space")
    for (index, seed), got, want in zip(fresh, served, cold_prints(fresh)):
        if got != want:
            failures += 1
            print(f"MISMATCH[fresh]: request {index} seed {seed}: served {got} != cold {want}")
    for (index, seed), got, want in zip(after, served_after, cold_prints(after, [shop])):
        if got != want:
            failures += 1
            print(
                f"MISMATCH[fresh]: after the {mode} write, request {index} seed {seed}: "
                f"served {got} != cold {want}"
            )
    if not failures:
        print(
            f"OK[fresh]: {len(fresh)} never-used seeds on a warm service ({answer_misses} "
            f"answer-memo misses, {space_hits} of {space_hits + space_misses} starts from the "
            f"walk-space memo) and {len(after)} requests after an {mode} write "
            f"bit-identical to cold one-shot DANCE.acquire"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--plan",
        default=None,
        help="serve the batch under this ExecutionPlan spec (e.g. "
        "'executor=process,chains=3'); the serial replay "
        "keeps the same chain count, so the contract stays (seed, chains)",
    )
    args = parser.parse_args()

    workload = tpch_workload(scale=SCALE, seed=0)
    requests = [
        AcquisitionRequest(
            source_attributes=list(query.source_attributes),
            target_attributes=list(query.target_attributes),
            budget=BUDGET,
        )
        for query in queries_for(workload).values()
    ]
    config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(iterations=ITERATIONS, seed=0),
        plan=args.plan,
        service=ServiceConfig(max_batch_workers=BATCH_WORKERS),
    )

    with AcquisitionService(build_marketplace(workload), config) as service:
        cold = service.acquire_batch(requests)
        warm = service.acquire_batch(requests)
        answers = service.metrics()["answer_memo"]
    if not cold.ok:
        print(f"FAIL: batch reported errors: {[str(i.error) for i in cold.errors()]}")
        return 1
    cold_prints = [fingerprint(item.result) for item in cold]
    warm_prints = [fingerprint(item.result) for item in warm]

    # The serial replay keeps the served plan's chain count but runs every
    # chain in-process: the contract is (seed, chains), never the executor.
    serial_config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(
            iterations=ITERATIONS, seed=0, chains=config.mcmc.chains, executor="serial"
        ),
        service=ServiceConfig(max_batch_workers=BATCH_WORKERS),
    )
    dance = DANCE(build_marketplace(workload), serial_config)
    dance.build_offline()
    serial_prints = []
    for index, request in enumerate(requests):
        runtime = SearchRuntime(mcmc_seed=request_seed(0, index))
        serial_prints.append(fingerprint(dance.acquire(request, runtime=runtime)))

    failures = 0
    for index, (batch_fp, serial_fp) in enumerate(zip(cold_prints, serial_prints)):
        if batch_fp != serial_fp:
            failures += 1
            print(f"MISMATCH request {index}: batch {batch_fp} != serial {serial_fp}")
    if warm_prints != cold_prints:
        failures += 1
        print("MISMATCH: warm batch differs from cold batch")
    if (answers["hits"], answers["misses"]) != (len(requests), len(requests)):
        failures += 1
        print(
            f"FAIL: the warm repeat was not answered from the answer memo "
            f"(expected {len(requests)} hits after {len(requests)} misses, got {answers})"
        )

    failures += check_queue(workload, requests, cold_prints)
    failures += check_wfq(workload, requests, cold_prints)
    failures += check_fired(workload, requests)
    failures += check_fresh_seeds(workload, requests)

    if failures:
        print(f"\n{failures} service-parity failure(s)")
        return 1
    correlations = [fp[2] for fp in cold_prints]
    print(
        f"OK: batch of {len(requests)} (x{BATCH_WORKERS} workers, warm repeat) "
        f"bit-identical to serial DANCE.acquire: correlations={correlations}; "
        f"answer memo hits={answers['hits']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
