"""The three benchmark workloads: inputs from the seed, set-up, the measured loop.

Every workload drives the real serving stack (``AcquisitionService`` over
``DANCE``) from one client process as a closed loop: the next operation is
sent only after the previous one answered.

``fresh-tpch``
    TPC-H scale 2.0, one in-process client rotating Q1/Q2/Q3; every read
    carries an MCMC seed never used before, so each misses the Step-1 memo and
    Q1's re-sampling hook fires (fired evaluations bypass the evaluation memo).
``hot-tpce``
    TPC-E scale 1.0, a pool of 12 (query, seed) pairs warmed during set-up and
    then cycled over ``POST /acquire`` from two connections: every read is
    served from the memos, so the MCMC proposal loop, the session and HTTP
    take the time.  The process is pinned to one CPU (``run.py``): its client
    and server threads share one GIL, and left free to move between CPUs a
    run's speed flips between two modes.
``churn-tpce``
    The same pool from one in-process client on the shared-store process
    executor with a sqlite catalog; after every 10 reads one write swaps a
    TPC-E instance between its clean and dirty version through
    ``register_source_tables`` (graph rebuild, AFD re-discovery, checkpoint,
    delta to the warm pool, memo reset).

fresh-tpch and hot-tpce make their writes after the measured reads (a fixed
number of whole swap cycles), so that every workload reports a write latency
without a write ever resetting a memo its reads relied on.

A phase serves a fixed amount of work, not a fixed time: ``--seconds`` at the
scenario's nominal rate (``reads_per_second``, about what a 2-vCPU 2.0 GHz
Xeon serves), rounded up to whole blocks (see ``phase_reads``).  The
machine's speed drifts, and a phase that stopped on the clock would serve
fewer reads when slow; for fresh-tpch, whose Q1 walks are heavy-tailed in
cost, that changed which reads a run served and so its percentiles.

Inputs derive from the workload seed: it permutes every table's rows, the
order in which the client sends its (query, MCMC seed) pairs and the churn
order.  The pairs themselves are a fixed set.  A read's cost and answer
depend on its MCMC seed, and for Q1 on TPC-H that cost is heavy-tailed (a
walk may or may not wander into hook-fired candidates), so pairs drawn from
the workload seed would make each run's work, and its mean correlation, a
random draw.  fresh-tpch reads run in blocks of one request per query, so
runs of any seed serve the same pairs; hot-tpce cycles all 12.  churn-tpce's
graph states depend on the churn order, so its mean correlation counts only
the reads served in states every order passes through (see ``operations``).
"""

from __future__ import annotations

import copy
import hashlib
import http.client
import json
import math
import random
import resource
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from typing import Iterator

from repro.core.config import DanceConfig, ServiceConfig
from repro.exceptions import ReproError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.search.acquisition import SearchRuntime
from repro.search.mcmc import MCMCConfig
from repro.search.plan import ExecutionPlan
from repro.service import AcquisitionService
from repro.service.server import AcquisitionHTTPServer
from repro.workloads.queries import tpce_queries, tpch_queries
from repro.workloads.tpce import tpce_workload
from repro.workloads.tpch import tpch_workload

from perfbench import stats
from perfbench.trace import SPAN_HEADER, Recorder

BUDGET = 1000.0
SAMPLING_RATE = 0.4
QUERIES = ("Q1", "Q2", "Q3")

#: The speed witness (``witness_ms``): its loop length, what it takes on a
#: 2-vCPU 2.0 GHz Xeon in its fast state, and the phase-clock seconds between
#: two samples.  The machine's speed drifts by tens of percent, both within
#: seconds and over minutes, so every time the benchmark reports is scaled by
#: ``speed_factor`` of the sample taken right after it (see
#: ``Scenario.speed_exponent``).
WITNESS_LOOP = 20_000
WITNESS_REFERENCE_MS = 1.5
WITNESS_EVERY = 0.1


@dataclass(frozen=True)
class Scenario:
    """One workload's fixed shape; the seed varies only what the module docstring says."""

    name: str
    family: str
    scale: float
    generation_seed: int
    iterations: int = 200
    plan: str | None = None
    pool_pairs_per_query: int = 4
    connections: int = 0
    reads_per_write: int = 0
    catalog: bool = False
    reads_per_second: float = 12.0
    min_reads: int = 200
    check_every: int = 10
    setup_builds: int = 7
    write_cycles: int = 1
    one_cpu: bool = False
    #: How many times as much as the witness loop (on a log scale) this
    #: workload's reads slow when the machine does.  Measured across runs:
    #: fresh and hot reads and throughput 1.27-1.47 (computed in-process, on
    #: the witness's CPU); churn about 1 (its reads mostly wait for pool
    #: workers).  Writes and set-up, mostly AFD discovery, scale with 1.
    speed_exponent: float = 1.0

    @property
    def kind(self) -> str:
        return self.name.split("-")[0]


SCENARIOS = {
    "fresh-tpch": Scenario(
        "fresh-tpch", "tpch", scale=2.0, generation_seed=0, reads_per_second=15.0,
        speed_exponent=1.4,
    ),
    "hot-tpce": Scenario(
        "hot-tpce", "tpce", scale=1.0, generation_seed=1, connections=2,
        reads_per_second=150.0, write_cycles=4, one_cpu=True, speed_exponent=1.4,
    ),
    "churn-tpce": Scenario(
        "churn-tpce",
        "tpce",
        scale=1.0,
        generation_seed=1,
        plan="executor=process,chains=2",
        reads_per_write=10,
        catalog=True,
        reads_per_second=15.0,
    ),
}


def derive(*parts: object) -> int:
    """A 31-bit integer from ``parts`` (blake2b, independent of PYTHONHASHSEED)."""
    data = repr(parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big") >> 33


# ------------------------------------------------------------------ inputs
@dataclass(frozen=True)
class Op:
    """One client operation: a read of ``(query, seed)`` or a write of ``instance``."""

    index: int
    kind: str
    query: str = ""
    seed: int = 0
    instance: str = ""
    block_end: bool = True
    check: bool = False
    tally: bool = True


def generate_tables(scenario: Scenario, seed: int) -> tuple[dict, dict]:
    """``(hosted tables, {instance: (clean, dirty)})`` with rows permuted by ``seed``."""
    if scenario.family == "tpch":
        workload = tpch_workload(scale=scenario.scale, seed=scenario.generation_seed)
    else:
        workload = tpce_workload(scale=scenario.scale, seed=scenario.generation_seed)
    rng = random.Random(derive("rows", seed))
    hosted = {}
    for name in workload.tables:
        table = workload.dirty_or_clean(name)
        hosted[name] = table.shuffled(rng, name=name)
    variants = {
        name: (workload.tables[name].shuffled(rng, name=name), hosted[name])
        for name in sorted(workload.dirty_tables)
    }
    return hosted, variants


def read_pool(scenario: Scenario, seed: int) -> list[tuple[str, int]]:
    """The hot/churn (query, seed) pairs, in the order the client cycles them.

    hot-tpce cycles them in a seeded order; churn-tpce keeps one order, so the
    reads it tallies (see ``operations``) are the same pairs for every seed."""
    pairs = [
        (query, derive("pool", query, index))
        for query in QUERIES
        for index in range(scenario.pool_pairs_per_query)
    ]
    if scenario.kind == "hot":
        random.Random(derive("pool-order", seed)).shuffle(pairs)
    return pairs


def operations(scenario: Scenario, seed: int, instances: list[str]) -> Iterator[Op]:
    """The client's endless operation sequence for ``seed``."""
    index = 0
    if scenario.kind == "fresh":
        order = random.Random(derive("block-order", seed))
        block = 0
        while True:
            queries = list(QUERIES)
            order.shuffle(queries)
            for position, query in enumerate(queries):
                yield Op(index, "read", query, derive("fresh", block, query),
                         block_end=position == len(queries) - 1,
                         check=block % scenario.check_every == 0)
                index += 1
            block += 1
    pool = read_pool(scenario, seed)
    if scenario.kind == "hot":
        while True:
            query, request_seed = pool[index % len(pool)]
            yield Op(index, "read", query, request_seed)
            index += 1
    # Each cycle swaps every instance once, in a fresh seeded order.  Between
    # cycles the graph is in a state no order changes (every instance clean,
    # or every one dirty), and only the reads served there count towards the
    # mean correlation: the states inside a cycle depend on the order.
    churn_order = random.Random(derive("churn-order", seed))
    reads = 0
    while True:
        cycle = list(instances)
        churn_order.shuffle(cycle)
        for step, instance in enumerate(cycle):
            for position in range(scenario.reads_per_write):
                query, request_seed = pool[reads % len(pool)]
                yield Op(index, "read", query, request_seed, block_end=False,
                         check=position == 0, tally=step == 0)
                index += 1
                reads += 1
            yield Op(index, "write", instance=instance)
            index += 1


def phase_reads(scenario: Scenario, seconds: float, instances: list[str]) -> int:
    """Reads one phase serves: ``seconds`` at the nominal rate, at least
    ``min_reads``, rounded up to whole blocks (fresh: one read per query; hot:
    the pool; churn: a cycle that swaps every instance once)."""
    if scenario.kind == "fresh":
        unit = len(QUERIES)
    elif scenario.kind == "hot":
        unit = len(QUERIES) * scenario.pool_pairs_per_query
    else:
        unit = scenario.reads_per_write * len(instances)
    wanted = max(scenario.min_reads, math.ceil(seconds * scenario.reads_per_second))
    return math.ceil(wanted / unit) * unit


def request_for(queries: dict, query: str) -> AcquisitionRequest:
    spec = queries[query]
    return AcquisitionRequest(
        source_attributes=list(spec.source_attributes),
        target_attributes=list(spec.target_attributes),
        budget=BUDGET,
    )


# ------------------------------------------------------------------ set-up
@dataclass
class Stack:
    """One built serving stack plus what the client needs to drive it."""

    service: AcquisitionService
    queries: dict
    variants: dict
    server: AcquisitionHTTPServer | None = None
    thread: threading.Thread | None = None
    catalog_dir: Path | None = None
    warm_answers: dict = field(default_factory=dict)
    swapped: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
        self.service.close()
        if self.catalog_dir is not None:
            shutil.rmtree(self.catalog_dir, ignore_errors=True)

    @property
    def catalog_path(self) -> Path | None:
        return None if self.catalog_dir is None else self.catalog_dir / "catalog.sqlite"


def build(scenario: Scenario, seed: int, out_dir: Path, recorder: Recorder | None) -> Stack:
    """From nothing to ready to serve (what ``setup_s`` times)."""
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    with span("workloads.generate"):
        hosted, variants = generate_tables(scenario, seed)
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for table in hosted.values():
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))
    catalog_dir = None
    if scenario.catalog:
        catalog_dir = Path(tempfile.mkdtemp(prefix="catalog-", dir=out_dir))
    config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(iterations=scenario.iterations, seed=0),
        plan=scenario.plan,
        service=ServiceConfig(
            seed=0,
            max_batch_workers=1,
            catalog_path=None if catalog_dir is None else str(catalog_dir / "catalog.sqlite"),
        ),
    )
    service = AcquisitionService(marketplace, config)
    queries = tpch_queries() if scenario.family == "tpch" else tpce_queries()
    stack = Stack(service=service, queries=queries, variants=variants, catalog_dir=catalog_dir)
    if scenario.catalog:
        service.persist()
    if scenario.connections:
        stack.server = AcquisitionHTTPServer(("127.0.0.1", 0), service, queries=stack.queries)
        stack.thread = stack.server.serve_background()
    if scenario.kind in ("hot", "churn"):
        for query, request_seed in read_pool(scenario, seed):
            op = Op(-1, "read", query, request_seed)
            with span("warmup.read") as warm:
                answer = serve_read(stack, op, None if warm is None else warm.id)
            stack.warm_answers[(query, request_seed)] = answer
    return stack


# ------------------------------------------------------------------ serving
@dataclass
class Answer:
    key: tuple
    correlation: float
    hit_rate: float


def serve_read(stack: Stack, op: Op, span_id: int | None) -> Answer:
    """One read through the stack's front door (HTTP when it has a server)."""
    if stack.server is None:
        result = stack.service.acquire(request_for(stack.queries, op.query), seed=op.seed)
        return Answer(
            stats.answer_key(
                result.estimated_correlation, result.estimated_price, result.sql()
            ),
            result.estimated_correlation,
            result.mcmc_cache_hit_rate,
        )
    body = json.dumps({"query": op.query, "budget": BUDGET, "seed": op.seed}).encode()
    headers = {"Content-Type": "application/json"}
    if span_id is not None:
        headers[SPAN_HEADER] = str(span_id)
    connection = http.client.HTTPConnection("127.0.0.1", stack.server.port, timeout=120)
    try:
        connection.request("POST", "/acquire", body=body, headers=headers)
        response = connection.getresponse()
        payload = json.loads(response.read())
    finally:
        connection.close()
    if response.status != 200:
        error = payload.get("error", {})
        raise HttpError(f"HTTP {response.status} {error.get('type')}: {error.get('message')}")
    result = payload["result"]
    return Answer(
        stats.answer_key(result["estimated_correlation"], result["estimated_price"],
                         result["queries"]),
        result["estimated_correlation"],
        result["mcmc_cache_hit_rate"],
    )


class HttpError(Exception):
    """A non-200 response from the serve tier."""


def serve_write(stack: Stack, op: Op) -> dict:
    """Swap ``op.instance`` between its clean and dirty version."""
    clean, dirty = stack.variants[op.instance]
    table = dirty if stack.swapped.get(op.instance) == "clean" else clean
    stack.swapped[op.instance] = "dirty" if table is dirty else "clean"
    return stack.service.register_source_tables([table])


def reference(stack: Stack, scenario: Scenario, op: Op) -> tuple:
    """The serial one-shot answer for ``op`` at the stack's current graph state."""
    dance = stack.service.dance
    chains = ExecutionPlan.normalize(scenario.plan).chains if scenario.plan else 1
    runtime = SearchRuntime(
        mcmc_seed=op.seed,
        resampling=copy.deepcopy(dance.config.resampling),
        plan=ExecutionPlan(executor="serial", chains=chains),
    )
    result = dance.acquire(request_for(stack.queries, op.query), runtime=runtime)
    return stats.answer_key(result.estimated_correlation, result.estimated_price, result.sql())


# ------------------------------------------------------------------ the loop
@dataclass
class Phase:
    """Everything one measured phase observed."""

    wall_seconds: float = 0.0
    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    read_slots: list[int] = field(default_factory=list)
    write_slots: list[int] = field(default_factory=list)
    read_ops: list[int] = field(default_factory=list)
    witness: list[float] = field(default_factory=list)
    witness_clock: list[float] = field(default_factory=list)
    answers: dict[int, Answer] = field(default_factory=dict)
    tallied: set[int] = field(default_factory=set)
    read_done: list[float] = field(default_factory=list)
    write_summaries: list[dict] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    reads_attempted: int = 0
    writes_attempted: int = 0
    reads_failed: int = 0
    writes_failed: int = 0
    checked: int = 0
    cut: bool = False
    speed_exponent: float = 1.0
    peak_rss_mb: float = 0.0
    cache_entries: dict[str, int] = field(default_factory=dict)

    def note_caches(self, described: dict) -> None:
        """Keep the largest session-cache sizes seen; every write empties them."""
        for key in ("evaluation_cache_entries", "ji_cache_entries"):
            self.cache_entries[key] = max(self.cache_entries.get(key, 0), described[key])

    def add_read(self, op: Op, seconds: float) -> None:
        """One read's latency; its speed sample is the next one taken."""
        self.read_latencies.append(seconds)
        self.read_slots.append(len(self.witness))
        self.read_ops.append(op.index)

    def add_write(self, seconds: float) -> None:
        self.write_latencies.append(seconds)
        self.write_slots.append(len(self.witness))

    def fail(self, kind: str, op: Op, error: BaseException) -> None:
        label = f"{kind}:{type(error).__name__}"
        self.errors[label] = self.errors.get(label, 0) + 1
        if kind == "read":
            self.reads_failed += 1
            self.add_read(op, math.inf)
        else:
            self.writes_failed += 1
            self.add_write(math.inf)

    def sample_speed(self, clock: float, *, force: bool = False) -> None:
        """Time the witness loop at phase-clock ``clock`` if ``WITNESS_EVERY``
        seconds passed since the last sample (or ``force``)."""
        if force or not self.witness_clock or clock - self.witness_clock[-1] >= WITNESS_EVERY:
            self.witness.append(witness_ms())
            self.witness_clock.append(clock)

    def scaled_reads(self) -> list[float]:
        """Read latencies at reference speed, each by the sample taken right after it."""
        return [latency * speed_factor(self.witness[slot], self.speed_exponent)
                for latency, slot in zip(self.read_latencies, self.read_slots)]

    def scaled_writes(self) -> list[float]:
        """Write latencies at reference speed, each by the mean of the samples
        either side of it: a fresh-tpch write lasts the best part of a second."""
        return [latency * speed_factor(mean(self.witness[max(slot - 1, 0):slot + 1]), 1.0)
                for latency, slot in zip(self.write_latencies, self.write_slots)]

    def scaled_wall(self) -> float:
        """The phase's wall time at reference speed: each stretch between two
        samples scaled by the later one."""
        total = previous = 0.0
        for clock, sample in zip(self.witness_clock, self.witness):
            total += (clock - previous) * speed_factor(sample, self.speed_exponent)
            previous = clock
        return total

    def op_seconds(self) -> dict[int, float]:
        """Op index -> latency at reference speed of every answered read."""
        return {index: latency
                for index, latency in zip(self.read_ops, self.scaled_reads())
                if latency != math.inf}


EXPECTED_ERRORS = (ReproError, HttpError, OSError)


def run_phase(
    stack: Stack,
    scenario: Scenario,
    seed: int,
    seconds: float,
    recorder: Recorder | None,
    *,
    deadline: float = 60.0,
) -> Phase:
    """The measured closed loop: ``phase_reads`` reads and the writes between
    them (cut short, and marked ``cut``, past ``deadline`` seconds).

    Traced phases note the session-cache sizes just before each write."""
    phase = Phase(speed_exponent=scenario.speed_exponent)
    instances = sorted(stack.variants)
    target = phase_reads(scenario, seconds, instances)
    if scenario.connections:
        _run_connections(stack, scenario, seed, target, recorder, phase, deadline)
        return phase
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    paused = 0.0
    deferred = []  # fresh-tpch's checks wait for the end: its graph never changes
    start = time.perf_counter()
    for op in operations(scenario, seed, instances):
        began = time.perf_counter()
        if op.kind == "read":
            phase.reads_attempted += 1
            try:
                with span("read"):
                    answer = serve_read(stack, op, None)
            except EXPECTED_ERRORS as error:
                phase.fail("read", op, error)
            else:
                phase.add_read(op, time.perf_counter() - began)
                phase.read_done.append(time.perf_counter() - start - paused)
                phase.answers[op.index] = answer
                if op.tally:
                    phase.tallied.add(op.index)
                if op.check and scenario.kind == "churn":
                    paused += _check(stack, scenario, op, answer, phase, recorder)
                elif op.check:
                    deferred.append(op)
        else:
            if recorder is not None:
                noted = time.perf_counter()
                phase.note_caches(stack.service.describe())
                paused += time.perf_counter() - noted
            _write(stack, op, phase, span)
        clock = time.perf_counter() - start - paused
        phase.sample_speed(clock)
        if op.block_end and phase.reads_attempted >= target:
            break
        if clock > deadline:
            phase.cut = True
            break
    phase.wall_seconds = time.perf_counter() - start - paused
    phase.sample_speed(phase.wall_seconds, force=True)
    for op in deferred:
        _check(stack, scenario, op, phase.answers[op.index], phase, recorder)
    return phase


def _write(stack: Stack, op: Op, phase: Phase, span) -> None:
    phase.writes_attempted += 1
    began = time.perf_counter()
    try:
        with span("write"):
            summary = serve_write(stack, op)
    except EXPECTED_ERRORS as error:
        phase.fail("write", op, error)
        return
    phase.add_write(time.perf_counter() - began)
    phase.write_summaries.append(summary)
    if summary.get("mode") != "rebuild":
        phase.mismatches.append(f"write of {op.instance} refreshed as {summary.get('mode')}")


def run_writes(
    stack: Stack, scenario: Scenario, phase: Phase, recorder: Recorder | None
) -> None:
    """After fresh/hot reads: swap the dirty-capable instances in name order,
    ``scenario.write_cycles`` times.

    These writes follow the measured reads, so they never reset a memo a read
    relied on; they give every workload a write latency of its own stack.  A
    swapped instance stays a full table, so each write re-discovers AFDs on
    more rows than the one before: the order is fixed to keep that work the
    same for every seed.  The machine's speed flips every few seconds, and a
    hot-tpce write takes tens of milliseconds, so hot-tpce makes several
    cycles rather than sample a single speed."""
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    writes = 0
    for _ in range(scenario.write_cycles):
        for instance in sorted(stack.variants):
            writes += 1
            _write(stack, Op(-writes, "write", instance=instance), phase, span)
            # At the phase's end clock: a speed sample for the write, no wall time.
            phase.sample_speed(phase.wall_seconds, force=True)


def _check(
    stack: Stack, scenario: Scenario, op: Op, answer: Answer, phase: Phase,
    recorder: Recorder | None,
) -> float:
    """Compare one served answer with the serial reference; returns the time it took."""
    began = time.perf_counter()
    if recorder is not None:
        recorder.paused = True
    try:
        expected = reference(stack, scenario, op)
    finally:
        if recorder is not None:
            recorder.paused = False
    phase.checked += 1
    if expected != answer.key:
        phase.mismatches.append(f"read {op.index} ({op.query}, seed {op.seed}): "
                                f"served {answer.key} != reference {expected}")
    return time.perf_counter() - began


def _run_connections(
    stack: Stack, scenario: Scenario, seed: int, target: int, recorder: Recorder | None,
    phase: Phase, deadline: float,
) -> None:
    """``scenario.connections`` client threads claiming ``target`` ops from one
    shared sequence.

    The speed witness holds the GIL while it runs, so it would delay a read
    in flight on the other connection (and set the p95): the clients meet at
    a barrier every ``WITNESS_EVERY`` seconds' worth of reads, and the
    sample is taken there, with no read in flight."""
    ops = operations(scenario, seed, [])
    lock = threading.Lock()
    start = time.perf_counter()
    barrier = threading.Barrier(
        scenario.connections,
        action=lambda: phase.sample_speed(time.perf_counter() - start, force=True),
    )
    between_samples = max(
        1, round(WITNESS_EVERY * scenario.reads_per_second / scenario.connections)
    )

    def client() -> None:
        try:
            serve_ops()
        finally:
            barrier.abort()  # the other clients no longer wait for this one

    def serve_ops() -> None:
        served = 0
        while True:
            with lock:
                if phase.reads_attempted >= target:
                    return
                if time.perf_counter() - start > deadline:
                    phase.cut = True
                    return
                op = next(ops)
                phase.reads_attempted += 1
            began = time.perf_counter()
            try:
                if recorder is not None and recorder.active:
                    with recorder.span("read") as span:
                        answer = serve_read(stack, op, span.id)
                else:
                    answer = serve_read(stack, op, None)
            except EXPECTED_ERRORS as error:
                with lock:
                    phase.fail("read", op, error)
            else:
                latency = time.perf_counter() - began
                expected = stack.warm_answers.get((op.query, op.seed))
                with lock:
                    phase.add_read(op, latency)
                    phase.read_done.append(time.perf_counter() - start)
                    phase.answers[op.index] = answer
                    if op.tally:
                        phase.tallied.add(op.index)
                    phase.checked += 1
                    if expected is None or expected.key != answer.key:
                        phase.mismatches.append(f"read {op.index} ({op.query}, {op.seed}) "
                                                "differs from its warm-up answer")
            served += 1
            if served % between_samples == 0:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    pass  # another client has finished; samples stop until the end

    threads = [threading.Thread(target=client, name=f"bench-client-{index}")
               for index in range(scenario.connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall_seconds = time.perf_counter() - start
    phase.sample_speed(phase.wall_seconds, force=True)


def check_warm_answers(stack: Stack, scenario: Scenario) -> list[str]:
    """Compare every warm-up answer with its serial reference (pool workloads)."""
    mismatches = []
    for (query, request_seed), answer in stack.warm_answers.items():
        expected = reference(stack, scenario, Op(-1, "read", query, request_seed))
        if expected != answer.key:
            mismatches.append(f"warm-up ({query}, {request_seed}): served {answer.key} "
                              f"!= reference {expected}")
    return mismatches


# ------------------------------------------------------------------ helpers
def answers_digest(phase: Phase) -> tuple[str, float] | None:
    """Digest of every answered read and the mean correlation of the tallied
    ones, or None if none was tallied."""
    tallied = [phase.answers[index].correlation for index in sorted(phase.tallied)]
    if not tallied:
        return None
    digest = stats.digest((index, answer.key) for index, answer in phase.answers.items())
    return digest, math.fsum(tallied) / len(tallied)


def witness_ms(iterations: int = WITNESS_LOOP) -> float:
    """Thread CPU milliseconds of a fixed pure-python loop: the speed witness.

    Thread CPU time leaves out the time other threads hold the GIL, and on
    this kind of machine it slows with wall time (the slowdowns are not steal
    time), so it measures the core's speed right now."""
    began = time.thread_time()
    accumulator = 0
    for value in range(iterations):
        accumulator = (accumulator * 31 + value) % 1_000_003
    return (time.thread_time() - began) * 1000


def speed_factor(sample_ms: float, exponent: float) -> float:
    """What a time taken when the witness read ``sample_ms`` is multiplied by
    to give the time at reference speed."""
    return (WITNESS_REFERENCE_MS / sample_ms) ** exponent


def cpu_witness(repeats: int = 5) -> float:
    """A longer witness (median of ``repeats``), timed before and after a run."""
    return sorted(witness_ms(10 * WITNESS_LOOP) for _ in range(repeats))[repeats // 2]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024

