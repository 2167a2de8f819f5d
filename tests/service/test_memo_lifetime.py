"""After writes, a warm service answers like a cold one.

A write keeps every memoised evaluation it cannot have changed
(:func:`repro.graph.target.prune_memos`), in the session and in shared-store
pool workers.  These tests serve TPC-H and TPC-E Q1-Q3 on small
marketplaces, apply a drawn sequence of writes and, after each one, compare
the warm service with a cold service built at the same state: every served
answer, and every memo entry the warm session kept, must be the same bits.

The writes are the two kinds that reach memoised graphs differently:

* swapping a hosted instance between its clean and dirty version replaces
  that instance (its graphs must go);
* registering a new source instance whose AFD is violated on another
  instance's rows adds an FD that applies to graphs without the new
  instance (those whose join carries both of its attributes must go).

Under a re-sampling threshold low enough to fire the hook, a fired
evaluation is one draw fixed by its graph and the session's policy, and the
session memoises it like any other: every fired entry a write keeps must be
what a cold service's evaluation under the same policy returns.  The last
tests shrink every memo's bound until it evicts, and serve fired requests
from eight threads at once.
"""

from __future__ import annotations

import functools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DanceConfig, ServiceConfig
from repro.graph.target import TargetGraph
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.relational.partitions import correct_row_count
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy
from repro.search.mcmc import MCMCConfig
from repro.search.shm import live_segments
from repro.service import AcquisitionService
from repro.service import session as session_module
from repro.workloads.queries import queries_for
from repro.workloads.tpce import tpce_workload
from repro.workloads.tpch import tpch_workload

SEEDS = (0, 1, 2)
#: New source instances per workload; each one's FD reaches a different graph.
SOURCES = 2
#: A re-sampling threshold at which Q1-Q3 fire the hook on both families.
FIRED_ETA = 16
SERIAL = "executor=serial,chains=1"


@functools.cache
def workload(family: str):
    if family == "tpch":
        return tpch_workload(scale=0.05, seed=0, dirty_rate=0.3)
    return tpce_workload(scale=0.05, seed=0)


def requests(family: str) -> list[AcquisitionRequest]:
    return [
        AcquisitionRequest(
            source_attributes=list(query.source_attributes),
            target_attributes=list(query.target_attributes),
            budget=1000.0,
        )
        for query in queries_for(workload(family)).values()
    ]


def fired() -> ResamplingPolicy:
    return ResamplingPolicy(threshold=FIRED_ETA, rate=0.5, seed=0)


def service(
    family: str, plan: str, source_tables=(), resampling: ResamplingPolicy | None = None
) -> AcquisitionService:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload(family).tables:
        marketplace.host(
            MarketplaceDataset(table=workload(family).dirty_or_clean(name), pricing=pricing)
        )
    config = DanceConfig(
        sampling_rate=0.5,
        mcmc=MCMCConfig(iterations=30, seed=0),
        plan=plan,
        resampling=resampling or ResamplingPolicy(),
        service=ServiceConfig(max_batch_workers=1),
    )
    return AcquisitionService(marketplace, config, source_tables=list(source_tables))


def hexes(*values: float) -> tuple[str, ...]:
    return tuple(float.hex(float(value)) for value in values)


def answer_bits(result) -> tuple:
    estimates = (
        result.estimated_correlation,
        result.estimated_quality,
        result.estimated_price,
    )
    return hexes(*estimates) + (tuple(result.sql()),)


def served(svc: AcquisitionService, family: str) -> list[tuple]:
    return [
        answer_bits(svc.acquire(request, seed=seed))
        for request, seed in zip(requests(family), SEEDS)
    ]


def graph_of(signature: tuple, source_instances) -> TargetGraph:
    nodes, edges, parents, projections = signature
    return TargetGraph(
        nodes=list(nodes),
        edges=[frozenset(edge) for edge in edges],
        parents=list(parents),
        projections={name: frozenset(p) for name, p in zip(nodes, projections)},
        source_instances=frozenset(source_instances),
    )


def memo_entries(svc: AcquisitionService) -> dict[tuple, tuple]:
    """Every memoised evaluation of the session, as bits, by (namespace, signature)."""
    return {
        (namespace, signature): hexes(
            evaluation.correlation, evaluation.quality, evaluation.weight, evaluation.price
        )
        + (evaluation.join_rows,)
        for namespace, cache in svc._evaluation_caches.items()
        for signature, evaluation in cache.items()
    }


def fired_entries(svc: AcquisitionService) -> int:
    """How many memoised evaluations the hook fired on: their join holds
    fewer rows than the graph's unsampled join."""
    graph = svc.join_graph
    fired = 0
    for (_, signature), bits in memo_entries(svc).items():
        target = graph_of(signature, graph.source_instances)
        unsampled = target.joined_table({name: graph.sample(name) for name in target.nodes})
        fired += bits[-1] < len(unsampled)
    return fired


def cold_evaluation(cold: AcquisitionService, namespace: tuple, signature: tuple) -> tuple:
    """The evaluation of ``signature``'s graph on ``cold``'s samples under
    its re-sampling policy, as the session's memo entries hold it."""
    graph = cold.join_graph
    target = graph_of(signature, graph.source_instances)
    resampling = cold.config.resampling
    evaluation = target.evaluate(
        {name: graph.sample(name) for name in target.nodes},
        *namespace,
        cold.dance.fds,
        graph.pricing,
        intermediate_hook=resampling if resampling.enabled else None,
    )
    return hexes(
        evaluation.correlation, evaluation.quality, evaluation.weight, evaluation.price
    ) + (evaluation.join_rows,)


@functools.cache
def violating_sources(family: str) -> tuple[Table, ...]:
    """New source instances, each holding an FD that a memoised graph's join violates.

    The FD ``a -> b`` holds on the new instance, so discovery adds it; it is
    violated on the join of a graph that does not contain the instance, so
    that graph's quality changes with the write."""
    sources: list[Table] = []
    used: set[tuple] = set()
    with service(family, "executor=serial,chains=1") as svc:
        served(svc, family)
        known = {(fd.lhs, fd.rhs) for fd in svc.dance.fds}
        graph = svc.join_graph
        for (_, signature) in sorted(memo_entries(svc)):
            target = graph_of(signature, graph.source_instances)
            joined = target.joined_table({name: graph.sample(name) for name in target.nodes})
            names = [name for name in joined.schema.names if "." not in name]
            pairs = [
                (lhs, rhs)
                for lhs in names
                for rhs in names
                if lhs != rhs
                and ((lhs,), rhs) not in known
                and frozenset((lhs, rhs)) not in used
                and correct_row_count(joined, (lhs,), (rhs,)) < len(joined)
            ]
            if not pairs:
                continue
            lhs, rhs = pairs[0]
            used.add(frozenset((lhs, rhs)))
            rows: dict = {}
            for key, value in zip(joined.column(lhs), joined.column(rhs)):
                rows.setdefault(key, value)
            schema = Schema([joined.schema[lhs], joined.schema[rhs]])
            sources.append(Table.from_rows(f"shop{len(sources)}", schema, rows.items()))
            if len(sources) == SOURCES:
                break
    assert len(sources) == SOURCES
    return tuple(sources)


def writes(family: str):
    swaps = [("swap", name) for name in sorted(workload(family).dirty_tables)]
    adds = [("add", index) for index in range(SOURCES)]
    return st.lists(st.sampled_from(swaps + adds), min_size=1, max_size=3)


def check_writes(
    family: str, plan: str, cold_plan: str, ops, resampling: ResamplingPolicy | None = None
) -> None:
    registered: dict[str, Table] = {}
    with service(family, plan, resampling=resampling) as warm:
        served(warm, family)
        # A firing hook leaves fired evaluations for the writes to prune.
        assert bool(fired_entries(warm)) == (resampling is not None)
        for kind, arg in ops:
            if kind == "add":
                table = violating_sources(family)[arg]
            else:
                clean = workload(family).table(arg)
                swapped = registered.get(arg) is clean
                table = workload(family).dirty_or_clean(arg) if swapped else clean
            registered[table.name] = table
            summary = warm.register_source_tables([table])
            kept = memo_entries(warm)
            assert summary["memo_kept"] == len(kept)
            with service(family, cold_plan, registered.values(), resampling) as cold:
                for (namespace, signature), bits in kept.items():
                    assert cold_evaluation(cold, namespace, signature) == bits, signature
                assert served(warm, family) == served(cold, family)
        assert warm.describe()["cache_resets"] == 0
    assert live_segments() == []


FAMILIES = ["tpch", "tpce"]


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_serial_service_answers_like_a_cold_one_after_writes(family, data):
    check_writes(
        family,
        "executor=serial,chains=1",
        "executor=serial,chains=1",
        data.draw(writes(family)),
    )


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_serial_service_with_a_firing_hook_answers_like_a_cold_one_after_writes(family, data):
    check_writes(family, SERIAL, SERIAL, data.draw(writes(family)), fired())


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_shared_store_pool_answers_like_a_cold_one_after_writes(family, data):
    check_writes(
        family,
        "executor=process,chains=2",
        "executor=serial,chains=2",
        data.draw(writes(family)),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_each_new_source_drops_some_entries_and_keeps_others(family):
    """The FD writes reach the memo: they drop an untouched graph and keep the rest."""
    for index in range(SOURCES):
        with service(family, "executor=serial,chains=1") as warm:
            served(warm, family)
            summary = warm.register_source_tables([violating_sources(family)[index]])
            assert summary["mode"] == "incremental"
            assert summary["memo_kept"] > 0
            assert summary["memo_dropped"] > 0


def pairs(family: str) -> list[tuple[AcquisitionRequest, int]]:
    return [(request, seed) for seed in range(4) for request in requests(family)]


def serve_pairs(svc: AcquisitionService, family: str) -> list[tuple]:
    return [answer_bits(svc.acquire(request, seed=seed)) for request, seed in pairs(family)]


def test_a_session_past_every_bound_keeps_its_memos_bounded_and_serves_fresh_bits(
    monkeypatch,
):
    """Every session memo gets a tiny bound: two of the three request
    namespaces, three evaluations per namespace and two answers.  Every
    pair, at four seeds, returns a fresh session's bits, and after every
    read each memo is within its bound; served again in reverse, only the
    two newest answers are held."""
    family = "tpch"
    expected = []
    for request, seed in pairs(family):
        with service(family, SERIAL, resampling=fired()) as fresh:
            expected.append(answer_bits(fresh.acquire(request, seed=seed)))
    monkeypatch.setattr(session_module, "EVALUATION_NAMESPACES", 2)
    monkeypatch.setattr(session_module, "EVALUATION_MEMO_ENTRIES", 3)
    monkeypatch.setattr(session_module, "ANSWER_MEMO_ENTRIES", 2)
    with service(family, SERIAL, resampling=fired()) as bounded:
        for (request, seed), bits in zip(pairs(family), expected):
            assert answer_bits(bounded.acquire(request, seed=seed)) == bits
            namespaces = bounded._evaluation_caches.items()
            assert 0 < len(namespaces) <= 2
            assert all(0 < len(memo) <= 3 for _, memo in namespaces)
            assert 0 < bounded.describe()["answer_memo_entries"] <= 2
        for (request, seed), bits in reversed(list(zip(pairs(family), expected))):
            assert answer_bits(bounded.acquire(request, seed=seed)) == bits
            assert bounded.describe()["answer_memo_entries"] == 2
        answers = bounded.metrics()["answer_memo"]
        assert (answers["hits"], answers["misses"]) == (2, 2 * len(expected) - 2)


def test_threads_sharing_fired_evaluations_serve_the_serial_answers(monkeypatch):
    """Eight threads serve every pair, each from another starting point, with
    the interpreter switching threads every 10 µs; each namespace's
    evaluation memo holds three entries, so puts, evictions and fired
    evaluations interleave.  The answer memo holds nothing, so every read
    walks."""
    family = "tpch"
    with service(family, SERIAL, resampling=fired()) as serial:
        expected = serve_pairs(serial, family)
    monkeypatch.setattr(session_module, "EVALUATION_MEMO_ENTRIES", 3)
    monkeypatch.setattr(session_module, "ANSWER_MEMO_ENTRIES", 0)
    work = pairs(family)
    served_by = [[None] * len(work) for _ in range(8)]
    errors: list[BaseException] = []

    def serve(svc: AcquisitionService, thread: int) -> None:
        try:
            for step in range(len(work)):
                index = (thread * 5 + step) % len(work)
                request, seed = work[index]
                served_by[thread][index] = answer_bits(svc.acquire(request, seed=seed))
        except BaseException as error:  # dancelint: disable=ERR301 -- asserted below
            errors.append(error)

    with service(family, SERIAL, resampling=fired()) as shared:
        threads = [threading.Thread(target=serve, args=(shared, index)) for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(answers == expected for answers in served_by)
        assert fired_entries(shared)
