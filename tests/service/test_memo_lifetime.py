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
"""

from __future__ import annotations

import functools

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
from repro.search.mcmc import MCMCConfig
from repro.search.shm import live_segments
from repro.service import AcquisitionService
from repro.workloads.queries import queries_for
from repro.workloads.tpce import tpce_workload
from repro.workloads.tpch import tpch_workload

SEEDS = (0, 1, 2)
#: New source instances per workload; each one's FD reaches a different graph.
SOURCES = 2


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


def service(family: str, plan: str, source_tables=()) -> AcquisitionService:
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
        service=ServiceConfig(max_batch_workers=1),
    )
    return AcquisitionService(marketplace, config, source_tables=list(source_tables))


def hexes(*values: float) -> tuple[str, ...]:
    return tuple(float.hex(float(value)) for value in values)


def served(svc: AcquisitionService, family: str) -> list[tuple]:
    answers = []
    for request, seed in zip(requests(family), SEEDS):
        result = svc.acquire(request, seed=seed)
        estimates = (
            result.estimated_correlation,
            result.estimated_quality,
            result.estimated_price,
        )
        answers.append(hexes(*estimates) + (tuple(result.sql()),))
    return answers


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


def cold_evaluation(cold: AcquisitionService, namespace: tuple, signature: tuple) -> tuple:
    graph = cold.join_graph
    target = graph_of(signature, graph.source_instances)
    evaluation = target.evaluate(
        {name: graph.sample(name) for name in target.nodes},
        *namespace,
        cold.dance.fds,
        graph.pricing,
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


def check_writes(family: str, plan: str, cold_plan: str, ops) -> None:
    registered: dict[str, Table] = {}
    with service(family, plan) as warm:
        served(warm, family)
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
            with service(family, cold_plan, registered.values()) as cold:
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
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_shared_store_pool_answers_like_a_cold_one_after_writes(family, data):
    check_writes(
        family,
        "executor=process,chains=2,shared_store=on",
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
