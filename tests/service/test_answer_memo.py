"""The session's answer memo: a repeat served without searching, bit-exact.

A served answer is a pure function of the request's attributes and
constraints, its seed and the join graph's state, so a session answers a
repeat on an unchanged graph from its answer memo.  These tests serve TPC-H
Q1-Q3 on a small marketplace and check that:

* a repeat runs no search, equals a cold one-shot ``DANCE.acquire`` and
  counts as a hit, and its held fields equal the first serve's;
* the key holds every request field the search reads, and no other;
* after an incremental write, a rebuilding write and an offline rebuild the
  session answers like a fresh one;
* a caller that mutates a served result changes no later answer;
* an infeasible request runs its search and fails every time;
* threads that share the memo, past its bound, serve the single-thread bits.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import replace

import pytest

from repro.core import dance as dance_module
from repro.core.config import DanceConfig, ServiceConfig
from repro.core.dance import DANCE
from repro.exceptions import InfeasibleAcquisitionError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.relational.table import Table
from repro.search.acquisition import SearchRuntime
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService, session
from repro.workloads.queries import queries_for
from repro.workloads.tpch import tpch_workload


@functools.cache
def workload():
    return tpch_workload(scale=0.05, seed=0, dirty_rate=0.3)


def requests() -> list[AcquisitionRequest]:
    return [
        AcquisitionRequest(
            source_attributes=list(query.source_attributes),
            target_attributes=list(query.target_attributes),
            budget=1000.0,
        )
        for query in queries_for(workload()).values()
    ]


def marketplace() -> Marketplace:
    pricing = EntropyPricingModel()
    market = Marketplace(default_pricing=pricing)
    for name in workload().tables:
        market.host(MarketplaceDataset(table=workload().dirty_or_clean(name), pricing=pricing))
    return market


def config(sampling_rate: float = 0.5) -> DanceConfig:
    return DanceConfig(
        sampling_rate=sampling_rate,
        mcmc=MCMCConfig(iterations=30, seed=0),
        service=ServiceConfig(max_batch_workers=1),
    )


def service(source_tables=(), sampling_rate: float = 0.5) -> AcquisitionService:
    return AcquisitionService(
        marketplace(), config(sampling_rate), source_tables=list(source_tables)
    )


def served(result) -> dict:
    """Every field of a result's summary but the search diagnostics."""
    return {
        key: value for key, value in result.summary().items() if not key.startswith("mcmc_")
    }


def answer_bits(result) -> tuple:
    estimates = (
        result.estimated_correlation,
        result.estimated_quality,
        result.estimated_price,
        result.estimated_join_informativeness,
    )
    return tuple(float.hex(value) for value in estimates) + (tuple(result.sql()),)


PAIRS = [(request, seed) for seed in range(4) for request in requests()]
THREADS = 8


def serve(svc: AcquisitionService, pairs=PAIRS) -> list[tuple]:
    return [answer_bits(svc.acquire(request, seed=seed)) for request, seed in pairs]


def count_searches(monkeypatch) -> list:
    calls = []
    original = dance_module.heuristic_acquisition

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(dance_module, "heuristic_acquisition", counting)
    return calls


def test_a_repeat_runs_no_search_and_equals_a_cold_one_shot(monkeypatch):
    calls = count_searches(monkeypatch)
    with service() as svc:
        first = [svc.acquire(request, seed=seed) for request, seed in PAIRS]
        assert len(calls) == len(PAIRS)
        again = [svc.acquire(request, seed=seed) for request, seed in PAIRS]
        assert len(calls) == len(PAIRS)
        assert svc.metrics()["answer_memo"] == {
            "entries": len(PAIRS),
            "hits": len(PAIRS),
            "misses": len(PAIRS),
        }
        assert svc.describe()["answer_memo_entries"] == len(PAIRS)
    # A held answer's fields are the first serve's, diagnostics included,
    # and each is the caller's own copy.
    for held, original in zip(again, first):
        assert held.summary() == original.summary()
        assert held is not original and held.target_graph is not original.target_graph
    cold = DANCE(marketplace(), config())
    cold.build_offline()
    for (request, seed), held in zip(PAIRS, again):
        one_shot = cold.acquire(request, runtime=SearchRuntime(mcmc_seed=seed))
        assert served(held) == served(one_shot)


def test_the_key_holds_every_field_the_search_reads():
    """A request that differs in its budget, α, β, seed or attribute order is
    another key; one that differs only in its shopper, tier or deadline is
    the same key."""
    base = AcquisitionRequest(["totalprice"], ["mktsegment", "nname"], budget=1000.0)
    misses = [
        (replace(base, budget=900.0), 0),
        (replace(base, max_join_informativeness=1e6), 0),
        (replace(base, min_quality=0.01), 0),
        (base, 1),
        (replace(base, target_attributes=("nname", "mktsegment")), 0),
    ]
    hits = [
        (replace(base, shopper="ann"), 0),
        (replace(base, tier="gold"), 0),
        (replace(base, deadline=60.0), 0),
    ]
    with service() as svc:
        first = answer_bits(svc.acquire(base, seed=0))
        for request, seed in misses:
            before = svc.metrics()["answer_memo"]
            bits = answer_bits(svc.acquire(request, seed=seed))
            after = svc.metrics()["answer_memo"]
            assert (after["hits"], after["misses"]) == (before["hits"], before["misses"] + 1)
            with service() as fresh:
                assert bits == answer_bits(fresh.acquire(request, seed=seed))
        for request, seed in hits:
            before = svc.metrics()["answer_memo"]
            assert answer_bits(svc.acquire(request, seed=seed)) == first
            after = svc.metrics()["answer_memo"]
            assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])


def shop_table() -> Table:
    """A new source instance that joins customer and orders on custkey."""
    customer = workload().table("customer")
    rows = list(zip(customer.column("custkey"), customer.column("cname")))[:40]
    return Table.from_rows("shop", ["custkey", "shop_note"], rows)


def test_every_write_replaces_the_memo_and_serves_a_fresh_sessions_bits():
    shop = shop_table()
    orders = workload().table("orders")
    with service() as warm:
        before = serve(warm)
        assert warm.register_source_tables([shop])["mode"] == "incremental"
        assert warm.describe()["answer_memo_entries"] == 0
        with service(source_tables=[shop]) as fresh:
            assert serve(warm) == serve(fresh)
        assert warm.register_source_tables([orders])["mode"] == "rebuild"
        assert warm.describe()["answer_memo_entries"] == 0
        with service(source_tables=[shop, orders]) as fresh:
            rebuilt = serve(fresh)
        assert serve(warm) == rebuilt != before
        warm.rebuild_offline(sampling_rate=0.6)
        assert warm.describe()["answer_memo_entries"] == 0
        with service(source_tables=[shop, orders], sampling_rate=0.6) as fresh:
            resampled = serve(fresh)
        assert serve(warm) == resampled != rebuilt
        assert warm.metrics()["answer_memo"]["hits"] == 0


def test_mutating_a_served_result_changes_no_later_answer():
    with service() as svc:
        first = [svc.acquire(request, seed=seed).summary() for request, seed in PAIRS]
        for _ in range(2):
            for request, seed in PAIRS:
                result = svc.acquire(request, seed=seed)
                graph = result.target_graph
                for name in graph.nodes:
                    graph.projections[name] = frozenset({"tampered"})
                graph.edges[:] = [frozenset({"tampered"})] * len(graph.edges)
                graph.nodes.append("tampered")
                result.queries.clear()
                result.mcmc_chain_correlations.append(-1.0)
        assert [svc.acquire(request, seed=seed).summary() for request, seed in PAIRS] == first
        assert svc.metrics()["answer_memo"]["hits"] == 3 * len(PAIRS)


def test_an_infeasible_repeat_searches_and_fails_every_time(monkeypatch):
    impossible = AcquisitionRequest(["totalprice"], ["mktsegment"], budget=0.0)
    calls = count_searches(monkeypatch)
    with service() as svc:
        for attempt in range(1, 4):
            with pytest.raises(InfeasibleAcquisitionError):
                svc.acquire(impossible, seed=0)
            assert len(calls) == attempt
            assert svc.describe()["errors"] == attempt
            assert svc.metrics()["answer_memo"] == {
                "entries": 0,
                "hits": 0,
                "misses": attempt,
            }
        batch = svc.acquire_batch([impossible, impossible], seeds=[0, 0])
        assert [item.ok for item in batch] == [False, False]
        assert len(calls) == 5
        assert svc.describe()["errors"] == 5


def test_threads_sharing_a_small_memo_serve_the_single_thread_bits(monkeypatch):
    """Eight threads serve every pair twice, each from another starting
    point, with the interpreter switching threads every 10 µs and a memo
    small enough that puts, hits and evictions interleave."""
    with service() as single:
        expected = serve(single)
    monkeypatch.setattr(session, "ANSWER_MEMO_ENTRIES", 5)
    served_by = [[None] * len(PAIRS) for _ in range(THREADS)]
    errors: list[BaseException] = []

    def run(svc: AcquisitionService, thread: int) -> None:
        try:
            for step in range(2 * len(PAIRS)):
                index = (thread * 5 + step) % len(PAIRS)
                bits = serve(svc, [PAIRS[index]])[0]
                assert served_by[thread][index] in (None, bits)
                served_by[thread][index] = bits
        except BaseException as error:  # dancelint: disable=ERR301 -- asserted below
            errors.append(error)

    with service() as shared:
        threads = [
            threading.Thread(target=run, args=(shared, index)) for index in range(THREADS)
        ]
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
        memo = shared.metrics()["answer_memo"]
        assert memo["entries"] <= 5
        assert memo["hits"] > 0
        assert memo["hits"] + memo["misses"] == THREADS * 2 * len(PAIRS)
