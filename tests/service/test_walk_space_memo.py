"""The session's walk-space memo: bounded and bit-exact.

A session keeps, per I-graph and requested attributes, Step 2's start and
the move table and transition memo its single-chain walks share.  The memo
is replaced with every write, is bounded, and may not change a served bit.
These tests serve TPC-H Q1-Q3 on a small marketplace and compare every
answer with a fresh session's:

* past the bound and under eviction;
* after an in-place write and after a rebuilding one (and a write frees the
  memo it replaces at once);
* from more threads than cores, with the interpreter switching threads often;
* after a caller mutated a served result's target graph.

A repeated pair is answered from the session's answer memo without a walk
(``tests/service/test_answer_memo.py``).
"""

from __future__ import annotations

import functools
import gc
import sys
import threading
import weakref

from repro.core.config import DanceConfig, ServiceConfig
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.relational.table import Table
from repro.search import acquisition
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


def service(source_tables=(), catalog_path=None) -> AcquisitionService:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload().tables:
        marketplace.host(
            MarketplaceDataset(table=workload().dirty_or_clean(name), pricing=pricing)
        )
    config = DanceConfig(
        sampling_rate=0.5,
        mcmc=MCMCConfig(iterations=30, seed=0),
        service=ServiceConfig(
            max_batch_workers=1,
            catalog_path=None if catalog_path is None else str(catalog_path),
        ),
    )
    return AcquisitionService(marketplace, config, source_tables=list(source_tables))


def answer_bits(result) -> tuple:
    estimates = (
        result.estimated_correlation,
        result.estimated_quality,
        result.estimated_price,
        result.estimated_join_informativeness,
    )
    return tuple(float.hex(value) for value in estimates) + (tuple(result.sql()),)


#: (request, seed) pairs: every query at eight seeds, so Step 1 draws many
#: landmark sets and the walks from a start run at many seeds.
PAIRS = [(request, seed) for seed in range(8) for request in requests()]


def serve(svc: AcquisitionService, pairs=PAIRS) -> list[tuple]:
    return [answer_bits(svc.acquire(request, seed=seed)) for request, seed in pairs]


@functools.cache
def fresh_answers(pairs: tuple = tuple(range(len(PAIRS)))) -> list[tuple]:
    """Each pair served by a session that served nothing before it."""
    answers = []
    for index in pairs:
        with service() as fresh:
            answers.append(serve(fresh, [PAIRS[index]])[0])
    return answers


def assert_walk_spaces_add_up(svc: AcquisitionService) -> None:
    memo = svc._walk_spaces
    held = list(memo._spaces.values())
    graphs = memo.snapshot()["graphs"]
    assert graphs == sum(1 + len(space.transitions) for space in held)
    assert graphs <= acquisition.WALK_SPACE_GRAPHS
    described = svc.describe()
    assert described["walk_space_memo_entries"] == len(held)
    assert described["walk_space_memo_graphs"] == graphs


def test_a_warm_session_serves_a_fresh_sessions_bits_from_its_walk_spaces(monkeypatch):
    # The answer memo holds nothing, so the second pass walks again.
    monkeypatch.setattr(session, "ANSWER_MEMO_ENTRIES", 0)
    with service() as warm:
        assert serve(warm) == fresh_answers()
        snapshot = warm.metrics()["walk_space_memo"]
        assert snapshot["hits"] > 0
        assert snapshot["misses"] == snapshot["entries"] > 0
        assert snapshot["graphs"] > snapshot["entries"]
        assert_walk_spaces_add_up(warm)
        # A second pass builds no start: every lookup hits.
        assert serve(warm) == fresh_answers()
        again = warm.metrics()["walk_space_memo"]
        assert again["misses"] == snapshot["misses"]
        assert again["entries"] == snapshot["entries"]


def test_a_small_walk_space_memo_evicts_and_serves_the_same_bits(monkeypatch):
    with service() as roomy:
        serve(roomy)
        roomy_graphs = roomy.describe()["walk_space_memo_graphs"]
    bound = roomy_graphs // 3
    assert bound > 1
    monkeypatch.setattr(acquisition, "WALK_SPACE_GRAPHS", bound)
    with service() as small:
        assert serve(small) == fresh_answers()
        assert 0 < small.describe()["walk_space_memo_graphs"] <= bound
        assert_walk_spaces_add_up(small)
    monkeypatch.setattr(acquisition, "WALK_SPACE_GRAPHS", 0)
    with service() as empty:
        assert serve(empty) == fresh_answers()
        assert empty.describe()["walk_space_memo_entries"] == 0


def shop_table() -> Table:
    """A new source instance that joins customer and orders on custkey."""
    customer = workload().table("customer")
    rows = list(zip(customer.column("custkey"), customer.column("cname")))[:40]
    return Table.from_rows("shop", ["custkey", "shop_note"], rows)


def test_writes_reset_the_memos_and_serve_a_fresh_sessions_bits():
    """An incremental write adds an instance in place; a replacing write
    rebuilds the graph.  After each, the warm session answers like a
    session built at that state."""
    shop = shop_table()
    orders = workload().table("orders")
    with service() as warm:
        serve(warm)
        summary = warm.register_source_tables([shop])
        assert summary["mode"] == "incremental"
        assert warm.describe()["walk_space_memo_entries"] == 0
        assert warm.describe()["answer_memo_entries"] == 0
        with service(source_tables=[shop]) as fresh:
            assert serve(warm) == serve(fresh)
        summary = warm.register_source_tables([orders])
        assert summary["mode"] == "rebuild"
        assert warm.describe()["walk_space_memo_entries"] == 0
        with service(source_tables=[shop, orders]) as fresh:
            assert serve(warm) == serve(fresh)
        assert_walk_spaces_add_up(warm)


def test_a_write_frees_the_memo_it_replaces_at_once():
    """A held space's transition memo refers to its memo weakly, so the memo
    a write replaces goes with its graphs and tables at once, not when the
    cycle collector next runs."""
    with service() as svc:
        serve(svc, PAIRS[:6])
        replaced = weakref.ref(svc._walk_spaces)
        described = svc.describe()
        assert described["walk_space_memo_graphs"] > described["walk_space_memo_entries"]
        gc.disable()
        try:
            svc.register_source_tables([shop_table()])
            assert replaced() is None
        finally:
            gc.enable()


def test_threads_sharing_the_memos_serve_the_single_thread_bits(monkeypatch):
    """Six threads on a two-core budget serve every pair, each from another
    starting point, with the interpreter switching threads every 10 µs and
    the walk-space memo small enough to evict while they run.  The answer
    memo holds nothing, so every read walks."""
    with service() as single:
        expected = serve(single)
        graphs = single.describe()["walk_space_memo_graphs"]
    bound = graphs // 2
    monkeypatch.setattr(acquisition, "WALK_SPACE_GRAPHS", bound)
    monkeypatch.setattr(session, "ANSWER_MEMO_ENTRIES", 0)
    threads_count = 6
    served_by = [[None] * len(PAIRS) for _ in range(threads_count)]
    errors: list[BaseException] = []
    peaks: list[int] = []

    def run(svc: AcquisitionService, thread: int) -> None:
        try:
            for step in range(len(PAIRS)):
                index = (thread * 5 + step) % len(PAIRS)
                served_by[thread][index] = serve(svc, [PAIRS[index]])[0]
                peaks.append(svc.describe()["walk_space_memo_graphs"])
        except BaseException as error:  # dancelint: disable=ERR301 -- asserted below
            errors.append(error)

    with service() as shared:
        threads = [
            threading.Thread(target=run, args=(shared, index))
            for index in range(threads_count)
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
        assert max(peaks) <= bound
        assert shared.metrics()["answer_memo"]["entries"] == 0
        assert_walk_spaces_add_up(shared)


def test_mutating_a_direct_callers_target_graph_changes_no_later_answer():
    """A caller of ``DANCE.acquire`` that shares a walk-space memo gets a
    copy of the winner, never a graph later walks read."""
    with service() as svc:
        dance = svc.dance
    memo = acquisition.WalkSpaceMemo()
    first = []
    for request, seed in PAIRS:
        result = dance.acquire(
            request, runtime=acquisition.SearchRuntime(mcmc_seed=seed, walk_spaces=memo)
        )
        first.append(answer_bits(result))
        graph = result.target_graph
        for name in graph.nodes:
            graph.projections[name] = frozenset({"tampered"})
        graph.edges[:] = [frozenset({"tampered"})] * len(graph.edges)
        graph.nodes.append("tampered")
    again = [
        answer_bits(
            dance.acquire(
                request, runtime=acquisition.SearchRuntime(mcmc_seed=seed, walk_spaces=memo)
            )
        )
        for request, seed in PAIRS
    ]
    assert again == first == fresh_answers()


def test_mutating_a_served_target_graph_changes_no_later_answer():
    with service() as svc:
        first = serve(svc)
        for request, seed in PAIRS:
            graph = svc.acquire(request, seed=seed).target_graph
            for name in graph.nodes:
                graph.projections[name] = frozenset({"tampered"})
            graph.edges[:] = [frozenset({"tampered"})] * len(graph.edges)
            graph.parents.reverse()
            graph.nodes.append("tampered")
        assert serve(svc) == first == fresh_answers()
