"""Tests for the zero-copy shared-memory executor substrate (``repro.search.shm``).

The contracts under test: a :class:`SharedColumnStore` round-trips the encoded
columnar state bit-identically (codes, histograms, value order) — in-process
and across a real spawned interpreter; worker sessions apply versioned deltas
in place and hard-resync only on version gaps or fingerprint changes; and
every published segment is unlinked on close.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DanceConfig
from repro.core.dance import build_dance
from repro.exceptions import ReproError
from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraph, TargetGraphEvaluation
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.pricing.models import EntropyPricingModel
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy
from repro.search import shm
from repro.search.acquisition import heuristic_acquisition
from repro.search.chains import ChainScheduler, shared_chain_pool
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.search.candidates import build_initial_target_graph
from repro.graph.steiner import minimal_weight_igraph
from repro.workloads.queries import queries_for

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


def assert_tables_identical(original: Table, rebuilt: Table) -> None:
    assert rebuilt.name == original.name
    assert rebuilt.schema.names == original.schema.names
    assert list(rebuilt.iter_rows()) == list(original.iter_rows())
    for key, encoding in original._encodings.items():
        copy = rebuilt._encodings[key]
        assert copy.codes == encoding.codes
        assert copy.values == encoding.values  # value order is part of the contract
        assert list(copy.counts()) == list(encoding.counts())


class TestRoundTripInProcess:
    def test_codes_values_and_counts_round_trip(self):
        facts = Table.from_rows(
            "facts",
            ["good_key", "bad_key", "measure"],
            [(i % 10, i % 3, float(i % 8) * 10 + i % 3) for i in range(64)],
        )
        # Force the multi-column key path and the histogram caches so the
        # export carries them (shared codes objects must dedup too).
        facts.encoded_key(["good_key", "bad_key"])
        for column in facts.schema.names:
            facts.encoded(column).counts()
        store = shm.SharedColumnStore("test-roundtrip")
        try:
            manifest = store.export_tables(
                {"facts": facts}, version=0, kind="base", meta={"k": "v"}
            )
            attached, meta = shm.attach_tables(manifest)
            assert meta == {"k": "v"}
            assert_tables_identical(facts, attached["facts"])
        finally:
            store.close()

    def test_fingerprint_mismatch_is_rejected(self):
        table = Table.from_rows("t", ["a"], [(1,), (2,), (1,)])
        store = shm.SharedColumnStore("test-corrupt")
        try:
            manifest = store.export_tables(
                {"t": table}, version=0, kind="base", meta={}
            )
            forged = replace(
                manifest,
                meta=replace(manifest.meta, digest="00" * 16),
            )
            with pytest.raises(ReproError, match="fingerprint"):
                shm.attach_tables(forged)
        finally:
            store.close()


# The spawned child re-attaches the manifest from nothing but segment names
# and pickles the rebuilt tables back — proving a fresh interpreter (no
# inherited objects, fork or not) sees bit-identical state.
CHILD_SCRIPT = """
import pickle, sys
from repro.search import shm

with open(sys.argv[1], "rb") as fh:
    manifest = pickle.load(fh)
tables, meta = shm.attach_tables(manifest)
payload = {
    name: {
        "rows": list(table.iter_rows()),
        "encodings": {
            repr(key): (
                encoding.codes,
                encoding.values,
                list(encoding.counts()),
            )
            for key, encoding in table._encodings.items()
        },
    }
    for name, table in tables.items()
}
with open(sys.argv[2], "wb") as fh:
    pickle.dump({"meta": meta, "tables": payload}, fh)
"""


# Loads a base and one delta the way a pool worker does, then lists the
# /proc/self/maps lines that still name one of the store's segments.
MAPS_SCRIPT = """
import json, pickle, sys
from repro.search import shm

with open(sys.argv[1], "rb") as fh:
    spec, names = pickle.load(fh)
session = shm._load_base(spec)
for delta in spec.deltas:
    shm._apply_delta(session, delta)
with open("/proc/self/maps") as fh:
    mapped = [line for line in fh if any(name in line for name in names)]
labels = list(session.graph.sample("dims").column("label"))
print(json.dumps([session.version, labels, mapped]))
"""


@st.composite
def column_values(draw, num_rows):
    kind = draw(st.sampled_from(["int", "float", "text"]))
    if kind == "int":
        element = st.integers(-3, 3)
    elif kind == "float":
        element = st.floats(allow_nan=False, width=64)
    else:
        element = st.text(alphabet="abxyz", max_size=3)
    return draw(st.lists(element, min_size=num_rows, max_size=num_rows))


@st.composite
def small_tables(draw):
    num_rows = draw(st.integers(1, 12))
    num_cols = draw(st.integers(1, 3))
    columns = {
        f"c{index}": draw(column_values(num_rows)) for index in range(num_cols)
    }
    rows = list(zip(*columns.values())) if columns else []
    return Table.from_rows("prop", list(columns), rows)


class TestSpawnedProcessProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(table=small_tables())
    def test_round_trips_bit_identically_across_a_process(self, table):
        rebuilt = Table.from_rows(
            table.name, list(table.schema.names), list(table.iter_rows())
        )
        for column in rebuilt.schema.names:
            rebuilt.encoded(column).counts()
        if len(rebuilt.schema.names) > 1:
            rebuilt.encoded_key(list(rebuilt.schema.names))
        store = shm.SharedColumnStore("test-spawn")
        try:
            manifest = store.export_tables(
                {rebuilt.name: rebuilt}, version=0, kind="base", meta={"n": 1}
            )
            with tempfile.TemporaryDirectory() as tmp:
                manifest_path = os.path.join(tmp, "manifest.pkl")
                out_path = os.path.join(tmp, "out.pkl")
                with open(manifest_path, "wb") as fh:
                    pickle.dump(manifest, fh)
                env = dict(os.environ)
                env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
                subprocess.run(
                    [sys.executable, "-c", CHILD_SCRIPT, manifest_path, out_path],
                    env=env,
                    check=True,
                    timeout=120,
                )
                with open(out_path, "rb") as fh:
                    seen = pickle.load(fh)
        finally:
            store.close()
        assert seen["meta"] == {"n": 1}
        child = seen["tables"][rebuilt.name]
        assert child["rows"] == list(rebuilt.iter_rows())
        for key, encoding in rebuilt._encodings.items():
            codes, values, counts = child["encodings"][repr(key)]
            assert codes == encoding.codes
            assert values == encoding.values
            assert counts == list(encoding.counts())


@pytest.fixture
def graph_setup():
    facts = Table.from_rows(
        "facts",
        ["good_key", "bad_key", "measure"],
        [(i % 10, i % 3, float(i % 8) * 10 + i % 3) for i in range(64)],
    )
    dims = Table.from_rows(
        "dims",
        ["good_key", "bad_key", "label"],
        [(i, i % 2, f"lbl{i}") for i in range(8)],
    )
    join_graph = JoinGraph([facts, dims], source_instances=["facts"])
    fds = [FunctionalDependency("good_key", "label")]
    return join_graph, {"facts": facts, "dims": dims}, fds


class TestWorkerSessions:
    def test_cold_load_then_warm_reuse(self, graph_setup):
        join_graph, _, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-session")
        try:
            _, stats = shm.ensure_session(state.spec())
            assert stats == {"cold_load": 1, "resyncs": 0, "deltas_applied": 0}
            session, stats = shm.ensure_session(state.spec())
            assert stats == {"cold_load": 0, "resyncs": 0, "deltas_applied": 0}
            # Zero JI recomputation: the preloaded weights cover every edge.
            assert session.graph.edge_recomputes == 0
            assert sorted(session.graph.instance_tables()) == ["dims", "facts"]
        finally:
            shm.drop_session("test-session")
            state.close()

    def test_delta_applies_in_place_without_resync(self, graph_setup):
        join_graph, tables, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-delta")
        try:
            session, _ = shm.ensure_session(state.spec())
            dims2 = Table.from_rows(
                "dims",
                ["good_key", "bad_key", "label"],
                [(i, i % 2, f"new{i}") for i in range(8)],
            )
            new_graph = JoinGraph([tables["facts"], dims2], source_instances=["facts"])
            state.publish_delta(new_graph, fds, version=1, changed=("dims",))
            assert state.stats()["rebases"] == 0
            session, stats = shm.ensure_session(state.spec())
            assert stats == {"cold_load": 0, "resyncs": 0, "deltas_applied": 1}
            assert session.version == 1
            assert list(session.graph.sample("dims").column("label")) == [
                f"new{i}" for i in range(8)
            ]
        finally:
            shm.drop_session("test-delta")
            state.close()

    def test_delta_keeps_the_memo_entries_it_cannot_change(self, graph_setup):
        join_graph, tables, fds = graph_setup
        facts = tables["facts"]
        extra = Table.from_rows(
            "extra", ["bad_key", "bonus"], [(i % 3, float(i)) for i in range(12)]
        )

        def dims(label):
            return Table.from_rows(
                "dims",
                ["good_key", "bad_key", "label"],
                [(i, i % 2, f"{label}{i}") for i in range(8)],
            )

        def graph(dims_table):
            return JoinGraph([facts, dims_table, extra], source_instances=["facts"])

        state = shm.SharedChainState(graph(tables["dims"]), fds, token="test-memo-prune")
        namespace = (("measure",), ("label",))
        facts_only = TargetGraph(
            nodes=["facts"], edges=[], projections={"facts": {"good_key", "measure"}}
        ).signature()
        facts_extra = TargetGraph(nodes=["facts", "extra"], edges=[{"bad_key"}]).signature()
        with_dims = TargetGraph(nodes=["facts", "dims"], edges=[{"good_key"}]).signature()
        kept_ji = ("extra", "facts", frozenset({"bad_key"}))
        try:
            session, _ = shm.ensure_session(state.spec())
            for signature in (facts_only, facts_extra, with_dims):
                session.evaluation_cache(namespace)[signature] = TargetGraphEvaluation(
                    1.0, 1.0, 1.0, 1.0
                )
            dropped_ji = ("dims", "facts", frozenset({"good_key"}))
            session.ji_cache.update({kept_ji: 0.25, dropped_ji: 0.5})
            # dims changed: only the entries that read it go.
            state.publish_delta(graph(dims("new")), fds, version=1, changed=("dims",))
            session, stats = shm.ensure_session(state.spec())
            assert stats == {"cold_load": 0, "resyncs": 0, "deltas_applied": 1}
            assert set(session.evaluation_cache(namespace)) == {facts_only, facts_extra}
            assert list(session.ji_cache) == [kept_ji]
            # A new FD drops the untouched graph whose join carries it.
            grown = [*fds, FunctionalDependency("good_key", "measure")]
            state.publish_delta(graph(dims("newer")), grown, version=2, changed=("dims",))
            session, _ = shm.ensure_session(state.spec())
            assert set(session.evaluation_cache(namespace)) == {facts_extra}
            assert list(session.ji_cache) == [kept_ji]
        finally:
            shm.drop_session("test-memo-prune")
            state.close()

    def test_version_jump_falls_back_to_rebase_and_resync(self, graph_setup):
        join_graph, tables, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-gap")
        try:
            shm.ensure_session(state.spec())
            new_graph = JoinGraph(
                [tables["facts"], tables["dims"]], source_instances=["facts"]
            )
            # version jumps 0 -> 5: the state must rebase, and the worker
            # session must hard-resync off the changed base fingerprint.
            state.publish_delta(new_graph, fds, version=5, changed=("dims",))
            assert state.stats()["rebases"] == 1
            session, stats = shm.ensure_session(state.spec())
            assert stats["resyncs"] == 1
            assert session.version == 5
        finally:
            shm.drop_session("test-gap")
            state.close()

    def test_pinned_call_at_the_session_version_skips_the_spec(self, graph_setup):
        join_graph, _, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-pinned")
        try:
            pinned = state.pinned()
            session, stats = shm.ensure_pinned_session(pinned)
            assert stats == {
                "cold_load": 1, "resyncs": 0, "deltas_applied": 0, "spec_loads": 1
            }
            # Unreadable bytes prove the fast path never unpickles them.
            again, stats = shm.ensure_pinned_session(replace(pinned, blob=b"not a pickle"))
            assert again is session
            assert stats == {
                "cold_load": 0, "resyncs": 0, "deltas_applied": 0, "spec_loads": 0
            }
        finally:
            shm.drop_session("test-pinned")
            state.close()

    def test_pinned_call_one_version_ahead_applies_one_delta(self, graph_setup):
        join_graph, tables, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-pinned-delta")
        try:
            shm.ensure_pinned_session(state.pinned())
            dims2 = Table.from_rows(
                "dims",
                ["good_key", "bad_key", "label"],
                [(i, i % 2, f"new{i}") for i in range(8)],
            )
            new_graph = JoinGraph([tables["facts"], dims2], source_instances=["facts"])
            state.publish_delta(new_graph, fds, version=1, changed=("dims",))
            session, stats = shm.ensure_pinned_session(state.pinned())
            assert stats == {
                "cold_load": 0, "resyncs": 0, "deltas_applied": 1, "spec_loads": 1
            }
            assert session.version == 1
        finally:
            shm.drop_session("test-pinned-delta")
            state.close()

    def test_pinned_call_on_a_new_base_resyncs(self, graph_setup):
        join_graph, tables, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-pinned-rebase")
        try:
            shm.ensure_pinned_session(state.pinned())
            new_graph = JoinGraph(
                [tables["facts"], tables["dims"]], source_instances=["facts"]
            )
            state.rebase(new_graph, fds, version=1)
            session, stats = shm.ensure_pinned_session(state.pinned())
            assert stats == {
                "cold_load": 0, "resyncs": 1, "deltas_applied": 0, "spec_loads": 1
            }
            assert session.version == 1
            assert session.base_fingerprint == state.spec().base.fingerprint
        finally:
            shm.drop_session("test-pinned-rebase")
            state.close()

    def test_state_pickles_the_spec_once_per_published_version(
        self, graph_setup, monkeypatch
    ):
        join_graph, tables, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-pin-once")
        dumps = pickle.dumps
        pickled: list[int] = []

        def counting_dumps(value, *args, **kwargs):
            if isinstance(value, shm.WorkerSpec):
                pickled.append(value.version)
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting_dumps)
        try:
            first = state.pinned()
            assert state.pinned() is first
            assert pickle.loads(first.blob) == state.spec()
            assert (first.version, first.base_fingerprint) == (
                0, state.spec().base.fingerprint
            )
            state.publish_delta(join_graph, fds, version=1, changed=("dims",))
            second = state.pinned()
            assert state.pinned() is second
            assert second.version == 1
            assert pickle.loads(second.blob) == state.spec()
            assert pickled == [0, 1]
        finally:
            state.close()

    def test_worker_spec_loads_are_summed(self, graph_setup):
        join_graph, _, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-spec-loads")
        try:
            state.note_worker_stats({"spec_loads": 1, "deltas_applied": 1})
            state.note_worker_stats({"spec_loads": 0})
            state.note_worker_stats({"spec_loads": 1})
            assert state.stats()["worker_spec_loads"] == 2
        finally:
            state.close()

    def test_worker_maps_no_segment_after_load_and_delta(self, graph_setup, tmp_path):
        # A fresh interpreter (nothing inherited from this process, which
        # created the segments and so maps them) loads the base and applies
        # a delta: it has copied what it needs, so none stays mapped.
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps")
        join_graph, tables, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-unmap")
        try:
            dims2 = Table.from_rows(
                "dims",
                ["good_key", "bad_key", "label"],
                [(i, i % 2, f"new{i}") for i in range(8)],
            )
            new_graph = JoinGraph([tables["facts"], dims2], source_instances=["facts"])
            state.publish_delta(new_graph, fds, version=1, changed=("dims",))
            spec_path = tmp_path / "spec.pkl"
            spec_path.write_bytes(pickle.dumps((state.spec(), state.segment_names())))
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
            child = subprocess.run(
                [sys.executable, "-c", MAPS_SCRIPT, str(spec_path)],
                env=env,
                check=True,
                timeout=120,
                capture_output=True,
                text=True,
            )
        finally:
            state.close()
        version, labels, mapped = json.loads(child.stdout)
        assert version == 1
        assert labels == [f"new{i}" for i in range(8)]
        assert mapped == []

    def test_close_unlinks_every_segment(self, graph_setup):
        join_graph, _, fds = graph_setup
        state = shm.SharedChainState(join_graph, fds, token="test-unlink")
        names = state.segment_names()
        assert names and all(os.path.exists(f"/dev/shm/{n}") for n in names)
        state.close()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)
        state.close()  # idempotent


class TestSharedSchedulerParity:
    """ChainScheduler over a shared-store pool is bit-identical to serial,
    and a warm pool survives a published delta with zero resyncs."""

    def run_scheduler(self, join_graph, tables, fds, *, pool=None, pool_state=None,
                      executor="serial"):
        igraph = minimal_weight_igraph(join_graph, ["facts", "dims"], rng=0)
        initial = build_initial_target_graph(
            join_graph, igraph, ["measure"], ["label"]
        )
        scheduler = ChainScheduler(
            chains=3, executor=executor, pool=pool, pool_state=pool_state
        )
        return scheduler.run(
            join_graph,
            initial,
            tables,
            ["measure"],
            ["label"],
            fds,
            budget=1e9,
            config=MCMCConfig(iterations=40, seed=0),
        )

    def test_shared_pool_matches_serial_and_survives_deltas(self, graph_setup):
        join_graph, tables, fds = graph_setup
        reference = self.run_scheduler(join_graph, tables, fds)
        pool, state = shared_chain_pool(
            join_graph, fds, token="test-shared-parity", max_workers=2
        )
        try:
            assert state.covers(join_graph, tables, fds)
            warm = self.run_scheduler(
                join_graph, tables, fds, pool=pool, pool_state=state,
                executor="process",
            )
            assert warm.chain_correlations == reference.chain_correlations
            # Ship a delta: the same pool keeps serving, zero full resyncs.
            dims2 = Table.from_rows(
                "dims",
                ["good_key", "bad_key", "label"],
                [(i, i % 2, f"lbl{i}") for i in range(8)],
            )
            new_tables = {"facts": tables["facts"], "dims": dims2}
            new_graph = JoinGraph(
                [tables["facts"], dims2], source_instances=["facts"]
            )
            state.publish_delta(new_graph, fds, version=1, changed=("dims",))
            assert state.covers(new_graph, new_tables, fds)
            after = self.run_scheduler(
                new_graph, new_tables, fds, pool=pool, pool_state=state,
                executor="process",
            )
            serial_after = self.run_scheduler(new_graph, new_tables, fds)
            assert after.chain_correlations == serial_after.chain_correlations
            stats = state.stats()
            assert stats["rebases"] == 0
            assert stats["worker_resyncs"] == 0
            assert stats["worker_deltas_applied"] >= 1
        finally:
            pool.shutdown()
            state.close()
        assert shm.live_segments() == []


class CountingPool:
    """A process pool that records the payload count of every ``map`` call."""

    def __init__(self, pool) -> None:
        self.pool = pool
        self._max_workers = pool._max_workers
        self.maps: list[int] = []

    def map(self, fn, batches):
        batches = list(batches)
        self.maps.append(sum(len(payloads) for _, payloads in batches))
        return self.pool.map(fn, batches)


class TestOneDispatchPerRequest:
    """``heuristic_acquisition`` sends every start's chains in one ``map``.
    Each start's result is the one a walk of that start alone returns, and
    the winner is the serial executor's, bit for bit."""

    @pytest.mark.parametrize("eta", [None, 8], ids=["default-eta", "fired-eta"])
    def test_shared_pool_maps_once_and_matches_serial(self, small_tpch, eta, monkeypatch):
        pricing = EntropyPricingModel()
        market = Marketplace(default_pricing=pricing)
        for name in small_tpch.tables:
            market.host(
                MarketplaceDataset(table=small_tpch.dirty_or_clean(name), pricing=pricing)
            )
        dance = build_dance(market, config=DanceConfig(sampling_rate=0.5))
        join_graph, fds = dance.join_graph, dance.fds
        dispatches = []
        run_starts = ChainScheduler.run_starts

        def recording_run_starts(scheduler, graph, starts, *args, **kwargs):
            results = run_starts(scheduler, graph, starts, *args, **kwargs)
            if scheduler.executor == "process":
                dispatches.append((starts, results))
            return results

        monkeypatch.setattr(ChainScheduler, "run_starts", recording_run_starts)

        def hook():
            return None if eta is None else ResamplingPolicy(threshold=eta, rate=0.5, seed=0)

        def config(executor):
            return MCMCConfig(iterations=30, seed=0, chains=2, executor=executor)

        pool, state = shared_chain_pool(
            join_graph, fds, token=f"test-one-dispatch-{eta}", max_workers=2
        )
        counting = CountingPool(pool)
        try:
            for query in queries_for(small_tpch).values():
                request = (join_graph, query.source_attributes, query.target_attributes, fds)
                serial = heuristic_acquisition(
                    *request, budget=1000.0, mcmc_config=config("serial"), rng=0,
                    intermediate_hook=hook(),
                )
                shared = heuristic_acquisition(
                    *request, budget=1000.0, mcmc_config=config("process"), rng=0,
                    intermediate_hook=hook(), pool=counting, pool_state=state,
                )
                ((starts, results),) = dispatches
                dispatches.clear()
                assert len(starts) >= 2
                assert counting.maps == [2 * len(starts)]
                counting.maps.clear()
                for (initial, tables), result in zip(starts, results):
                    alone = mcmc_search(
                        join_graph, initial, tables, *request[1:], budget=1000.0,
                        config=config("serial"), intermediate_hook=hook(),
                    )
                    assert result.chain_correlations == alone.chain_correlations
                assert shared.igraph_index == serial.igraph_index
                assert shared.best_graph.signature() == serial.best_graph.signature()
                assert shared.best_evaluation == serial.best_evaluation
                assert shared.mcmc.chain_correlations == serial.mcmc.chain_correlations
        finally:
            pool.shutdown()
            state.close()
        assert shm.live_segments() == []
