"""Tests for the parallel multi-chain MCMC search (``repro.search.chains``).

The contract under test: for a fixed ``(seed, chains)`` the multi-chain
search returns bit-identical best graphs and correlations under both
executors (serial / process), ``chains=1`` reproduces the single-chain walk
exactly, and the shared caches only change who pays for each evaluation —
never the outcome.
"""

from __future__ import annotations

import pytest

from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.exceptions import InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import minimal_weight_igraph
from repro.marketplace.shopper import AcquisitionRequest
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy
from repro.search import shm
from repro.search.acquisition import heuristic_acquisition
from repro.search.candidates import build_initial_target_graph
from repro.search.chains import (
    ChainScheduler,
    MultiChainResult,
    chain_seed,
    shared_chain_pool,
)
from repro.search.mcmc import MCMCConfig, mcmc_search

EXECUTORS = ("serial", "process")


@pytest.fixture
def setup():
    """The test_mcmc fixture graph: two join-attribute choices between two tables."""
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
    igraph = minimal_weight_igraph(join_graph, ["facts", "dims"], landmark_seed=0)
    initial = build_initial_target_graph(join_graph, igraph, ["measure"], ["label"])
    tables = {"facts": facts, "dims": dims}
    fds = [FunctionalDependency("good_key", "label")]
    return join_graph, initial, tables, fds


def run_multi(setup, *, chains, executor, iterations=50, seed=0, **kwargs):
    join_graph, initial, tables, fds = setup
    return mcmc_search(
        join_graph,
        initial,
        tables,
        ["measure"],
        ["label"],
        fds,
        budget=kwargs.pop("budget", 1e9),
        config=MCMCConfig(
            iterations=iterations,
            seed=seed,
            chains=chains,
            executor=executor,
            **kwargs,
        ),
    )


class TestChainSeed:
    def test_chain_zero_keeps_base_seed(self):
        assert chain_seed(17, 0) == 17

    def test_derived_seeds_are_deterministic_and_distinct(self):
        seeds = [chain_seed(0, index) for index in range(16)]
        assert seeds == [chain_seed(0, index) for index in range(16)]
        assert len(set(seeds)) == 16

    def test_different_base_seeds_decorrelate(self):
        assert chain_seed(0, 1) != chain_seed(1, 1)

    def test_negative_index_rejected(self):
        with pytest.raises(SearchError):
            chain_seed(0, -1)


class TestConfigValidation:
    def test_invalid_chains_rejected(self):
        with pytest.raises(SearchError):
            MCMCConfig(chains=0)

    def test_invalid_executor_rejected(self):
        with pytest.raises(SearchError):
            MCMCConfig(executor="gpu")

    def test_scheduler_validates_too(self):
        with pytest.raises(SearchError):
            ChainScheduler(chains=0)
        with pytest.raises(SearchError):
            ChainScheduler(chains=2, executor="gpu")


class TestSingleChainParity:
    def test_chains_one_is_the_plain_single_chain_walk(self, setup):
        """``chains=1`` takes the original code path and returns MCMCResult."""
        single = run_multi(setup, chains=1, executor="serial", record_trace=True)
        assert not isinstance(single, MultiChainResult)

    def test_scheduler_chain_zero_reproduces_single_chain(self, setup):
        join_graph, initial, tables, fds = setup
        config = MCMCConfig(iterations=50, seed=0, record_trace=True)
        single = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=config,
        )
        multi = ChainScheduler(chains=1).run(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=config,
        )
        assert isinstance(multi, MultiChainResult)
        assert multi.n_chains == 1
        chain = multi.chain_results[0]
        assert chain.trace == single.trace
        assert chain.accepted_steps == single.accepted_steps
        assert chain.feasible_steps == single.feasible_steps
        assert multi.best_evaluation.correlation == single.best_evaluation.correlation
        assert multi.best_graph.nodes == single.best_graph.nodes
        assert multi.best_graph.edges == single.best_graph.edges

    def test_mcmc_result_exposes_the_chain_surface(self, setup):
        """Single-chain results duck-type MultiChainResult's diagnostics."""
        single = run_multi(setup, chains=1, executor="serial")
        assert single.n_chains == 1
        assert single.executor == "serial"
        assert single.best_chain_index == 0
        assert single.chain_correlations == [single.best_evaluation.correlation]

    def test_multi_chain_best_at_least_single_chain(self, setup):
        single = run_multi(setup, chains=1, executor="serial")
        multi = run_multi(setup, chains=4, executor="serial")
        assert multi.best_evaluation.correlation >= single.best_evaluation.correlation


class TestExecutorBitIdentity:
    def test_executors_agree_on_the_fixture_graph(self, setup):
        results = {
            executor: run_multi(setup, chains=4, executor=executor, record_trace=True)
            for executor in EXECUTORS
        }
        reference = results["serial"]
        for executor, result in results.items():
            assert result.executor == executor
            assert result.best_chain_index == reference.best_chain_index
            assert (
                result.best_evaluation.correlation
                == reference.best_evaluation.correlation
            )
            assert result.best_graph.nodes == reference.best_graph.nodes
            assert result.best_graph.edges == reference.best_graph.edges
            assert result.chain_correlations == reference.chain_correlations
            # The walks themselves are bit-identical, not just the winner.
            assert result.traces == reference.traces
            assert [c.accepted_steps for c in result.chain_results] == [
                c.accepted_steps for c in reference.chain_results
            ]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_executors_agree_on_tpch(self, tpch_marketplace, executor):
        """Serial / process bit-identity on the Fig. 4 TPC-H scenario."""
        config = DanceConfig(
            sampling_rate=0.5,
            mcmc=MCMCConfig(iterations=30, seed=0, chains=3, executor=executor),
        )
        dance = DANCE(tpch_marketplace, config)
        dance.build_offline()
        request = AcquisitionRequest(
            source_attributes=["totalprice"],
            target_attributes=["nname"],
            budget=1e6,
        )
        result = dance.acquire(request)
        # Reference run: serial executor, same seed/chains.
        reference_config = DanceConfig(
            sampling_rate=0.5,
            mcmc=MCMCConfig(iterations=30, seed=0, chains=3, executor="serial"),
        )
        reference_dance = DANCE(tpch_marketplace, reference_config)
        reference_dance.build_offline()
        reference = reference_dance.acquire(request)
        assert result.estimated_correlation == reference.estimated_correlation
        assert result.target_graph.nodes == reference.target_graph.nodes
        assert result.target_graph.edges == reference.target_graph.edges
        assert result.mcmc_chain_correlations == reference.mcmc_chain_correlations
        assert result.mcmc_chains == 3
        assert result.mcmc_executor == executor

    def test_executors_agree_when_the_hook_fires(self, setup):
        """Fired evaluations replay per-walk join lineages under every executor."""
        join_graph, initial, tables, fds = setup
        config = MCMCConfig(iterations=40, seed=0, record_trace=True)
        policy = ResamplingPolicy(threshold=5, rate=0.5, seed=3)
        policy.draw(100)  # chains start from the seeded state, not from this one
        state = policy._rng.getstate()

        def run(executor):
            return ChainScheduler(chains=3, executor=executor).run(
                join_graph,
                initial,
                tables,
                ["measure"],
                ["label"],
                fds,
                budget=1e9,
                config=config,
                intermediate_hook=policy,
            )

        results = {executor: run(executor) for executor in EXECUTORS}
        reference = results["serial"]
        for result in results.values():
            assert result.traces == reference.traces
            assert result.chain_correlations == reference.chain_correlations
        assert policy._rng.getstate() == state
        single = mcmc_search(
            join_graph,
            initial,
            tables,
            ["measure"],
            ["label"],
            fds,
            budget=1e9,
            config=config,
            intermediate_hook=ResamplingPolicy(threshold=5, rate=0.5, seed=3),
        )
        assert single.evaluation_cache_hits == 0  # every evaluation fired
        assert reference.chain_results[0].trace == single.trace

    def test_repeated_runs_are_deterministic(self, setup):
        first = run_multi(setup, chains=3, executor="process", seed=9)
        second = run_multi(setup, chains=3, executor="process", seed=9)
        assert first.best_evaluation.correlation == second.best_evaluation.correlation
        assert first.chain_correlations == second.chain_correlations
        assert first.best_chain_index == second.best_chain_index


class TestSharedCacheAccounting:
    def test_serial_chains_share_the_evaluation_cache(self, setup):
        """Later chains are served from earlier chains' work."""
        single = run_multi(setup, chains=1, executor="serial")
        multi = run_multi(setup, chains=4, executor="serial")
        # Chains 1..3 revisit candidates chain 0 already evaluated, so the
        # total distinct evaluations stay what one chain needed.
        assert multi.evaluation_cache_misses == single.evaluation_cache_misses
        assert multi.evaluation_cache_hits > single.evaluation_cache_hits
        assert multi.evaluation_cache_size == single.evaluation_cache_misses
        # Serial chain 0 behaves exactly like the single-chain walk ...
        chain0 = multi.chain_results[0]
        assert chain0.evaluation_cache_misses == single.evaluation_cache_misses
        # ... and every later chain pays nothing.
        for chain in multi.chain_results[1:]:
            assert chain.evaluation_cache_misses == 0

    def test_process_chains_pay_per_chain_but_merge_caches(self, setup):
        multi = run_multi(setup, chains=4, executor="process")
        serial = run_multi(setup, chains=4, executor="serial")
        # Private caches: every chain re-pays its own misses.
        assert multi.evaluation_cache_misses > serial.evaluation_cache_misses
        # The merged cache still deduplicates across chains.
        assert multi.evaluation_cache_size == serial.evaluation_cache_size

    def test_caller_supplied_caches_are_used_and_survive(self, setup):
        """mcmc_search(chains>1) must honour external caches, per its docs."""
        join_graph, initial, tables, fds = setup
        evaluation_cache: dict = {}
        first = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9,
            config=MCMCConfig(iterations=50, seed=0, chains=2, executor="serial"),
            evaluation_cache=evaluation_cache,
        )
        assert len(evaluation_cache) == first.evaluation_cache_misses > 0
        # A second search over the pre-warmed caches pays zero misses ...
        second = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9,
            config=MCMCConfig(iterations=50, seed=0, chains=2, executor="serial"),
            evaluation_cache=evaluation_cache,
        )
        assert second.evaluation_cache_misses == 0
        # ... and still returns the identical result.
        assert (
            second.best_evaluation.correlation == first.best_evaluation.correlation
        )

    def test_process_executor_merges_into_caller_caches(self, setup):
        join_graph, initial, tables, fds = setup
        evaluation_cache: dict = {}
        mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9,
            config=MCMCConfig(iterations=50, seed=0, chains=2, executor="process"),
            evaluation_cache=evaluation_cache,
        )
        assert len(evaluation_cache) > 0

    def test_aggregate_counters_are_sums(self, setup):
        multi = run_multi(setup, chains=3, executor="serial")
        assert multi.iterations == sum(c.iterations for c in multi.chain_results)
        assert multi.accepted_steps == sum(
            c.accepted_steps for c in multi.chain_results
        )
        assert multi.feasible_steps == sum(
            c.feasible_steps for c in multi.chain_results
        )
        assert multi.evaluation_cache_hit_rate == pytest.approx(
            multi.evaluation_cache_hits
            / (multi.evaluation_cache_hits + multi.evaluation_cache_misses)
        )


class TestTraceGating:
    def test_trace_off_by_default(self, setup):
        single = run_multi(setup, chains=1, executor="serial")
        assert single.trace == []
        multi = run_multi(setup, chains=3, executor="serial")
        assert multi.traces == [[], [], []]
        assert multi.trace == []

    def test_record_trace_opts_in_per_chain(self, setup):
        multi = run_multi(
            setup, chains=3, executor="serial", iterations=40, record_trace=True
        )
        assert all(len(trace) == 40 for trace in multi.traces)
        assert multi.trace == multi.chain_results[multi.best_chain_index].trace

    def test_gating_does_not_change_the_walk(self, setup):
        with_trace = run_multi(setup, chains=2, executor="serial", record_trace=True)
        without = run_multi(setup, chains=2, executor="serial", record_trace=False)
        assert (
            with_trace.best_evaluation.correlation
            == without.best_evaluation.correlation
        )
        assert with_trace.chain_correlations == without.chain_correlations


class TestInfeasibleAggregation:
    def test_no_feasible_chain_reports_infeasible(self, setup):
        multi = run_multi(setup, chains=3, executor="serial", budget=0.0, iterations=10)
        assert isinstance(multi, MultiChainResult)
        assert not multi.feasible
        assert multi.best_chain_index is None
        assert multi.best_graph is None
        assert multi.chain_correlations == [None, None, None]
        with pytest.raises(InfeasibleAcquisitionError):
            multi.require_feasible()


class TestHeuristicIntegration:
    def test_heuristic_acquisition_surfaces_multi_chain(self, setup):
        join_graph, _, _, fds = setup
        result = heuristic_acquisition(
            join_graph,
            ["measure"],
            ["label"],
            fds,
            budget=1e9,
            mcmc_config=MCMCConfig(iterations=40, seed=0, chains=3, executor="process"),
            landmark_seed=0,
        )
        assert result.feasible
        assert isinstance(result.mcmc, MultiChainResult)
        assert result.mcmc.n_chains == 3
        single = heuristic_acquisition(
            join_graph,
            ["measure"],
            ["label"],
            fds,
            budget=1e9,
            mcmc_config=MCMCConfig(iterations=40, seed=0),
            landmark_seed=0,
        )
        assert (
            result.best_evaluation.correlation >= single.best_evaluation.correlation
        )


class TestPersistentPools:
    """A :func:`shared_chain_pool`: reused across runs, never shut down by the
    scheduler, bit-identical to one-shot chains.  A call its state does not
    cover goes out as full payloads (:func:`repro.search.chains._run_chain`),
    and full-payload workers report no session stats."""

    def run_with_pool(self, setup, *, pool, pool_state, seed=0):
        join_graph, initial, tables, fds = setup
        scheduler = ChainScheduler(
            chains=3, executor="process", pool=pool, pool_state=pool_state
        )
        return scheduler.run(
            join_graph,
            initial,
            tables,
            ["measure"],
            ["label"],
            fds,
            budget=1e9,
            config=MCMCConfig(iterations=40, seed=seed),
        )

    def test_external_process_pool_with_light_payloads(self, setup):
        join_graph, _, tables, fds = setup
        reference = run_multi(setup, chains=3, executor="serial", iterations=40)
        pool, state = shared_chain_pool(join_graph, fds, token="test-pool", max_workers=2)
        try:
            assert state.covers(join_graph, tables, fds)
            first = self.run_with_pool(setup, pool=pool, pool_state=state)
            second = self.run_with_pool(setup, pool=pool, pool_state=state)
        finally:
            pool.shutdown()
            state.close()
        assert first.chain_correlations == reference.chain_correlations
        assert second.chain_correlations == reference.chain_correlations
        assert first.worker_stats and second.worker_stats
        assert shm.live_segments() == []

    def test_stale_pool_state_falls_back_to_full_payloads(self, setup):
        join_graph, _, tables, fds = setup
        reference = run_multi(setup, chains=3, executor="serial", iterations=40)
        other_graph = JoinGraph([tables["facts"], tables["dims"]], source_instances=["facts"])
        pool, state = shared_chain_pool(other_graph, fds, token="stale-pool", max_workers=2)
        try:
            # The state covers a different graph object: full payloads go
            # out, the published worker state is ignored, results stay
            # identical.
            assert not state.covers(join_graph, tables, fds)
            result = self.run_with_pool(setup, pool=pool, pool_state=state)
        finally:
            pool.shutdown()
            state.close()
        assert result.chain_correlations == reference.chain_correlations
        assert result.worker_stats == {}

    def test_in_place_graph_mutation_invalidates_coverage(self, setup):
        """Identity alone cannot detect add_instance; the revision counter must."""
        join_graph, _, tables, fds = setup
        pool, state = shared_chain_pool(join_graph, fds, token="mutation-pool", max_workers=2)
        try:
            assert state.covers(join_graph, tables, fds)
            extra = Table.from_rows(
                "extra", ["bad_key", "bonus"], [(i % 3, float(i)) for i in range(6)]
            )
            join_graph.add_instance(extra)
            # Same object, but mutated: the workers hold the pre-mutation
            # columns, so name-based payloads must be refused...
            assert not state.covers(join_graph, tables, fds)
            # ...and the run still works (and stays correct) via full payloads.
            result = self.run_with_pool(setup, pool=pool, pool_state=state)
        finally:
            pool.shutdown()
            state.close()
        reference = run_multi(setup, chains=3, executor="serial", iterations=40)
        assert result.chain_correlations == reference.chain_correlations
        assert result.worker_stats == {}

    def test_state_does_not_cover_foreign_tables(self, setup):
        join_graph, _, tables, fds = setup
        state = shm.SharedChainState(join_graph, fds, token="cover-pool")
        try:
            foreign = {
                name: Table.from_rows(name, table.schema, list(table.iter_rows()))
                for name, table in tables.items()
            }
            assert state.covers(join_graph, tables, fds)
            assert not state.covers(join_graph, foreign, fds)
            assert not state.covers(join_graph, tables, [])
        finally:
            state.close()
        # A closed state covers nothing.
        assert not state.covers(join_graph, tables, fds)
