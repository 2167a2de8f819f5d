"""Tests for the MCMC search (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import minimal_weight_igraph
from repro.graph.target import TargetGraph
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy
from repro.search.candidates import build_initial_target_graph
from repro.search.mcmc import MCMCConfig, mcmc_search


@pytest.fixture
def setup():
    """A small graph with two alternative join attributes between two instances."""
    # good_key ranges over 0..9 on the fact side but the dimension only holds
    # 0..7, so the edge's join informativeness is strictly positive (some fact
    # rows have no dimension partner) and the α constraint can actually bite.
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


class TestMCMCSearch:
    def test_finds_a_feasible_graph(self, setup):
        join_graph, initial, tables, fds = setup
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=50, seed=0),
        )
        assert result.feasible
        graph, evaluation = result.require_feasible()
        assert evaluation.correlation > 0.0
        assert result.iterations == 50

    def test_best_correlation_never_decreases_along_trace(self, setup):
        join_graph, initial, tables, fds = setup
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=80, seed=1, record_trace=True),
        )
        assert result.best_evaluation.correlation >= max(result.trace) - 1e-9

    def test_respects_budget_constraint(self, setup):
        join_graph, initial, tables, fds = setup
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=0.0, config=MCMCConfig(iterations=30, seed=0),
        )
        assert not result.feasible
        with pytest.raises(InfeasibleAcquisitionError):
            result.require_feasible()

    def test_respects_quality_constraint(self, setup):
        join_graph, initial, tables, fds = setup
        impossible = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, min_quality=1.01, config=MCMCConfig(iterations=10, seed=0),
        )
        assert not impossible.feasible

    def test_respects_weight_constraint(self, setup):
        join_graph, initial, tables, fds = setup
        initial_eval = initial.evaluate(
            tables, ["measure"], ["label"], fds, join_graph.pricing
        )
        # the initial graph uses the minimum-weight join attributes, so any
        # threshold strictly below its weight rules out every candidate
        threshold = initial_eval.weight / 2 if initial_eval.weight > 0 else -0.1
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, max_weight=threshold, config=MCMCConfig(iterations=10, seed=0),
        )
        assert not result.feasible

    def test_deterministic_for_fixed_seed(self, setup):
        join_graph, initial, tables, fds = setup
        config = MCMCConfig(iterations=40, seed=3, record_trace=True)
        first = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds, budget=1e9, config=config
        )
        second = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds, budget=1e9, config=config
        )
        assert first.best_evaluation.correlation == second.best_evaluation.correlation
        assert first.trace == second.trace

    def test_projection_flip_proposals(self, setup):
        join_graph, initial, tables, fds = setup
        config = MCMCConfig(iterations=60, seed=2, projection_flip_probability=0.5)
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds, budget=1e9, config=config
        )
        assert result.feasible

    def test_zero_iterations_keeps_initial(self, setup):
        join_graph, initial, tables, fds = setup
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=0, seed=0),
        )
        assert result.feasible
        assert result.best_graph.nodes == initial.nodes

    def test_evaluation_cache_reports_hit_rate(self, setup):
        """Revisited candidates are served from the memo table and counted."""
        join_graph, initial, tables, fds = setup
        # A walk that records its trace runs every step.
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=100, seed=0, record_trace=True),
        )
        # Only three join-attribute choices exist, so a 100-step walk must
        # revisit previously-evaluated candidates many times.
        assert result.evaluation_cache_hits > 0
        assert result.evaluation_cache_misses >= 1
        assert 0.0 < result.evaluation_cache_hit_rate < 1.0
        assert result.evaluation_cache_hit_rate == pytest.approx(
            result.evaluation_cache_hits
            / (result.evaluation_cache_hits + result.evaluation_cache_misses)
        )

    def test_a_fired_evaluation_is_memoised(self, setup):
        """A fired evaluation is one draw, fixed by the graph: the walk
        memoises it like any other, and each memoised value is what the
        graph evaluates to cold under the same policy."""
        join_graph, initial, tables, fds = setup
        policy = ResamplingPolicy(threshold=0, rate=0.9, seed=0)
        cache: dict = {}
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=40, seed=0, record_trace=True),
            intermediate_hook=policy, evaluation_cache=cache,
        )
        assert result.evaluation_cache_hits > 0
        assert result.evaluation_cache_misses == len(cache) == 3
        graph, evaluation = result.best_graph, result.best_evaluation
        arguments = (tables, ["measure"], ["label"], fds, join_graph.pricing)
        cold = graph.evaluate(
            *arguments, intermediate_hook=ResamplingPolicy(threshold=0, rate=0.9, seed=0)
        )
        assert cold == evaluation
        assert evaluation.join_rows < graph.evaluate(*arguments).join_rows

    def test_noop_hook_keeps_memoisation(self, setup):
        """A hook that never alters the intermediate keeps full caching."""
        join_graph, initial, tables, fds = setup
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=100, seed=0, record_trace=True),
            intermediate_hook=ResamplingPolicy(threshold=10_000),
        )
        assert result.evaluation_cache_hits > 0

    @pytest.mark.parametrize("hook", [None, ResamplingPolicy(threshold=0, rate=0.9)])
    def test_a_walk_that_has_seen_its_whole_space_stops(self, setup, hook):
        """The edge takes one of three join attribute sets.  Without a trace the
        walk stops within a few evaluations of having seen all three, whether
        or not the hook fires on them, and returns the best graph and
        evaluation of the walk that runs every step."""
        join_graph, initial, tables, fds = setup
        full, stopped = (
            mcmc_search(
                join_graph, initial, tables, ["measure"], ["label"], fds,
                budget=1e9, intermediate_hook=hook,
                config=MCMCConfig(iterations=100, seed=0, record_trace=record_trace),
            )
            for record_trace in (True, False)
        )
        assert stopped.evaluation_cache_misses == full.evaluation_cache_misses == 3
        assert stopped.evaluation_cache_hits + stopped.evaluation_cache_misses <= 6
        assert full.evaluation_cache_hits + full.evaluation_cache_misses == 101
        assert stopped.iterations == full.iterations == 100
        assert stopped.best_graph.signature() == full.best_graph.signature()
        assert stopped.best_evaluation == full.best_evaluation
        assert stopped.trace == []

    def test_a_walk_stops_only_once_no_graph_it_has_seen_beats_its_best(self):
        """The start joins on ``(k1, k2)``, whose JI weight is over α = 0: it is
        infeasible and has the highest CORR, 1.0.  At seed 5 the walk rejects
        proposals from it until it accepts ``k2`` (CORR 0.40), and has then
        seen all three graphs.  ``k1`` (CORR 0.49) still beats its best, so it
        walks on until it accepts ``k1``, as the walk that runs every step."""
        facts = Table.from_rows(
            "facts",
            ["k1", "k2", "m"],
            [(0, 3, 5.0), (1, 0, 3.0), (3, 2, 5.0), (2, 3, 5.0),
             (2, 1, 4.0), (0, 3, 5.0), (0, 2, 5.0), (0, 2, 1.0)],
        )
        dims = Table.from_rows(
            "dims",
            ["k1", "k2", "label"],
            [(1, 3, "c"), (2, 2, "b"), (2, 3, "d"), (0, 0, "b"), (2, 1, "b")],
        )
        join_graph = JoinGraph([facts, dims], source_instances=["facts"])
        start = TargetGraph(
            nodes=["facts", "dims"],
            edges=[frozenset({"k1", "k2"})],
            projections={"facts": {"k1", "k2", "m"}, "dims": {"k1", "k2", "label"}},
            source_instances=frozenset({"facts"}),
        )
        tables = {"facts": facts, "dims": dims}
        fds = [FunctionalDependency("k1", "label")]
        full, stopped = (
            mcmc_search(
                join_graph, start, tables, ["m"], ["label"], fds,
                budget=1e9, max_weight=0.0,
                config=MCMCConfig(iterations=60, seed=5, record_trace=record_trace),
            )
            for record_trace in (True, False)
        )
        # The walk that runs every step accepts k2, then k1.
        assert full.trace[5] == 1.0
        assert full.trace[6] < full.trace[7] == full.best_evaluation.correlation
        assert stopped.best_graph.edges == full.best_graph.edges == [frozenset({"k1"})]
        assert stopped.best_evaluation == full.best_evaluation
        assert stopped.evaluation_cache_hits < full.evaluation_cache_hits

    def test_a_walk_over_a_requested_join_attribute_runs_every_step(self, setup):
        """Requesting ``bad_key``, which the edge may join on, leaves the count
        unknown: a swap keeps a requested attribute in a projection, so the
        graph is not fixed by its edges alone."""
        join_graph, _, tables, fds = setup
        igraph = minimal_weight_igraph(join_graph, ["facts", "dims"], landmark_seed=0)
        initial = build_initial_target_graph(join_graph, igraph, ["measure"], ["bad_key"])
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["bad_key"], fds,
            budget=1e9, config=MCMCConfig(iterations=100, seed=0),
        )
        assert result.evaluation_cache_hits + result.evaluation_cache_misses == 101

    def test_a_walk_over_a_space_larger_than_its_steps_runs_every_step(self, setup):
        """One step cannot see all three graphs, so the walk records nothing."""
        join_graph, initial, tables, fds = setup
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=1, seed=0),
        )
        assert result.evaluation_cache_hits + result.evaluation_cache_misses == 2

    def test_cached_walk_matches_uncached_evaluations(self, setup):
        """Memoised evaluations must be value-identical to fresh ones."""
        join_graph, initial, tables, fds = setup
        result = mcmc_search(
            join_graph, initial, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=60, seed=5),
        )
        best_graph, best_eval = result.require_feasible()
        fresh = best_graph.evaluate(
            tables, ["measure"], ["label"], fds, join_graph.pricing
        )
        assert best_eval.correlation == pytest.approx(fresh.correlation)
        assert best_eval.quality == pytest.approx(fresh.quality)
        assert best_eval.weight == pytest.approx(fresh.weight)
        assert best_eval.price == pytest.approx(fresh.price)

    def test_prefers_informative_join_attribute(self, setup):
        """With enough iterations the walk should end on the informative key.

        Joining on ``bad_key`` (2 values) collapses the dimension labels, giving
        much lower correlation than joining on ``good_key`` (8 values).
        """
        join_graph, initial, tables, fds = setup
        bad_start = initial.replace_edge(0, {"bad_key"})
        result = mcmc_search(
            join_graph, bad_start, tables, ["measure"], ["label"], fds,
            budget=1e9, config=MCMCConfig(iterations=100, seed=4),
        )
        best_graph, best_eval = result.require_feasible()
        start_eval = bad_start.evaluate(
            tables, ["measure"], ["label"], fds, join_graph.pricing
        )
        assert best_eval.correlation >= start_eval.correlation


class TestMCMCConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.25, 1.5])
    def test_rejects_a_flip_probability_outside_the_unit_interval(self, value):
        # NaN would silently disable flips (nan > 0 is false) and 1.5 would
        # silently mean "always flip".
        with pytest.raises(SearchError, match="projection_flip_probability"):
            MCMCConfig(projection_flip_probability=value)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_a_flip_probability_in_the_unit_interval(self, value):
        config = MCMCConfig(projection_flip_probability=value)
        assert config.projection_flip_probability == value
