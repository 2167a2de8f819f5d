"""Tests for the combined two-step heuristic acquisition."""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleAcquisitionError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import IGraph
from repro.graph.target import TargetGraphEvaluation
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.search import acquisition
from repro.search.acquisition import heuristic_acquisition
from repro.search.mcmc import MCMCConfig, MCMCResult


@pytest.fixture
def chain_graph() -> JoinGraph:
    # custkey spans 0..6 on orders but only 0..4 on customers, so the
    # orders-customers edge has strictly positive join informativeness and the
    # α-threshold test below can reject the only available I-graph.
    orders = Table.from_rows(
        "orders", ["custkey", "totalprice"], [(i % 7, float(i % 5) * 100 + i % 2) for i in range(50)]
    )
    customers = Table.from_rows(
        "customers", ["custkey", "nationkey"], [(i, i % 3) for i in range(5)]
    )
    nations = Table.from_rows("nations", ["nationkey", "nname"], [(i, f"n{i}") for i in range(3)])
    unrelated = Table.from_rows("unrelated", ["foo"], [(1,)])
    return JoinGraph(
        [orders, customers, nations, unrelated], source_instances=["orders"]
    )


@pytest.fixture
def fds() -> list[FunctionalDependency]:
    return [FunctionalDependency("nationkey", "nname")]


class TestHeuristicAcquisition:
    def test_end_to_end_feasible(self, chain_graph, fds):
        result = heuristic_acquisition(
            chain_graph, ["totalprice"], ["nname"], fds,
            budget=1e9, mcmc_config=MCMCConfig(iterations=40, seed=0), landmark_seed=0,
        )
        assert result.feasible
        graph, evaluation = result.require_feasible()
        assert set(graph.nodes) == {"orders", "customers", "nations"}
        assert evaluation.correlation > 0.0
        assert result.igraph_size == 3

    def test_unreachable_target_raises(self, chain_graph, fds):
        with pytest.raises(InfeasibleAcquisitionError):
            heuristic_acquisition(
                chain_graph, ["totalprice"], ["foo"], fds, budget=1e9, landmark_seed=0
            )

    def test_alpha_threshold_enforced_in_step_one(self, chain_graph, fds):
        with pytest.raises(InfeasibleAcquisitionError):
            heuristic_acquisition(
                chain_graph, ["totalprice"], ["nname"], fds,
                budget=1e9, max_weight=0.0, landmark_seed=0,
            )

    def test_budget_infeasibility_reported_not_raised(self, chain_graph, fds):
        result = heuristic_acquisition(
            chain_graph, ["totalprice"], ["nname"], fds,
            budget=0.0, mcmc_config=MCMCConfig(iterations=10, seed=0), landmark_seed=0,
        )
        assert not result.feasible
        assert result.igraph_size == 3

    def test_missing_attribute_raises(self, chain_graph, fds):
        with pytest.raises(InfeasibleAcquisitionError):
            heuristic_acquisition(
                chain_graph, ["totalprice"], ["missing"], fds, budget=1e9, landmark_seed=0
            )

    def test_no_source_attributes(self, chain_graph, fds):
        result = heuristic_acquisition(
            chain_graph, [], ["nname"], fds,
            budget=1e9, mcmc_config=MCMCConfig(iterations=10, seed=0), landmark_seed=0,
        )
        assert result.feasible

    def test_tie_goes_to_the_earlier_candidate(self, chain_graph, fds, monkeypatch):
        """``igraph_index`` is the winner's position in Step 1's candidate list."""
        nodes = ("customers", "nations", "orders")
        edges = (("customers", "nations"), ("customers", "orders"))
        candidates = [IGraph(nodes, edges, weight) for weight in (1.0, 2.0, 3.0)]
        correlations = iter([0.2, 0.7, 0.7])

        def fixed_walk(join_graph, initial, *args, **kwargs):
            evaluation = TargetGraphEvaluation(
                correlation=next(correlations), quality=1.0, weight=0.0, price=0.0
            )
            return MCMCResult(best_graph=initial, best_evaluation=evaluation)

        monkeypatch.setattr(
            acquisition, "minimal_weight_igraphs", lambda *args, **kwargs: candidates
        )
        monkeypatch.setattr(acquisition, "mcmc_search", fixed_walk)
        result = heuristic_acquisition(
            chain_graph, ["totalprice"], ["nname"], fds, budget=1e9, landmark_seed=0
        )
        assert result.igraph_index == 1
        assert result.igraph is candidates[1]
        assert result.best_evaluation.correlation == 0.7
