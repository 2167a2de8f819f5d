"""Tests for AcquisitionResult and query generation."""

from __future__ import annotations

from repro.core.result import AcquisitionResult, queries_for_target_graph
from repro.graph.target import TargetGraph, TargetGraphEvaluation


def _make_graph() -> TargetGraph:
    return TargetGraph(
        nodes=["orders", "customers", "nations"],
        edges=[frozenset({"custkey"}), frozenset({"nationkey"})],
        projections={
            "orders": {"custkey", "totalprice"},
            "customers": {"custkey", "nationkey"},
            "nations": {"nationkey", "nname"},
        },
        source_instances={"orders"},
    )


class TestQueriesForTargetGraph:
    def test_source_instances_excluded(self):
        queries = queries_for_target_graph(_make_graph())
        assert {q.dataset for q in queries} == {"customers", "nations"}

    def test_attributes_sorted_and_complete(self):
        queries = queries_for_target_graph(_make_graph())
        by_dataset = {q.dataset: q.attributes for q in queries}
        assert by_dataset["nations"] == ("nationkey", "nname")

    def test_extra_exclusions(self):
        queries = queries_for_target_graph(_make_graph(), exclude=["customers"])
        assert {q.dataset for q in queries} == {"nations"}


class TestAcquisitionResult:
    def test_summary_and_properties(self):
        graph = _make_graph()
        evaluation = TargetGraphEvaluation(
            correlation=2.5, quality=0.9, weight=0.8, price=12.0, join_rows=40
        )
        result = AcquisitionResult(
            target_graph=graph,
            evaluation=evaluation,
            queries=queries_for_target_graph(graph),
            sample_cost=0.5,
            igraph_size=3,
        )
        assert result.estimated_correlation == 2.5
        assert result.estimated_quality == 0.9
        assert result.estimated_join_informativeness == 0.8
        assert result.estimated_price == 12.0
        assert result.purchased_instances == ["customers", "nations"]
        assert len(result.sql()) == 2
        assert all(sql.startswith("SELECT") for sql in result.sql())

        summary = result.summary()
        assert summary["instances"] == ["orders", "customers", "nations"]
        assert summary["estimated_price"] == 12.0
        assert summary["igraph_size"] == 3
        assert summary["sample_cost"] == 0.5
        # Single-chain defaults of the multi-chain diagnostics.
        assert summary["mcmc_chains"] == 1
        assert summary["mcmc_executor"] == "serial"
        assert summary["mcmc_best_chain"] == 0
        assert summary["mcmc_chain_correlations"] == []

    def test_summary_carries_chain_diagnostics(self):
        graph = _make_graph()
        evaluation = TargetGraphEvaluation(
            correlation=2.5, quality=0.9, weight=0.8, price=12.0, join_rows=40
        )
        result = AcquisitionResult(
            target_graph=graph,
            evaluation=evaluation,
            mcmc_chains=4,
            mcmc_executor="process",
            mcmc_best_chain=2,
            mcmc_chain_correlations=[2.5, 2.5, 2.5, None],
        )
        summary = result.summary()
        assert summary["mcmc_chains"] == 4
        assert summary["mcmc_executor"] == "process"
        assert summary["mcmc_best_chain"] == 2
        assert summary["mcmc_chain_correlations"] == [2.5, 2.5, 2.5, None]
