"""Tests for the top-k acquisition extension."""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleAcquisitionError
from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraphEvaluation
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.search.topk import RankedOption, ScoreWeights, top_k_acquisition


@pytest.fixture
def join_graph() -> JoinGraph:
    """Two instances with two alternative join attributes, so at least two
    distinct purchase options exist."""
    facts = Table.from_rows(
        "facts",
        ["good_key", "bad_key", "measure"],
        [(i % 8, i % 2, float(i % 8) * 10 + i % 3) for i in range(64)],
    )
    dims = Table.from_rows(
        "dims",
        ["good_key", "bad_key", "label", "extra"],
        [(i, i % 2, f"lbl{i}", f"x{i % 3}") for i in range(8)],
    )
    return JoinGraph([facts, dims], source_instances=["facts"])


@pytest.fixture
def fds() -> list[FunctionalDependency]:
    return [FunctionalDependency("good_key", "label")]


class TestScoreWeights:
    def test_score_combines_all_terms(self):
        weights = ScoreWeights(
            correlation_weight=2.0, quality_weight=1.0, weight_penalty=1.0, price_penalty=1.0
        )
        evaluation = TargetGraphEvaluation(
            correlation=3.0, quality=0.5, weight=1.0, price=10.0
        )
        score = weights.score(evaluation, budget=20.0, max_weight=2.0)
        assert score == pytest.approx(2.0 * 3.0 + 0.5 - 1.0 * 0.5 - 1.0 * 0.5)

    def test_infinite_alpha_uses_unit_scale(self):
        weights = ScoreWeights()
        evaluation = TargetGraphEvaluation(correlation=1.0, quality=1.0, weight=0.5, price=5.0)
        score = weights.score(evaluation, budget=10.0, max_weight=float("inf"))
        assert score == pytest.approx(1.0 + 1.0 - 0.5 * 0.5 - 0.5 * 0.5)

    def test_higher_price_lowers_score(self):
        weights = ScoreWeights()
        cheap = TargetGraphEvaluation(correlation=1.0, quality=1.0, weight=0.0, price=1.0)
        expensive = TargetGraphEvaluation(correlation=1.0, quality=1.0, weight=0.0, price=9.0)
        assert weights.score(cheap, budget=10.0, max_weight=1.0) > weights.score(
            expensive, budget=10.0, max_weight=1.0
        )


class TestTopKAcquisition:
    def test_returns_ranked_distinct_options(self, join_graph, fds):
        options = top_k_acquisition(
            join_graph, ["measure"], ["label"], fds,
            k=3, budget=1e9, mcmc_config=MCMCConfig(iterations=40, seed=0), landmark_seed=0,
        )
        assert 1 <= len(options) <= 3
        assert [option.rank for option in options] == list(range(1, len(options) + 1))
        scores = [option.score for option in options]
        assert scores == sorted(scores, reverse=True)
        signatures = {
            frozenset(
                (name, option.target_graph.projections[name])
                for name in option.target_graph.purchased_instances()
            )
            for option in options
        }
        assert len(signatures) == len(options)

    def test_multiple_options_found_when_alternatives_exist(self, join_graph, fds):
        options = top_k_acquisition(
            join_graph, ["measure"], ["label"], fds,
            k=5, budget=1e9, mcmc_config=MCMCConfig(iterations=60, seed=1), landmark_seed=0,
        )
        # the two join attributes (good_key / bad_key) give at least two options
        assert len(options) >= 2

    def test_all_options_satisfy_constraints(self, join_graph, fds):
        budget = 30.0
        options = top_k_acquisition(
            join_graph, ["measure"], ["label"], fds,
            k=4, budget=budget, min_quality=0.1,
            mcmc_config=MCMCConfig(iterations=40, seed=2), landmark_seed=0,
        )
        for option in options:
            assert option.evaluation.price <= budget + 1e-6
            assert option.evaluation.quality >= 0.1 - 1e-9

    def test_k_one_matches_best_option(self, join_graph, fds):
        all_options = top_k_acquisition(
            join_graph, ["measure"], ["label"], fds,
            k=5, budget=1e9, mcmc_config=MCMCConfig(iterations=40, seed=3), landmark_seed=0,
        )
        just_one = top_k_acquisition(
            join_graph, ["measure"], ["label"], fds,
            k=1, budget=1e9, mcmc_config=MCMCConfig(iterations=40, seed=3), landmark_seed=0,
        )
        assert len(just_one) == 1
        assert just_one[0].score == pytest.approx(all_options[0].score)

    def test_invalid_k_rejected(self, join_graph, fds):
        with pytest.raises(InfeasibleAcquisitionError):
            top_k_acquisition(join_graph, ["measure"], ["label"], fds, k=0, budget=1.0)

    def test_zero_budget_yields_no_options(self, join_graph, fds):
        options = top_k_acquisition(
            join_graph, ["measure"], ["label"], fds,
            k=3, budget=0.0, mcmc_config=MCMCConfig(iterations=10, seed=0), landmark_seed=0,
        )
        assert options == []

    def test_summary_is_json_friendly(self, join_graph, fds):
        import json

        options = top_k_acquisition(
            join_graph, ["measure"], ["label"], fds,
            k=2, budget=1e9, mcmc_config=MCMCConfig(iterations=20, seed=0), landmark_seed=0,
        )
        assert options
        payload = json.dumps([option.summary() for option in options])
        decoded = json.loads(payload)
        assert decoded[0]["rank"] == 1
        assert isinstance(options[0], RankedOption)
