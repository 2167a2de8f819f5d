"""Tests for the sample-based estimates of JI, correlation and quality.

DANCE estimates JI as the join graph's edge weights over the correlated
samples the marketplace sells (Theorem 3.1), and correlation and quality by
evaluating a target graph on those samples, re-sampling its joins above
``eta`` (Theorem 3.2).  These tests run exactly that path.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraph
from repro.infotheory.correlation import attribute_set_correlation
from repro.infotheory.join_informativeness import join_informativeness
from repro.marketplace.market import Marketplace
from repro.pricing.models import FlatAttributePricingModel
from repro.quality.fd import FunctionalDependency
from repro.quality.measure import join_quality
from repro.relational.joins import inner_join
from repro.relational.table import Table
from repro.sampling.correlated import CorrelatedSampler
from repro.sampling.resampling import ResamplingPolicy

CHAIN = TargetGraph(
    nodes=["a", "b", "c"],
    edges=[frozenset({"x"}), frozenset({"y"})],
    projections={"a": {"x", "grp"}, "b": {"x", "y", "measure"}, "c": {"y", "label"}},
)

PRICING = FlatAttributePricingModel(1.0)


@pytest.fixture
def chain_tables() -> list[Table]:
    """A three-table chain a(x) - b(x, y) - c(y) with a planted correlation."""
    a_rows = [(i, f"grp{i % 4}") for i in range(80)]
    b_rows = [(i, i % 20, float(i % 4) * 10 + (i % 3)) for i in range(80)]
    c_rows = [(j, f"label{j % 5}", f"cat{j % 2}") for j in range(20)]
    return [
        Table.from_rows("a", ["x", "grp"], a_rows),
        Table.from_rows("b", ["x", "y", "measure"], b_rows),
        Table.from_rows("c", ["y", "label", "cat"], c_rows),
    ]


@pytest.fixture
def policy() -> ResamplingPolicy:
    return ResamplingPolicy(threshold=10_000, rate=0.5, seed=0)


def sold_samples(tables: list[Table], rate: float, seed: int = 0) -> dict[str, Table]:
    """The correlated samples DANCE buys: each dataset over its shared attributes."""
    market = Marketplace(tables)
    samples, _ = market.sell_samples(
        CorrelatedSampler(rate=rate, seed=seed),
        join_attributes_by_dataset=market.shared_attribute_map(),
    )
    return samples


def pair_weight(left: Table, right: Table, rate: float, seed: int = 0) -> float:
    """JI of a two-dataset marketplace's edge, as the join graph weighs it."""
    graph = JoinGraph(sold_samples([left, right], rate, seed))
    return graph.edge_weight(left.name, right.name, ["x"])


def unsampled_join(tables: list[Table]) -> Table:
    a, b, c = tables
    return inner_join(inner_join(a, b), c)


class TestJoinInformativenessEstimation:
    def test_full_rate_estimate_is_exact(self, chain_tables):
        a, b, _ = chain_tables
        assert pair_weight(a, b, 1.0) == pytest.approx(join_informativeness(a, b))

    def test_estimate_within_tolerance(self, chain_tables):
        a, b, _ = chain_tables
        exact = join_informativeness(a, b)
        assert abs(exact - pair_weight(a, b, 0.6)) < 0.35

    def test_empty_sample_returns_one(self, chain_tables):
        a, b, _ = chain_tables
        value = pair_weight(a, b, 0.001, seed=1)
        assert 0.0 <= value <= 1.0


class TestCorrelationAndQualityEstimation:
    def test_full_rate_correlation_matches_exact(self, chain_tables):
        exact = attribute_set_correlation(unsampled_join(chain_tables), ["measure"], ["label"])
        samples = sold_samples(chain_tables, 1.0)
        estimate = CHAIN.evaluate(samples, ["measure"], ["label"], [], PRICING).correlation
        assert estimate == pytest.approx(exact)

    def test_full_rate_quality_matches_exact(self, chain_tables):
        fds = [FunctionalDependency("grp", "label")]
        exact = join_quality(unsampled_join(chain_tables), fds)
        samples = sold_samples(chain_tables, 1.0)
        estimate = CHAIN.evaluate(samples, ["measure"], ["label"], fds, PRICING).quality
        assert estimate == pytest.approx(exact)

    def test_sampled_estimates_are_finite_and_sane(self, chain_tables, policy):
        evaluation = CHAIN.evaluate(
            sold_samples(chain_tables, 0.6),
            ["measure"],
            ["label"],
            [FunctionalDependency("grp", "label")],
            PRICING,
            intermediate_hook=policy,
        )
        assert evaluation.correlation >= 0.0
        assert 0.0 <= evaluation.quality <= 1.0

    def test_resampling_bounds_intermediate_size(self, chain_tables):
        evaluation = CHAIN.evaluate(
            sold_samples(chain_tables, 1.0),
            ["measure"],
            ["label"],
            [],
            PRICING,
            intermediate_hook=ResamplingPolicy(threshold=20, rate=0.5, seed=0),
        )
        # the join was re-sampled at least once, so it is smaller than the
        # exact join (80 rows)
        assert evaluation.join_rows < len(unsampled_join(chain_tables))

    def test_estimate_all_returns_every_metric(self, chain_tables, policy):
        samples = sold_samples(chain_tables, 0.6)
        evaluation = CHAIN.evaluate(
            samples,
            ["measure"],
            ["label"],
            [FunctionalDependency("grp", "label")],
            PRICING,
            intermediate_hook=policy,
        )
        names = {field.name for field in fields(evaluation)}
        assert names == {"correlation", "quality", "weight", "price", "join_rows"}
        assert evaluation.join_rows >= 0
        graph = JoinGraph(samples)
        weights = graph.edge_weight("a", "b", ["x"]) + graph.edge_weight("b", "c", ["y"])
        assert evaluation.weight == weights

    def test_single_table_path(self, chain_tables, policy):
        graph = TargetGraph(nodes=["c"], edges=[], projections={"c": {"y", "label", "cat"}})
        evaluation = graph.evaluate(
            sold_samples(chain_tables, 0.6),
            ["label"],
            ["cat"],
            [],
            PRICING,
            intermediate_hook=policy,
        )
        assert evaluation.correlation >= 0.0
