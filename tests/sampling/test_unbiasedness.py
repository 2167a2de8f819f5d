"""Empirical checks of the unbiasedness claims (Theorems 3.1 and 3.2), on the
path that serves answers.

The paper proves that the correlated-sampling estimator of join informativeness
and the correlated-re-sampling estimators of correlation and quality are
unbiased.  Here we verify the weaker, empirically-checkable statement: the mean
of the estimate over many hash families / re-sampling seeds is close to the
exact value, much closer than any individual estimate is guaranteed to be.

JI is read from the join graph's edge weights over the samples the
marketplace sells, and CORR and Q from :meth:`TargetGraph.evaluate` under a
re-sampling policy, as DANCE serves them.  ``TestResamplingBias`` records
where one re-sampled draw is measurably biased.
"""

from __future__ import annotations

import statistics

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


def sold_samples(market: Marketplace, rate: float, seed: int = 0) -> dict[str, Table]:
    """The correlated samples DANCE buys: each dataset over its shared attributes."""
    samples, _ = market.sell_samples(
        CorrelatedSampler(rate=rate, seed=seed),
        join_attributes_by_dataset=market.shared_attribute_map(),
    )
    return samples


@pytest.fixture(scope="module")
def pair() -> tuple[Table, Table]:
    left_rows = [(i % 40, f"l{i % 7}") for i in range(300)]
    right_rows = [(j, f"r{j % 5}") for j in range(60)]
    return (
        Table.from_rows("left", ["k", "lval"], left_rows),
        Table.from_rows("right", ["k", "rval"], right_rows),
    )


@pytest.fixture(scope="module")
def chain() -> list[Table]:
    a_rows = [(i, f"grp{i % 6}") for i in range(120)]
    b_rows = [(i, i % 30, float(i % 6) * 5 + (i % 2)) for i in range(120)]
    c_rows = [(j, f"label{j % 6}") for j in range(30)]
    return [
        Table.from_rows("a", ["x", "grp"], a_rows),
        Table.from_rows("b", ["x", "y", "measure"], b_rows),
        Table.from_rows("c", ["y", "label"], c_rows),
    ]


@pytest.fixture(scope="module")
def chain_samples(chain) -> dict[str, Table]:
    return sold_samples(Marketplace(chain), 1.0)


@pytest.fixture(scope="module")
def chain_join(chain) -> Table:
    """The unsampled join, materialised by the reference join."""
    a, b, c = chain
    return inner_join(inner_join(a, b), c)


def pair_weight(pair: tuple[Table, Table], rate: float, seed: int) -> float:
    """JI of the pair as the join graph weighs it over sold samples."""
    market = Marketplace(pair)
    graph = JoinGraph(sold_samples(market, rate, seed), pricing=market.pricing)
    return graph.edge_weight("left", "right", ["k"])


def evaluate(samples: dict[str, Table], fds, threshold: int, rate: float, seed: int):
    """One re-sampled evaluation of the chain: CORR of measure and label, and Q."""
    return CHAIN.evaluate(
        samples,
        ["measure"],
        ["label"],
        fds,
        FlatAttributePricingModel(1.0),
        intermediate_hook=ResamplingPolicy(threshold=threshold, rate=rate, seed=seed),
    )


class TestJoinInformativenessUnbiasedness:
    def test_mean_estimate_close_to_exact(self, pair):
        left, right = pair
        exact = join_informativeness(left, right)
        estimates = [pair_weight(pair, 0.5, seed) for seed in range(20)]
        assert statistics.mean(estimates) == pytest.approx(exact, abs=0.12)

    def test_higher_rate_reduces_spread(self, pair):
        low = [pair_weight(pair, 0.3, seed) for seed in range(12)]
        high = [pair_weight(pair, 0.9, seed) for seed in range(12)]
        assert statistics.pstdev(high) <= statistics.pstdev(low) + 0.02


class TestResamplingUnbiasedness:
    def test_correlation_estimate_mean_close_to_exact(self, chain_samples, chain_join):
        exact = attribute_set_correlation(chain_join, ["measure"], ["label"])
        estimates = [
            evaluate(chain_samples, [], 40, 0.6, seed).correlation for seed in range(15)
        ]
        # re-sampling introduces noise but the mean stays near the exact value
        assert statistics.mean(estimates) == pytest.approx(exact, rel=0.35)

    def test_quality_estimate_mean_close_to_exact(self, chain_samples, chain_join):
        fds = [FunctionalDependency("grp", "label")]
        exact = join_quality(chain_join, fds)
        estimates = [evaluate(chain_samples, fds, 40, 0.6, seed).quality for seed in range(15)]
        assert statistics.mean(estimates) == pytest.approx(exact, abs=0.15)

    def test_estimation_independent_of_threshold_in_expectation(
        self, chain_samples, chain_join
    ):
        """The mean stays near the exact value at every eta swept here."""
        exact = attribute_set_correlation(chain_join, ["measure"], ["label"])
        for threshold in (30, 60, 90):
            estimates = [
                evaluate(chain_samples, [], threshold, 0.7, seed).correlation
                for seed in range(10)
            ]
            assert statistics.mean(estimates) == pytest.approx(exact, rel=0.4)


class TestResamplingBias:
    """One re-sampled draw is biased, by more than its noise explains.

    Each test asserts that the mean of 100 draws (η = 40, rate 0.6) lies
    within three standard errors of the exact value, and fails today.
    """

    DRAWS = 100

    def assert_unbiased(self, draws: list[float], exact: float) -> None:
        error = statistics.stdev(draws) / len(draws) ** 0.5
        assert abs(statistics.mean(draws) - exact) <= 3 * error

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14")
    def test_quality_of_a_violated_fd(self, chain_samples, chain_join):
        """``grp -> y`` holds on 0.2 of the join; a draw keeps fewer rows per
        ``grp`` class, so its largest ``y`` share reads higher."""
        fds = [FunctionalDependency("grp", "y")]
        draws = [
            evaluate(chain_samples, fds, 40, 0.6, seed).quality for seed in range(self.DRAWS)
        ]
        self.assert_unbiased(draws, join_quality(chain_join, fds))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14")
    def test_correlation_of_the_chain(self, chain_samples, chain_join):
        draws = [
            evaluate(chain_samples, [], 40, 0.6, seed).correlation
            for seed in range(self.DRAWS)
        ]
        exact = attribute_set_correlation(chain_join, ["measure"], ["label"])
        self.assert_unbiased(draws, exact)
