"""Tests for correlated re-sampling of intermediate join results."""

from __future__ import annotations

import pytest

from repro.exceptions import SamplingError
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy


@pytest.fixture
def big_table() -> Table:
    return Table.from_rows("big", ["k", "v"], [(i, i * 2) for i in range(500)])


class TestResampleIfLarge:
    """A policy re-samples a table only when it has more than ``eta`` rows."""

    def test_below_threshold_is_untouched(self, big_table):
        assert ResamplingPolicy(threshold=1000, rate=0.5)(big_table) is big_table
        # At the threshold itself the table passes through too.
        assert ResamplingPolicy(threshold=len(big_table), rate=0.5)(big_table) is big_table

    def test_above_threshold_is_shrunk(self, big_table):
        shrunk = ResamplingPolicy(threshold=100, rate=0.3, seed=0)(big_table)
        assert len(shrunk) < len(big_table)
        assert 0.1 * len(big_table) <= len(shrunk) <= 0.5 * len(big_table)

    def test_rate_one_is_untouched(self, big_table):
        policy = ResamplingPolicy(threshold=100, rate=1.0)
        assert not policy.enabled
        assert policy(big_table) is big_table

    def test_invalid_parameters(self):
        with pytest.raises(SamplingError):
            ResamplingPolicy(threshold=-1, rate=0.5)
        with pytest.raises(SamplingError):
            ResamplingPolicy(threshold=10, rate=0.0)
        with pytest.raises(SamplingError):
            ResamplingPolicy(threshold=10, rate=1.5)


class TestResamplingPolicy:
    def test_disabled_policy_never_resamples(self, big_table):
        policy = ResamplingPolicy.disabled()
        assert not policy.enabled
        assert policy(big_table) is big_table

    def test_enabled_policy_resamples_large_tables(self, big_table):
        policy = ResamplingPolicy(threshold=100, rate=0.4, seed=0)
        assert policy.enabled
        shrunk = policy(big_table)
        assert len(shrunk) < len(big_table)

    def test_small_tables_pass_through(self, big_table):
        policy = ResamplingPolicy(threshold=10_000, rate=0.4, seed=0)
        assert policy(big_table) is big_table

    def test_fires_above_the_threshold_only(self):
        policy = ResamplingPolicy(threshold=100, rate=0.4)
        assert not policy.fires(100)
        assert policy.fires(101)
        assert not ResamplingPolicy.disabled().fires(10**6)
        assert not ResamplingPolicy(threshold=0, rate=1.0).fires(10**6)

    def test_for_graph_derives_a_policy_per_graph(self, big_table):
        """A graph's policy keeps the threshold and rate, takes its seed from
        the policy seed and the graph signature, and draws the same sample
        every time it is derived; the policy it came from draws nothing."""
        signature = (("a", "b"), (("k",),), (0,), (("k", "v"), ("k",)))
        other = (("a", "b"), (("v",),), (0,), (("k", "v"), ("v",)))
        policy = ResamplingPolicy(threshold=100, rate=0.4, seed=5)
        state = policy._rng.getstate()
        derived = policy.for_graph(signature)
        assert (derived.threshold, derived.rate) == (100, 0.4)
        assert derived.seed == policy.for_graph(signature).seed
        assert derived.seed != policy.for_graph(other).seed
        assert derived.seed != ResamplingPolicy(threshold=100, rate=0.4, seed=6).for_graph(
            signature
        ).seed
        first = derived(big_table).column("k")
        assert policy.for_graph(signature)(big_table).column("k") == first
        assert policy._rng.getstate() == state

    def test_invalid_configuration(self):
        with pytest.raises(SamplingError):
            ResamplingPolicy(threshold=-5)
        with pytest.raises(SamplingError):
            ResamplingPolicy(rate=0.0)
