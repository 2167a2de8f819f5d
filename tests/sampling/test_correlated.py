"""Tests for correlated sampling."""

from __future__ import annotations

import pytest

from repro.exceptions import SamplingError
from repro.marketplace.market import Marketplace
from repro.relational.joins import inner_join
from repro.relational.table import Table
from repro.sampling.correlated import CorrelatedSampler, correlated_sample


@pytest.fixture
def orders() -> Table:
    rows = [(i % 50, f"order{i}", float(i)) for i in range(400)]
    return Table.from_rows("orders", ["custkey", "label", "amount"], rows)


@pytest.fixture
def customers() -> Table:
    rows = [(i, f"cust{i}") for i in range(50)]
    return Table.from_rows("customers", ["custkey", "cname"], rows)


class TestCorrelatedSample:
    def test_rate_one_returns_everything(self, orders):
        sample = correlated_sample(orders, ["custkey"], 1.0)
        assert len(sample) == len(orders)

    def test_sample_size_close_to_rate(self, orders):
        sample = correlated_sample(orders, ["custkey"], 0.5, seed=0)
        assert 0.3 * len(orders) <= len(sample) <= 0.7 * len(orders)

    def test_deterministic(self, orders):
        first = correlated_sample(orders, ["custkey"], 0.4, seed=3)
        second = correlated_sample(orders, ["custkey"], 0.4, seed=3)
        assert first.column("label") == second.column("label")

    def test_key_based_inclusion_is_all_or_nothing(self, orders):
        """All rows sharing a join value are kept or dropped together."""
        sample = correlated_sample(orders, ["custkey"], 0.5, seed=1)
        sampled_keys = set(sample.column("custkey"))
        for key in sampled_keys:
            original_count = sum(1 for value in orders.column("custkey") if value == key)
            sampled_count = sum(1 for value in sample.column("custkey") if value == key)
            assert original_count == sampled_count

    def test_correlation_across_tables(self, orders, customers):
        """Sampled orders always find their customer in the sampled customers."""
        rate, seed = 0.5, 2
        orders_sample = correlated_sample(orders, ["custkey"], rate, seed=seed)
        customers_sample = correlated_sample(customers, ["custkey"], rate, seed=seed)
        joined = inner_join(orders_sample, customers_sample)
        assert len(joined) == len(orders_sample)

    def test_invalid_rate_rejected(self, orders):
        with pytest.raises(SamplingError):
            correlated_sample(orders, ["custkey"], 0.0)
        with pytest.raises(SamplingError):
            correlated_sample(orders, ["custkey"], 1.5)

    def test_none_join_values_sampled_independently(self):
        rows = [(None, i) for i in range(200)]
        table = Table.from_rows("t", ["k", "v"], rows)
        sample = correlated_sample(table, ["k"], 0.5, seed=0)
        # not all-or-nothing: roughly half survive
        assert 0.25 * len(table) <= len(sample) <= 0.75 * len(table)

    def test_bool_and_int_keys_that_join_are_kept_together(self):
        """``True`` joins ``1`` and ``False`` joins ``0``, so each pair is
        kept on both sides or dropped from both."""
        flags = Table.from_rows("flags", ["k", "f"], [(True, "t"), (False, "f")])
        ints = Table.from_rows("ints", ["k", "i"], [(1, "one"), (0, "zero")])
        assert len(inner_join(flags, ints)) == 2
        for seed in range(6):
            kept_flags = correlated_sample(flags, ["k"], 0.5, seed=seed)
            kept_ints = correlated_sample(ints, ["k"], 0.5, seed=seed)
            assert sorted(map(int, kept_flags.column("k"))) == sorted(kept_ints.column("k"))

    def test_sample_name(self, orders):
        assert correlated_sample(orders, ["custkey"], 0.5).name == "orders_sample"
        assert correlated_sample(orders, ["custkey"], 0.5, name="x").name == "x"


class TestCorrelatedSampler:
    def test_invalid_rate_rejected(self):
        with pytest.raises(SamplingError):
            CorrelatedSampler(rate=0.0)

    def test_sample_all_uses_per_table_join_attributes(self, orders, customers):
        market = Marketplace([orders, customers])
        samples, _ = market.sell_samples(
            CorrelatedSampler(rate=0.5, seed=0),
            join_attributes_by_dataset={"orders": ["custkey"], "customers": ["custkey"]},
        )
        assert list(samples) == ["orders", "customers"]
        joined = inner_join(samples["orders"], samples["customers"])
        assert len(joined) == len(samples["orders"])

    def test_expected_sample_size(self, orders):
        sampler = CorrelatedSampler(rate=0.25)
        assert sampler.expected_sample_size(orders) == pytest.approx(100.0)
