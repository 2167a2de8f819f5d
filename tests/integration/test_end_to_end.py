"""End-to-end integration tests: workload → marketplace → DANCE → purchase."""

from __future__ import annotations

import pytest

from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.infotheory.correlation import attribute_set_correlation
from repro.marketplace.shopper import AcquisitionRequest, DataShopper
from repro.pricing.budget import Budget
from repro.relational.joins import inner_join
from repro.search.mcmc import MCMCConfig
from repro.workloads.queries import tpch_queries


@pytest.fixture(scope="module")
def dance(tpch_marketplace_module):
    config = DanceConfig(sampling_rate=0.6, mcmc=MCMCConfig(iterations=40, seed=0))
    dance = DANCE(tpch_marketplace_module, config)
    dance.build_offline()
    return dance


@pytest.fixture(scope="module")
def tpch_marketplace_module():
    from repro.marketplace.dataset import MarketplaceDataset
    from repro.marketplace.market import Marketplace
    from repro.pricing.models import EntropyPricingModel
    from repro.workloads.tpch import tpch_workload

    workload = tpch_workload(scale=0.05, seed=0, dirty_rate=0.3)
    pricing = EntropyPricingModel()
    market = Marketplace(default_pricing=pricing)
    for name in workload.tables:
        market.host(MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing))
    return market


class TestOfflinePhase:
    def test_join_graph_covers_all_hosted_datasets(self, dance, tpch_marketplace_module):
        assert len(dance.join_graph) == len(tpch_marketplace_module)

    def test_join_graph_connects_the_tpch_chain(self, dance):
        graph = dance.join_graph
        assert graph.has_edge("orders", "customer")
        assert graph.has_edge("customer", "nation")
        assert graph.has_edge("nation", "region")
        assert graph.has_edge("lineitem", "orders")


class TestAcquisitionQueries:
    @pytest.mark.parametrize("query_name", ["Q1", "Q2", "Q3"])
    def test_each_paper_query_is_answerable(self, dance, query_name):
        query = tpch_queries()[query_name]
        request = AcquisitionRequest(
            source_attributes=query.source_attributes,
            target_attributes=query.target_attributes,
            budget=1e6,
        )
        result = dance.acquire(request)
        assert result.estimated_correlation >= 0.0
        provided = set()
        for name in result.target_graph.nodes:
            provided |= set(result.target_graph.projections[name])
        assert set(query.target_attributes) <= provided

    def test_purchased_data_supports_the_correlation_analysis(
        self, dance, tpch_marketplace_module
    ):
        """Buy the recommended projections and compute the correlation locally."""
        query = tpch_queries()["Q2"]
        request = AcquisitionRequest(
            source_attributes=query.source_attributes,
            target_attributes=query.target_attributes,
            budget=1e6,
        )
        result = dance.acquire(request)

        shopper = DataShopper(name="adam", budget=Budget(total=1e6))
        receipts = shopper.purchase(tpch_marketplace_module, result.queries)
        purchased = {receipt.result.name: receipt.result for receipt in receipts}

        # join the purchased projections along the recommended target graph
        tables = {}
        for name in result.target_graph.nodes:
            if name in purchased:
                tables[name] = purchased[name]
            else:
                tables[name] = tpch_marketplace_module.dataset(name).table
        joined = result.target_graph.joined_table(tables)
        correlation = attribute_set_correlation(
            joined, query.source_attributes, query.target_attributes
        )
        assert len(joined) > 0
        assert correlation >= 0.0

    def test_budget_constrains_price(self, dance):
        query = tpch_queries()["Q1"]
        generous = dance.acquire(
            AcquisitionRequest(query.source_attributes, query.target_attributes, budget=1e6)
        )
        tight_budget = max(1.0, generous.estimated_price * 0.5)
        try:
            tight = dance.acquire(
                AcquisitionRequest(
                    query.source_attributes, query.target_attributes, budget=tight_budget
                )
            )
        except Exception:
            return  # infeasible under the tight budget: acceptable outcome
        assert tight.estimated_price <= tight_budget + 1e-6


class TestJoinPathSanity:
    def test_natural_tpch_join_is_nonempty(self, tpch_marketplace_module):
        orders = tpch_marketplace_module.dataset("orders").table
        customer = tpch_marketplace_module.dataset("customer").table
        nation = tpch_marketplace_module.dataset("nation").table
        region = tpch_marketplace_module.dataset("region").table
        joined = orders.project(["custkey", "totalprice"])
        for right in (
            customer.project(["custkey", "nationkey"]),
            nation.project(["nationkey", "regionkey"]),
            region,
        ):
            joined = inner_join(joined, right)
        assert len(joined) > 0
        assert "rname" in joined.schema
