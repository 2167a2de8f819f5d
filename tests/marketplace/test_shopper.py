"""Tests for the data shopper and acquisition requests."""

from __future__ import annotations

import pytest

from repro.exceptions import BudgetExceededError, SearchError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace, ProjectionQuery
from repro.marketplace.shopper import AcquisitionRequest, DataShopper
from repro.pricing.budget import Budget
from repro.pricing.models import FlatAttributePricingModel
from repro.relational.table import Table


@pytest.fixture
def market() -> Marketplace:
    pricing = FlatAttributePricingModel(3.0)
    market = Marketplace(default_pricing=pricing)
    table = Table.from_rows("census", ["zipcode", "population"], [("07030", 50000)])
    market.host(MarketplaceDataset(table=table, pricing=pricing))
    return market


@pytest.fixture
def shopper() -> DataShopper:
    source = Table.from_rows("local", ["zipcode", "age"], [("07030", 30)])
    return DataShopper(name="adam", source_tables=[source], budget=Budget(total=10.0))


class TestAcquisitionRequest:
    def test_valid_request(self):
        request = AcquisitionRequest(["age"], ["disease"], budget=5.0, min_quality=0.5)
        assert request.source_attributes == ("age",)
        assert request.target_attributes == ("disease",)

    def test_empty_targets_rejected(self):
        with pytest.raises(SearchError):
            AcquisitionRequest(["age"], [], budget=5.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(SearchError):
            AcquisitionRequest(["age"], ["disease"], budget=-1.0)

    def test_invalid_quality_rejected(self):
        with pytest.raises(SearchError):
            AcquisitionRequest([], ["disease"], budget=5.0, min_quality=1.5)

    def test_negative_alpha_rejected(self):
        with pytest.raises(SearchError):
            AcquisitionRequest([], ["disease"], budget=5.0, max_join_informativeness=-0.1)

    @pytest.mark.parametrize("field", ["budget", "max_join_informativeness", "deadline"])
    def test_nan_constraint_rejected(self, field):
        with pytest.raises(SearchError, match=field):
            AcquisitionRequest([], ["disease"], **{"budget": 5.0, field: float("nan")})

    @pytest.mark.parametrize("field", ["budget", "max_join_informativeness", "deadline"])
    def test_infinite_constraint_accepted(self, field):
        request = AcquisitionRequest([], ["disease"], **{"budget": 5.0, field: float("inf")})
        assert getattr(request, field) == float("inf")

    def test_with_budget_keeps_other_fields(self):
        request = AcquisitionRequest(["age"], ["disease"], budget=5.0, min_quality=0.4)
        rebudgeted = request.with_budget(9.0)
        assert rebudgeted.budget == 9.0
        assert rebudgeted.min_quality == 0.4

    def test_no_source_attributes_allowed(self):
        request = AcquisitionRequest([], ["disease"], budget=5.0)
        assert request.source_attributes == ()


class TestDataShopper:
    def test_source_attribute_names(self, shopper):
        assert shopper.source_attribute_names() == ("zipcode", "age")
        assert shopper.owns_attribute("age")
        assert not shopper.owns_attribute("disease")

    def test_make_request_uses_remaining_budget(self, shopper):
        request = shopper.make_request(["population"])
        assert request.budget == pytest.approx(10.0)
        assert request.source_attributes == ("zipcode", "age")

    def test_make_request_with_explicit_sources(self, shopper):
        request = shopper.make_request(["population"], source_attributes=["age"])
        assert request.source_attributes == ("age",)

    def test_purchase_charges_budget_and_stores_receipts(self, shopper, market):
        queries = [ProjectionQuery("census", ["zipcode", "population"])]
        receipts = shopper.purchase(market, queries)
        assert len(receipts) == 1
        assert shopper.total_spent() == pytest.approx(6.0)
        assert shopper.purchased_tables()[0].attribute_names == ("zipcode", "population")

    def test_purchase_beyond_budget_raises(self, shopper, market):
        shopper.budget = Budget(total=1.0)
        with pytest.raises(BudgetExceededError):
            shopper.purchase(market, [ProjectionQuery("census", ["zipcode", "population"])])
