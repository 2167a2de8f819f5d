"""Tests for the two-layer join graph (Definition 4.2 and Property 4.1)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphConstructionError
from repro.graph.join_graph import JoinGraph
from repro.pricing.models import FlatAttributePricingModel
from repro.relational.table import Table


@pytest.fixture
def tables() -> list[Table]:
    orders = Table.from_rows(
        "orders", ["custkey", "amount"], [(i % 5, float(i)) for i in range(40)]
    )
    customers = Table.from_rows(
        "customers", ["custkey", "nationkey", "segment"], [(i, i % 3, f"s{i % 2}") for i in range(5)]
    )
    nations = Table.from_rows("nations", ["nationkey", "nname"], [(i, f"n{i}") for i in range(3)])
    isolated = Table.from_rows("isolated", ["other"], [(1,)])
    return [orders, customers, nations, isolated]


@pytest.fixture
def join_graph(tables) -> JoinGraph:
    return JoinGraph(tables, pricing=FlatAttributePricingModel(1.0))


class TestConstruction:
    def test_instance_vertices(self, join_graph):
        assert set(join_graph.instance_names) == {"orders", "customers", "nations", "isolated"}
        assert len(join_graph) == 4

    def test_i_edges_follow_shared_attributes(self, join_graph):
        assert join_graph.has_edge("orders", "customers")
        assert join_graph.has_edge("customers", "nations")
        assert not join_graph.has_edge("orders", "nations")
        assert not join_graph.has_edge("isolated", "orders")

    def test_edge_weights_are_join_informativeness(self, join_graph):
        edge = join_graph.edge("orders", "customers")
        assert set(edge.weights) == {frozenset({"custkey"})}
        assert 0.0 <= edge.weight <= 1.0

    def test_edge_lookup_is_symmetric(self, join_graph):
        assert join_graph.edge("customers", "orders") is join_graph.edge("orders", "customers")

    def test_unknown_edge_raises(self, join_graph):
        with pytest.raises(GraphConstructionError):
            join_graph.edge("orders", "isolated")

    def test_neighbors(self, join_graph):
        assert join_graph.neighbors("customers") == ("nations", "orders")
        assert join_graph.neighbors("isolated") == ()

    def test_empty_samples_rejected(self):
        with pytest.raises(GraphConstructionError):
            JoinGraph({})

    def test_unknown_source_instance_rejected(self, tables):
        with pytest.raises(GraphConstructionError):
            JoinGraph(tables, source_instances=["nope"])

    def test_as_vertex_count(self, join_graph):
        # orders: 2 attrs -> 1; customers: 3 -> 4; nations: 2 -> 1; isolated: 1 -> 0
        assert join_graph.num_as_vertices() == 1 + 4 + 1 + 0

    def test_describe(self, join_graph):
        info = join_graph.describe()
        assert info["num_instances"] == 4
        assert info["num_i_edges"] == 2


class TestPropertyFourOne:
    def test_same_join_attributes_share_weight(self):
        """AS-edges over the same instance pair and join attributes share the weight
        map, so the graph stores one weight per (pair, attribute set)."""
        left = Table.from_rows("l", ["j", "k", "a"], [(i % 3, i % 4, i) for i in range(30)])
        right = Table.from_rows("r", ["j", "k", "b"], [(i % 3, i % 4, -i) for i in range(20)])
        graph = JoinGraph([left, right], max_join_attribute_size=2)
        edge = graph.edge("l", "r")
        assert frozenset({"j"}) in edge.weights
        assert frozenset({"k"}) in edge.weights
        assert frozenset({"j", "k"}) in edge.weights
        # the I-edge weight is the minimum over the per-attribute-set weights
        assert edge.weight == min(edge.weights.values())
        assert edge.best_join_attributes in edge.weights

    def test_join_attribute_choices_sorted_by_weight(self):
        left = Table.from_rows("l", ["j", "k", "a"], [(i % 3, i % 10, i) for i in range(30)])
        right = Table.from_rows("r", ["j", "k", "b"], [(i % 3, i, -i) for i in range(20)])
        graph = JoinGraph([left, right], max_join_attribute_size=1)
        choices = graph.edge("l", "r").join_attribute_choices()
        weights = [graph.edge("l", "r").weights[c] for c in choices]
        assert weights == sorted(weights)
        assert graph.edge("l", "r").join_attribute_choices() is choices  # sorted once


class TestInstanceServices:
    def test_instances_with_attribute(self, join_graph):
        assert join_graph.instances_with_attribute("custkey") == ("customers", "orders")
        assert join_graph.instances_with_attribute("missing") == ()

    def test_price_of_projection(self, join_graph):
        assert join_graph.price_of("customers", ["custkey", "segment"]) == 2.0

    def test_source_instances_are_free(self, tables):
        graph = JoinGraph(tables, pricing=FlatAttributePricingModel(1.0), source_instances=["orders"])
        assert graph.price_of("orders", ["custkey"]) == 0.0

    def test_sample_lookup(self, join_graph, tables):
        assert join_graph.sample("orders") is tables[0]
        with pytest.raises(GraphConstructionError):
            join_graph.sample("nope")

    def test_add_instance_updates_edges(self, join_graph):
        suppliers = Table.from_rows(
            "suppliers", ["nationkey", "sname"], [(i % 3, f"s{i}") for i in range(6)]
        )
        join_graph.add_instance(suppliers)
        assert "suppliers" in join_graph
        assert join_graph.has_edge("suppliers", "nations")
        assert join_graph.has_edge("suppliers", "customers")

    def test_add_instance_replaces_existing(self, join_graph):
        replacement = Table.from_rows("isolated", ["custkey"], [(1,)])
        join_graph.add_instance(replacement)
        assert join_graph.has_edge("isolated", "orders")

    def test_evaluations_on_the_samples_read_the_graphs_weights(self, join_graph, tables):
        own = {table.name: join_graph.sample(table.name) for table in tables[:2]}
        assert join_graph.ji_cache_for(own) is join_graph.ji_cache_for({})
        assert join_graph.ji_cache_for(own) == join_graph.ji_weights()
        copy = Table.from_rows("orders", ["custkey", "amount"], list(tables[0].iter_rows()))
        foreign = join_graph.ji_cache_for({"orders": copy, "customers": own["customers"]})
        assert foreign == {}
        assert foreign is not join_graph.ji_cache_for(own)
