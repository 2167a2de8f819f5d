"""Tests for Step 1: minimal-weight I-layer subgraphs."""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import igraph_join_order, minimal_weight_igraph
from repro.relational.table import Table


@pytest.fixture
def chain_graph() -> JoinGraph:
    """orders - customers - nations - regions chain, plus an isolated table."""
    # custkey ranges over 0..6 while customers only hold 0..4, so some order
    # rows have no matching customer and the edge's join informativeness is > 0
    orders = Table.from_rows("orders", ["custkey", "amount"], [(i % 7, float(i)) for i in range(30)])
    customers = Table.from_rows(
        "customers", ["custkey", "nationkey"], [(i, i % 3) for i in range(5)]
    )
    nations = Table.from_rows("nations", ["nationkey", "regionkey"], [(i, i % 2) for i in range(3)])
    regions = Table.from_rows("regions", ["regionkey", "rname"], [(i, f"r{i}") for i in range(2)])
    lonely = Table.from_rows("lonely", ["zzz"], [(1,)])
    return JoinGraph([orders, customers, nations, regions, lonely])


class TestMinimalWeightIGraph:
    def test_connects_terminals(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "regions"], landmark_seed=0)
        assert igraph.contains_all(["orders", "regions"])
        # the chain is the only way to connect them
        assert set(igraph.nodes) == {"orders", "customers", "nations", "regions"}
        assert igraph.size == 4

    def test_single_terminal(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders"], landmark_seed=0)
        assert igraph.nodes == ("orders",)
        assert igraph.total_weight == 0.0

    def test_adjacent_terminals_use_direct_edge(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "customers"], landmark_seed=0)
        assert set(igraph.nodes) == {"orders", "customers"}
        assert igraph.total_weight == pytest.approx(
            chain_graph.edge("orders", "customers").weight
        )

    def test_unreachable_terminals_raise(self, chain_graph):
        with pytest.raises(InfeasibleAcquisitionError):
            minimal_weight_igraph(chain_graph, ["orders", "lonely"], landmark_seed=0)

    def test_weight_threshold_enforced(self, chain_graph):
        with pytest.raises(InfeasibleAcquisitionError):
            minimal_weight_igraph(
                chain_graph, ["orders", "regions"], max_weight=0.0, landmark_seed=0
            )

    def test_unknown_terminal_rejected(self, chain_graph):
        with pytest.raises(SearchError):
            minimal_weight_igraph(chain_graph, ["orders", "nope"], landmark_seed=0)

    def test_empty_terminals_rejected(self, chain_graph):
        with pytest.raises(SearchError):
            minimal_weight_igraph(chain_graph, [], landmark_seed=0)

    def test_total_weight_matches_edges(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "regions"], landmark_seed=0)
        expected = sum(
            chain_graph.edge(left, right).weight for left, right in igraph.edges
        )
        assert igraph.total_weight == pytest.approx(expected)

    def test_deterministic_for_seed(self, chain_graph):
        first = minimal_weight_igraph(chain_graph, ["orders", "regions"], landmark_seed=5)
        second = minimal_weight_igraph(chain_graph, ["orders", "regions"], landmark_seed=5)
        assert first == second

    def test_mutable_random_stream_rejected(self, chain_graph):
        import random

        with pytest.raises(SearchError, match="prior draws"):
            minimal_weight_igraph(
                chain_graph, ["orders", "regions"], landmark_seed=random.Random(0)
            )
        with pytest.raises(SearchError, match="must be an int"):
            minimal_weight_igraph(chain_graph, ["orders", "regions"], landmark_seed="5")

    @pytest.mark.parametrize("terminals", [["orders", "orders"], ["orders", "regions"]])
    def test_a_bad_landmark_count_is_refused_for_any_terminals(self, chain_graph, terminals):
        """One terminal used to return before the landmark count was checked."""
        with pytest.raises(SearchError, match="num_landmarks"):
            minimal_weight_igraph(chain_graph, terminals, num_landmarks=0)


class TestJoinOrder:
    def test_order_keeps_prefixes_connected(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "regions"], landmark_seed=0)
        order = igraph_join_order(igraph)
        assert set(order) == set(igraph.nodes)
        adjacency = {frozenset(edge) for edge in igraph.edges}
        placed = {order[0]}
        for name in order[1:]:
            assert any(frozenset((name, prev)) in adjacency for prev in placed)
            placed.add(name)

    def test_start_node_honoured(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "regions"], landmark_seed=0)
        order = igraph_join_order(igraph, start="orders")
        assert order[0] == "orders"

    def test_empty_igraph(self):
        from repro.graph.steiner import IGraph

        assert igraph_join_order(IGraph((), (), 0.0)) == []
