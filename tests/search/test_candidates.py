"""Tests for candidate generation: paths, initial target graphs, enumeration."""

from __future__ import annotations

import pytest

from repro.exceptions import SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import minimal_weight_igraph
from repro.relational.table import Table
from repro.search.candidates import (
    build_initial_target_graph,
    candidate_paths,
    enumerate_target_graphs,
    terminal_instances,
)


@pytest.fixture
def chain_graph() -> JoinGraph:
    orders = Table.from_rows(
        "orders", ["custkey", "totalprice"], [(i % 5, float(i)) for i in range(30)]
    )
    customers = Table.from_rows(
        "customers", ["custkey", "nationkey", "segment"], [(i, i % 3, f"s{i % 2}") for i in range(5)]
    )
    nations = Table.from_rows("nations", ["nationkey", "nname"], [(i, f"n{i}") for i in range(3)])
    return JoinGraph(
        [orders, customers, nations],
        source_instances=["orders"],
    )


class TestTerminalInstances:
    def test_source_prefers_owned_instances(self, chain_graph):
        sources, targets = terminal_instances(chain_graph, ["totalprice"], ["nname"])
        assert sources == ["orders"]
        assert targets == ["nations"]

    def test_missing_attribute_raises(self, chain_graph):
        with pytest.raises(SearchError):
            terminal_instances(chain_graph, ["missing"], ["nname"])
        with pytest.raises(SearchError):
            terminal_instances(chain_graph, ["totalprice"], ["missing"])

    def test_shared_instance_reused(self, chain_graph):
        sources, targets = terminal_instances(chain_graph, ["totalprice"], ["nname", "nationkey"])
        # nationkey appears in customers and nations; nations is already chosen
        assert targets == ["nations"]


class TestCandidatePaths:
    def test_paths_connect_source_to_target_instances(self, chain_graph):
        paths = candidate_paths(chain_graph, ["totalprice"], ["nname"])
        assert ["orders", "customers", "nations"] in paths

    def test_no_source_attributes_still_yields_paths(self, chain_graph):
        paths = candidate_paths(chain_graph, [], ["nname"])
        assert any(path[-1] == "nations" or path[0] == "nations" for path in paths)

    def test_max_paths_cap(self, chain_graph):
        paths = candidate_paths(chain_graph, ["totalprice"], ["nname"], max_paths=1)
        assert len(paths) == 1

    def test_single_instance_path_when_attributes_colocated(self, chain_graph):
        paths = candidate_paths(chain_graph, ["custkey"], ["segment"])
        assert ["customers"] in paths


class TestInitialTargetGraph:
    def test_covers_requested_attributes(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "nations"], landmark_seed=0)
        graph = build_initial_target_graph(chain_graph, igraph, ["totalprice"], ["nname"])
        provided = set()
        for name in graph.nodes:
            provided |= set(graph.projections[name])
        assert {"totalprice", "nname"} <= provided

    def test_edges_use_lightest_join_attributes(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "nations"], landmark_seed=0)
        graph = build_initial_target_graph(chain_graph, igraph, ["totalprice"], ["nname"])
        for parent, child, attrs in graph.edge_pairs():
            assert attrs == chain_graph.edge(parent, child).best_join_attributes

    def test_source_instances_carried_over(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "nations"], landmark_seed=0)
        graph = build_initial_target_graph(chain_graph, igraph, ["totalprice"], ["nname"])
        assert "orders" in graph.source_instances

    def test_joinable_on_samples(self, chain_graph):
        igraph = minimal_weight_igraph(chain_graph, ["orders", "nations"], landmark_seed=0)
        graph = build_initial_target_graph(chain_graph, igraph, ["totalprice"], ["nname"])
        tables = {name: chain_graph.sample(name) for name in graph.nodes}
        joined = graph.joined_table(tables)
        assert len(joined) > 0


class TestEnumeration:
    def test_enumerates_at_least_the_natural_path(self, chain_graph):
        graphs = list(enumerate_target_graphs(chain_graph, ["totalprice"], ["nname"]))
        assert graphs
        assert any(set(g.nodes) == {"orders", "customers", "nations"} for g in graphs)

    def test_all_candidates_cover_attributes(self, chain_graph):
        for graph in enumerate_target_graphs(chain_graph, ["totalprice"], ["nname"]):
            provided = set()
            for name in graph.nodes:
                provided |= set(chain_graph.sample(name).schema.names)
            assert {"totalprice", "nname"} <= provided

    def test_caps_respected(self, chain_graph):
        graphs = list(
            enumerate_target_graphs(
                chain_graph, ["totalprice"], ["nname"], max_paths=1, max_graphs_per_path=1
            )
        )
        assert len(graphs) <= 1

    def test_single_instance_candidate(self, chain_graph):
        graphs = list(enumerate_target_graphs(chain_graph, ["custkey"], ["segment"]))
        assert any(g.length == 1 and g.nodes == ["customers"] for g in graphs)
