"""Tests for the multi-candidate Step 1 output (minimal_weight_igraphs)."""

from __future__ import annotations

import pytest

from repro.exceptions import InfeasibleAcquisitionError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import minimal_weight_igraph, minimal_weight_igraphs
from repro.relational.table import Table


@pytest.fixture
def diamond_graph() -> JoinGraph:
    """Two alternative routes from ``left`` to ``right``: via ``top`` or ``bottom``."""
    left = Table.from_rows("left", ["a", "b", "payload"], [(i % 4, i % 6, i) for i in range(40)])
    top = Table.from_rows("top", ["a", "c"], [(i, i % 2) for i in range(4)])
    bottom = Table.from_rows("bottom", ["b", "c"], [(i, i % 2) for i in range(6)])
    right = Table.from_rows("right", ["c", "label"], [(i, f"l{i}") for i in range(2)])
    return JoinGraph([left, top, bottom, right])


class TestMultipleIGraphs:
    def test_returns_multiple_distinct_candidates(self, diamond_graph):
        igraphs = minimal_weight_igraphs(diamond_graph, ["left", "right"], landmark_seed=0)
        assert len(igraphs) >= 2
        node_sets = {igraph.nodes for igraph in igraphs}
        assert len(node_sets) == len(igraphs)
        for igraph in igraphs:
            assert igraph.contains_all(["left", "right"])

    def test_sorted_by_weight(self, diamond_graph):
        igraphs = minimal_weight_igraphs(diamond_graph, ["left", "right"], landmark_seed=0)
        weights = [igraph.total_weight for igraph in igraphs]
        assert weights == sorted(weights)

    def test_singular_wrapper_returns_lightest(self, diamond_graph):
        igraphs = minimal_weight_igraphs(diamond_graph, ["left", "right"], landmark_seed=3)
        single = minimal_weight_igraph(diamond_graph, ["left", "right"], landmark_seed=3)
        assert single == igraphs[0]

    def test_alpha_filters_candidates(self, diamond_graph):
        unfiltered = minimal_weight_igraphs(diamond_graph, ["left", "right"], landmark_seed=0)
        cutoff = unfiltered[0].total_weight + 1e-9
        filtered = minimal_weight_igraphs(
            diamond_graph, ["left", "right"], max_weight=cutoff, landmark_seed=0
        )
        assert all(igraph.total_weight <= cutoff for igraph in filtered)
        assert len(filtered) <= len(unfiltered)

    def test_alpha_below_everything_raises(self, diamond_graph):
        lightest = minimal_weight_igraphs(diamond_graph, ["left", "right"], landmark_seed=0)[0]
        if lightest.total_weight > 0:
            with pytest.raises(InfeasibleAcquisitionError):
                minimal_weight_igraphs(
                    diamond_graph,
                    ["left", "right"],
                    max_weight=lightest.total_weight / 2,
                    landmark_seed=0,
                )

    def test_single_terminal_single_candidate(self, diamond_graph):
        igraphs = minimal_weight_igraphs(diamond_graph, ["left"], landmark_seed=0)
        assert len(igraphs) == 1
        assert igraphs[0].nodes == ("left",)
