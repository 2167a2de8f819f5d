"""Tests for the landmark-based approximate shortest-path index."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.exceptions import SearchError
from repro.graph.landmarks import (
    LandmarkIndex,
    canonical_landmark_seed,
    derive_landmark_seed,
)


@pytest.fixture
def weighted_graph() -> nx.Graph:
    graph = nx.Graph()
    edges = [
        ("a", "b", 0.1),
        ("b", "c", 0.2),
        ("c", "d", 0.1),
        ("a", "d", 1.0),
        ("d", "e", 0.3),
        ("b", "e", 0.9),
    ]
    for left, right, weight in edges:
        graph.add_edge(left, right, weight=weight)
    graph.add_node("island")
    return graph


class TestConstruction:
    def test_landmark_count_capped_by_graph_size(self, weighted_graph):
        index = LandmarkIndex(weighted_graph, num_landmarks=50, landmark_seed=0)
        assert len(index.landmarks) == weighted_graph.number_of_nodes()

    def test_empty_graph_rejected(self):
        with pytest.raises(SearchError):
            LandmarkIndex(nx.Graph())

    def test_invalid_landmark_count(self, weighted_graph):
        with pytest.raises(SearchError):
            LandmarkIndex(weighted_graph, num_landmarks=0)

    def test_deterministic_with_seed(self, weighted_graph):
        first = LandmarkIndex(weighted_graph, num_landmarks=3, landmark_seed=7)
        second = LandmarkIndex(weighted_graph, num_landmarks=3, landmark_seed=7)
        assert first.landmarks == second.landmarks


class TestSeedNormalization:
    """Step-1 output must depend only on declared inputs (the memo contract)."""

    def test_canonical_seed_maps_none_to_zero(self):
        assert canonical_landmark_seed(None) == 0
        assert canonical_landmark_seed(17) == 17

    def test_mutable_random_stream_rejected(self, weighted_graph):
        with pytest.raises(SearchError, match="prior draws"):
            canonical_landmark_seed(random.Random(0))
        with pytest.raises(SearchError):
            LandmarkIndex(weighted_graph, landmark_seed=random.Random(0))

    def test_non_integer_seed_rejected(self):
        with pytest.raises(SearchError):
            canonical_landmark_seed("seven")

    def test_default_seed_is_declared_not_silent(self, weighted_graph):
        explicit = LandmarkIndex(weighted_graph, num_landmarks=3, landmark_seed=0)
        implicit = LandmarkIndex(weighted_graph, num_landmarks=3)
        assert implicit.landmarks == explicit.landmarks
        assert implicit.landmark_seed == 0

    def test_derived_seed_is_stable_and_domain_tagged(self):
        assert derive_landmark_seed(0) == derive_landmark_seed(0)
        # Distinct from the base seed and across bases: the landmark stream
        # never replays the MCMC proposal stream seeded from the same base.
        assert derive_landmark_seed(0) != 0
        assert derive_landmark_seed(0) != derive_landmark_seed(1)

    def test_index_ignores_prior_draws_entirely(self, weighted_graph):
        """Two indexes built mid-way through unrelated randomness agree."""
        random.seed(123)
        random.random()
        first = LandmarkIndex(weighted_graph, num_landmarks=3, landmark_seed=9)
        random.seed(456)
        for _ in range(10):
            random.random()
        second = LandmarkIndex(weighted_graph, num_landmarks=3, landmark_seed=9)
        assert first.landmarks == second.landmarks


class TestQueries:
    def test_estimate_is_upper_bound(self, weighted_graph):
        index = LandmarkIndex(weighted_graph, num_landmarks=6, landmark_seed=0)
        exact = nx.dijkstra_path_length(weighted_graph, "a", "e")
        assert index.estimate_distance("a", "e") >= exact - 1e-12

    def test_estimate_exact_when_all_nodes_are_landmarks(self, weighted_graph):
        index = LandmarkIndex(weighted_graph, num_landmarks=7, landmark_seed=1)
        exact = nx.dijkstra_path_length(weighted_graph, "a", "c")
        assert index.estimate_distance("a", "c") == pytest.approx(exact)

    def test_approximate_path_connects_endpoints(self, weighted_graph):
        index = LandmarkIndex(weighted_graph, num_landmarks=4, landmark_seed=2)
        path = index.approximate_path("a", "e")
        assert path[0] == "a"
        assert path[-1] == "e"
        # every consecutive pair is an actual edge
        for left, right in zip(path, path[1:]):
            assert weighted_graph.has_edge(left, right)

    def test_approximate_path_has_no_repeated_vertices(self, weighted_graph):
        index = LandmarkIndex(weighted_graph, num_landmarks=4, landmark_seed=3)
        path = index.approximate_path("a", "e")
        assert len(path) == len(set(path))

    def test_same_source_and_destination(self, weighted_graph):
        index = LandmarkIndex(weighted_graph, num_landmarks=2, landmark_seed=0)
        assert index.approximate_path("a", "a") == ["a"]

    def test_disconnected_vertex_unreachable(self, weighted_graph):
        index = LandmarkIndex(weighted_graph, num_landmarks=6, landmark_seed=0)
        assert index.estimate_distance("a", "island") == float("inf")
        assert index.approximate_path("a", "island") == []

    def test_path_weight(self, weighted_graph):
        index = LandmarkIndex(weighted_graph, num_landmarks=3, landmark_seed=0)
        assert index.path_weight(["a", "b", "c"]) == pytest.approx(0.3)
        assert index.path_weight(["a", "e"]) == float("inf")
