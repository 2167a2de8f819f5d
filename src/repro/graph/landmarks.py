"""Landmark-based approximate shortest paths on the I-layer.

Step 1 of the online search (Section 5.1) extends the landmark / sketch-based
approximate shortest-path method of Gubichev et al.: a small set of I-vertices
is chosen as landmarks, the exact shortest weighted path from every vertex to
every landmark is pre-computed offline, and an (approximate) path between two
arbitrary vertices is obtained by concatenating their paths through the best
landmark.  The pre-computation is one Dijkstra per landmark, so queries run in
time logarithmic in the number of vertices (just a minimum over landmarks).
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence

import networkx as nx

from repro.exceptions import SearchError


def canonical_landmark_seed(landmark_seed: int | None) -> int:
    """Check a Step-1 landmark seed; ``None`` maps to the default seed 0.

    Step 1's output must depend only on declared inputs ``(terminal set,
    alpha, num_landmarks, landmark seed, graph version)``, so that a served
    answer is a pure function of its request, its seed and the join graph
    (the acquisition service's answer memo relies on it).  A caller-owned
    mutable ``random.Random`` breaks that: the landmarks drawn would depend
    on every prior draw from the shared stream, so such values are rejected
    rather than silently consumed, and so is any other value that is not an
    int.
    Every Step-1 entry point (``LandmarkIndex``, ``minimal_weight_igraphs``)
    checks its ``landmark_seed`` here.
    """
    if landmark_seed is None:
        return 0
    if isinstance(landmark_seed, random.Random):
        raise SearchError(
            "Step 1 takes an integer landmark seed, not a mutable random.Random: "
            "a shared stream would make the landmark choice depend on prior draws"
        )
    if isinstance(landmark_seed, int):
        return landmark_seed
    raise SearchError(
        f"landmark seed must be an int or None, got {type(landmark_seed).__name__}"
    )


def derive_landmark_seed(base_seed: int) -> int:
    """The canonical landmark seed derived from a search base seed.

    Domain-tagged blake2b, the same recipe as
    :func:`repro.search.chains.chain_seed` /
    :func:`repro.service.batch.request_seed` — stable across processes and
    Python versions, and independent of the MCMC proposal stream seeded from
    the same base (two fresh ``random.Random(seed)`` instances would replay
    identical draws).
    """
    digest = hashlib.blake2b(
        f"landmarks:{base_seed}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def draw_landmarks(
    nodes: Iterable[str], num_landmarks: int, landmark_seed: int
) -> tuple[str, ...]:
    """The landmarks of one seed: ``min(num_landmarks, |nodes|)`` of ``nodes``.

    One seeded draw from the sorted vertex names, so the choice depends only
    on ``(vertex set, num_landmarks, landmark_seed)``.  Step 1
    (:func:`repro.graph.steiner.minimal_weight_igraphs`) and
    :class:`LandmarkIndex` both draw through here.
    """
    ordered = sorted(nodes)
    if not ordered:
        raise SearchError("cannot draw landmarks from an empty graph")
    if num_landmarks < 1:
        raise SearchError(f"num_landmarks must be >= 1, got {num_landmarks}")
    k = min(num_landmarks, len(ordered))
    return tuple(random.Random(landmark_seed).sample(ordered, k))


class LandmarkIndex:
    """Pre-computed shortest paths from every vertex to a set of landmark vertices.

    Landmark selection is seeded by the integer ``landmark_seed`` (checked by
    :func:`canonical_landmark_seed`), so the index depends only on
    ``(graph, num_landmarks, landmark_seed)``.  The landmarks come from
    :func:`draw_landmarks`, and each one's paths are its single-source
    Dijkstra tree.  Step 1 builds no index: it draws the same landmarks and
    reads the same trees from the join graph's per-node cache
    (:meth:`repro.graph.join_graph.JoinGraph.shortest_paths`), which lives
    for a graph revision rather than a search.
    """

    def __init__(
        self,
        graph: nx.Graph,
        *,
        num_landmarks: int = 4,
        landmark_seed: int | None = None,
        weight: str = "weight",
    ) -> None:
        if graph.number_of_nodes() == 0:
            raise SearchError("cannot build a landmark index on an empty graph")
        self.landmark_seed = landmark_seed = canonical_landmark_seed(landmark_seed)

        self._graph = graph
        self._weight = weight
        self.landmarks: tuple[str, ...] = draw_landmarks(
            graph.nodes, num_landmarks, landmark_seed
        )

        # distances[l][v] and paths[l][v]: shortest path from landmark l to v.
        self._distances: dict[str, dict[str, float]] = {}
        self._paths: dict[str, dict[str, list[str]]] = {}
        for landmark in self.landmarks:
            distances, paths = nx.single_source_dijkstra(graph, landmark, weight=weight)
            self._distances[landmark] = distances
            self._paths[landmark] = paths

    # ------------------------------------------------------------------ access
    def distance_to_landmark(self, vertex: str, landmark: str) -> float:
        """Exact shortest distance from ``vertex`` to ``landmark`` (inf if disconnected)."""
        return self._distances.get(landmark, {}).get(vertex, float("inf"))

    def path_to_landmark(self, vertex: str, landmark: str) -> list[str]:
        """Shortest path from ``landmark`` to ``vertex`` ([] if disconnected)."""
        return list(self._paths.get(landmark, {}).get(vertex, []))

    # ----------------------------------------------------------------- queries
    def estimate_distance(self, source: str, destination: str) -> float:
        """Landmark upper bound on d(source, destination): min over landmarks of the detour."""
        best = float("inf")
        for landmark in self.landmarks:
            through = self.distance_to_landmark(source, landmark) + self.distance_to_landmark(
                destination, landmark
            )
            best = min(best, through)
        return best

    def approximate_path(self, source: str, destination: str) -> list[str]:
        """An approximate shortest path obtained by concatenating through the best landmark.

        The concatenated walk may visit a vertex twice; such cycles are removed
        (keeping the first occurrence), which can only shorten the path.
        Returns ``[]`` when the two vertices are not connected through any
        landmark.
        """
        if source == destination:
            return [source]
        best_landmark = None
        best_distance = float("inf")
        for landmark in self.landmarks:
            through = self.distance_to_landmark(source, landmark) + self.distance_to_landmark(
                destination, landmark
            )
            if through < best_distance:
                best_distance = through
                best_landmark = landmark
        if best_landmark is None or best_distance == float("inf"):
            return []
        to_source = self.path_to_landmark(source, best_landmark)
        to_destination = self.path_to_landmark(destination, best_landmark)
        walk = list(reversed(to_source)) + to_destination[1:]
        # remove cycles: keep the segment between the first and last occurrence collapse
        seen: dict[str, int] = {}
        cleaned: list[str] = []
        for vertex in walk:
            if vertex in seen:
                cleaned = cleaned[: seen[vertex] + 1]
            else:
                seen[vertex] = len(cleaned)
                cleaned.append(vertex)
                continue
            # re-index after truncation
            seen = {v: i for i, v in enumerate(cleaned)}
        return cleaned

    def path_weight(self, path: Sequence[str]) -> float:
        """Total weight of a path in the underlying graph."""
        total = 0.0
        for left, right in zip(path, path[1:]):
            data = self._graph.get_edge_data(left, right)
            if data is None:
                return float("inf")
            total += data.get(self._weight, 1.0)
        return total
