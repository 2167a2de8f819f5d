"""Step 1 of the online search: minimal-weight I-layer graphs (Section 5.1).

Given the I-layer of the join graph and the source / target instance vertices,
Step 1 builds, for each landmark, the union of the (approximate) shortest
weighted paths connecting every source/target vertex to the landmark; the
result is a Steiner-tree-like connected subgraph of minimal total weight.  If
the best subgraph's total weight exceeds the shopper's α threshold there is no
feasible target graph and the search reports infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import networkx as nx

from repro.exceptions import InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.landmarks import canonical_landmark_seed, draw_landmarks


@dataclass(frozen=True)
class IGraph:
    """A connected I-layer subgraph produced by Step 1."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    total_weight: float

    @property
    def size(self) -> int:
        """Number of I-vertices (the quantity reported in Figure 5(b))."""
        return len(self.nodes)

    def contains_all(self, names: Iterable[str]) -> bool:
        node_set = set(self.nodes)
        return all(name in node_set for name in names)


def _subgraph_from_paths(graph: nx.Graph, paths: Sequence[Sequence[str]]) -> IGraph:
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    total = 0.0
    for path in paths:
        nodes.update(path)
        for left, right in zip(path, path[1:]):
            key = tuple(sorted((left, right)))
            if key in edges:
                continue
            edges.add(key)
            data = graph.get_edge_data(left, right) or {}
            total += data.get("weight", 1.0)
    return IGraph(tuple(sorted(nodes)), tuple(sorted(edges)), total)


def minimal_weight_igraphs(
    join_graph: JoinGraph,
    terminal_instances: Sequence[str],
    *,
    num_landmarks: int = 4,
    max_weight: float = float("inf"),
    landmark_seed: int | None = None,
) -> list[IGraph]:
    """Find candidate minimal-weight I-layer subgraphs containing all terminals.

    One candidate subgraph is built per hub (each landmark plus each terminal):
    the union of the shortest weighted paths from every terminal to that hub.
    Candidates violating the α threshold are dropped; the survivors are
    returned ordered by total weight (lightest first), de-duplicated by vertex
    set.  Step 2 of the online search explores the AS-layer of the lightest
    few of these.

    The landmarks are :func:`~repro.graph.landmarks.draw_landmarks` of the
    join graph's vertices, and every path is read from the hub's
    shortest-path tree, which the join graph computes once per revision
    (:meth:`~repro.graph.join_graph.JoinGraph.shortest_paths`).  A tree's
    path equals the one ``nx.dijkstra_path`` returns, so a warm tree serves
    the candidates a per-search :class:`~repro.graph.landmarks.LandmarkIndex`
    plus a Dijkstra search per terminal hub would build.

    The result is a pure function of ``(terminal set, max_weight,
    num_landmarks, landmark_seed, join graph)`` — landmark selection is seeded
    by the integer ``landmark_seed`` (``None`` means 0; a mutable
    ``random.Random`` is rejected, see
    :func:`repro.graph.landmarks.canonical_landmark_seed`).  This purity is
    part of what makes a served answer a pure function of its request, its
    seed and the join graph, which the acquisition service's answer memo
    relies on.

    Raises
    ------
    SearchError
        When no terminal is given, a terminal is not in the join graph, or
        ``num_landmarks < 1``, whatever the number of terminals.
    InfeasibleAcquisitionError
        When no connected subgraph contains all terminals, or every connected
        candidate exceeds ``max_weight``.
    """
    if not terminal_instances:
        raise SearchError("Step 1 needs at least one terminal instance")
    unknown = [name for name in terminal_instances if name not in join_graph]
    if unknown:
        raise SearchError(f"terminal instances not in the join graph: {unknown}")
    landmark_seed = canonical_landmark_seed(landmark_seed)

    graph = join_graph.igraph
    # Drawn before the one-terminal answer, so a bad landmark count is
    # refused whatever the number of terminals.
    landmarks = draw_landmarks(graph.nodes, num_landmarks, landmark_seed)
    terminals = sorted(set(terminal_instances))
    if len(terminals) == 1:
        return [IGraph((terminals[0],), (), 0.0)]

    candidates: dict[tuple[str, ...], IGraph] = {}
    # Also consider each terminal itself as a "landmark": connecting everything
    # through a terminal is often the lightest option on small marketplaces and
    # costs nothing extra (shortest paths to terminals fall out of Dijkstra).
    found_connected = False
    for hub in landmarks + tuple(terminals):
        tree = join_graph.shortest_paths(hub)
        paths = [tree.get(terminal) for terminal in terminals]
        if None in paths:
            continue
        candidate = _subgraph_from_paths(graph, paths)
        if not candidate.contains_all(terminals):
            continue
        found_connected = True
        if candidate.total_weight > max_weight:
            continue
        existing = candidates.get(candidate.nodes)
        if existing is None or candidate.total_weight < existing.total_weight:
            candidates[candidate.nodes] = candidate

    if not candidates:
        if found_connected:
            raise InfeasibleAcquisitionError(
                f"every I-graph connecting {terminals} exceeds the "
                f"join-informativeness threshold {max_weight:.4f}"
            )
        raise InfeasibleAcquisitionError(
            f"no connected I-layer subgraph contains all of {terminals}"
        )
    return sorted(candidates.values(), key=lambda ig: (ig.total_weight, ig.size, ig.nodes))


def minimal_weight_igraph(
    join_graph: JoinGraph,
    terminal_instances: Sequence[str],
    *,
    num_landmarks: int = 4,
    max_weight: float = float("inf"),
    landmark_seed: int | None = None,
) -> IGraph:
    """The single lightest I-graph (see :func:`minimal_weight_igraphs`)."""
    return minimal_weight_igraphs(
        join_graph,
        terminal_instances,
        num_landmarks=num_landmarks,
        max_weight=max_weight,
        landmark_seed=landmark_seed,
    )[0]


def igraph_join_order(igraph: IGraph, start: str | None = None) -> list[str]:
    """A join order for the I-graph: a BFS/DFS traversal that keeps each prefix connected."""
    if not igraph.nodes:
        return []
    adjacency: dict[str, list[str]] = {node: [] for node in igraph.nodes}
    for left, right in igraph.edges:
        adjacency[left].append(right)
        adjacency[right].append(left)
    for neighbors in adjacency.values():
        neighbors.sort()
    root = start if start in adjacency else igraph.nodes[0]
    order: list[str] = []
    visited: set[str] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        order.append(node)
        for neighbor in reversed(adjacency[node]):
            if neighbor not in visited:
                stack.append(neighbor)
    # isolated nodes (possible when the igraph is a single vertex) come last
    for node in igraph.nodes:
        if node not in visited:
            order.append(node)
    return order
