"""Turning I-layer subgraphs into concrete target-graph candidates.

A candidate target graph is a join order over a set of instances, a join
attribute set per adjacent pair, and a projection attribute set per instance.
These helpers are shared by the MCMC heuristic (which starts from one candidate
and perturbs it) and by the brute-force baselines (which enumerate all of them,
up to caps that keep the enumeration finite).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

import networkx as nx

from repro.exceptions import SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import IGraph, igraph_join_order
from repro.graph.target import TargetGraph, incident_join_attributes


def _instances_covering(
    join_graph: JoinGraph, attributes: Sequence[str]
) -> dict[str, tuple[str, ...]]:
    """Map each requested attribute to the instances whose schema contains it."""
    covering: dict[str, tuple[str, ...]] = {}
    for attribute in attributes:
        instances = join_graph.instances_with_attribute(attribute)
        covering[attribute] = instances
    return covering


def terminal_instances(
    join_graph: JoinGraph,
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
) -> tuple[list[str], list[str]]:
    """Pick one covering instance per source / target attribute (greedy, fewest first).

    Source attributes prefer instances the shopper already owns.  Raises
    :class:`SearchError` when an attribute is not available anywhere.
    """
    source_terminals: list[str] = []
    for attribute in source_attributes:
        candidates = join_graph.instances_with_attribute(attribute)
        if not candidates:
            raise SearchError(f"source attribute {attribute!r} not found in any instance")
        owned = [name for name in candidates if name in join_graph.source_instances]
        chosen = owned[0] if owned else candidates[0]
        if chosen not in source_terminals:
            source_terminals.append(chosen)
    target_terminals: list[str] = []
    for attribute in target_attributes:
        candidates = join_graph.instances_with_attribute(attribute)
        if not candidates:
            raise SearchError(f"target attribute {attribute!r} not found in any instance")
        # prefer an instance already chosen (fewer purchases), else the first
        already = [
            name
            for name in candidates
            if name in target_terminals or name in source_terminals
        ]
        chosen = already[0] if already else candidates[0]
        if chosen not in target_terminals:
            target_terminals.append(chosen)
    return source_terminals, target_terminals


def candidate_paths(
    join_graph: JoinGraph,
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
    *,
    max_path_length: int = 8,
    max_paths: int = 2000,
) -> list[list[str]]:
    """All simple I-layer paths from a source-covering to a target-covering instance.

    Used by the brute-force baselines.  Paths are enumerated between every pair
    of (instance containing a source attribute, instance containing a target
    attribute); each returned path covers all source and target attributes
    between its two endpoints plus intermediate instances contribute nothing
    but connectivity.  Enumeration stops after ``max_paths`` paths.
    """
    graph = join_graph.igraph
    source_cover = _instances_covering(join_graph, source_attributes)
    target_cover = _instances_covering(join_graph, target_attributes)
    source_instances = sorted({name for names in source_cover.values() for name in names})
    target_instances = sorted({name for names in target_cover.values() for name in names})
    if not source_attributes:
        source_instances = target_instances
    if not source_instances or not target_instances:
        return []

    paths: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    for source in source_instances:
        for target in target_instances:
            if source not in graph or target not in graph:
                continue
            if source == target:
                candidate = [source]
                key = (source,)
                if key not in seen:
                    seen.add(key)
                    paths.append(candidate)
                continue
            try:
                simple_paths = nx.all_simple_paths(
                    graph, source, target, cutoff=max_path_length - 1
                )
            except nx.NodeNotFound:
                continue
            for path in simple_paths:
                key = tuple(path)
                if key in seen:
                    continue
                seen.add(key)
                paths.append(list(path))
                if len(paths) >= max_paths:
                    return paths
    return paths


def _covers_attributes(
    join_graph: JoinGraph, path: Sequence[str], attributes: Sequence[str]
) -> bool:
    available: set[str] = set()
    for name in path:
        available.update(join_graph.sample(name).schema.names)
    return all(attribute in available for attribute in attributes)


def build_initial_target_graph(
    join_graph: JoinGraph,
    igraph: IGraph,
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
) -> TargetGraph:
    """The starting point of the MCMC walk: the I-graph with the lightest join attributes.

    The join order is a connected traversal of the I-graph; every instance
    after the first attaches to an already-placed instance it shares an I-edge
    with, using the join attribute set of minimal join informativeness.  Each
    projection contains the join attributes plus whichever source/target
    attributes the instance can provide.
    """
    order = igraph_join_order(igraph)
    if not order:
        raise SearchError("cannot build a target graph from an empty I-graph")
    edges: list[frozenset[str]] = []
    parents: list[int] = []
    igraph_edges = {frozenset(pair) for pair in igraph.edges}
    for position, right in enumerate(order[1:], start=1):
        previous = order[:position]
        # prefer an attachment that is an actual I-graph edge, else any I-edge
        attach_candidates = [
            p for p in previous if frozenset((p, right)) in igraph_edges
        ] or [p for p in previous if join_graph.has_edge(p, right)]
        if not attach_candidates:
            raise SearchError(
                f"instance {right!r} is not connected to the prefix {previous} of the join order"
            )
        parent = attach_candidates[-1]
        edge = join_graph.edge(parent, right)
        parents.append(order.index(parent))
        edges.append(edge.best_join_attributes)

    wanted = set(source_attributes) | set(target_attributes)
    required = incident_join_attributes(len(order), edges, parents)
    projections = {
        name: required[index] | (wanted & set(join_graph.sample(name).schema.names))
        for index, name in enumerate(order)
    }

    return TargetGraph(
        nodes=order,
        edges=edges,
        parents=parents,
        projections=projections,
        source_instances=frozenset(join_graph.source_instances),
    )


def enumerate_target_graphs(
    join_graph: JoinGraph,
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
    *,
    max_path_length: int = 8,
    max_paths: int = 500,
    max_graphs_per_path: int = 200,
) -> Iterator[TargetGraph]:
    """Exhaustively enumerate target-graph candidates (the brute-force search space).

    For every covering I-layer path, every combination of join attribute sets
    (one per edge, from the edge's weight map) is emitted as a candidate, with
    projections fixed to "join attributes + requested attributes available in
    the instance".  The per-path combination count is capped.
    """
    wanted = set(source_attributes) | set(target_attributes)
    for path in candidate_paths(
        join_graph,
        source_attributes,
        target_attributes,
        max_path_length=max_path_length,
        max_paths=max_paths,
    ):
        if not _covers_attributes(join_graph, path, list(wanted)):
            continue
        if len(path) == 1:
            name = path[0]
            schema_names = set(join_graph.sample(name).schema.names)
            projections = {name: frozenset(wanted & schema_names)}
            yield TargetGraph(
                nodes=[name],
                edges=[],
                projections=projections,
                source_instances=frozenset(join_graph.source_instances),
            )
            continue
        per_edge_choices: list[tuple[frozenset[str], ...]] = []
        for left, right in zip(path, path[1:]):
            if not join_graph.has_edge(left, right):
                per_edge_choices = []
                break
            per_edge_choices.append(join_graph.edge(left, right).join_attribute_choices())
        if not per_edge_choices:
            continue
        emitted = 0
        parents = list(range(len(path) - 1))
        for combination in product(*per_edge_choices):
            required = incident_join_attributes(len(path), combination, parents)
            projections = {
                name: required[index] | (wanted & set(join_graph.sample(name).schema.names))
                for index, name in enumerate(path)
            }
            yield TargetGraph(
                nodes=list(path),
                edges=list(combination),
                parents=list(parents),
                projections=projections,
                source_instances=frozenset(join_graph.source_instances),
            )
            emitted += 1
            if emitted >= max_graphs_per_path:
                break
