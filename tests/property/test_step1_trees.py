"""Property tests: Step 1 from the join graph's cached trees equals the per-search build.

:func:`~repro.graph.steiner.minimal_weight_igraphs` reads every landmark and
terminal-hub path from the join graph's per-node shortest-path trees
(:meth:`~repro.graph.join_graph.JoinGraph.shortest_paths`), which live until
the graph's next revision.  The reference below is the construction it
replaced: a :class:`~repro.graph.landmarks.LandmarkIndex` built per search for
the landmark hubs, and one ``nx.dijkstra_path`` per terminal hub and
terminal.  On generated weighted I-layers, with tied weights, unreachable
terminals and α cuts, both must return the same candidates or raise the same
error, for several landmark seeds served from one set of warm trees.
"""

from __future__ import annotations

import math
import pickle
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.landmarks import LandmarkIndex
from repro.graph.steiner import IGraph, _subgraph_from_paths, minimal_weight_igraphs
from repro.relational.table import Table


# ------------------------------------------------------------------ reference
def reference_igraphs(
    join_graph: JoinGraph,
    terminal_instances,
    *,
    num_landmarks: int,
    max_weight: float,
    landmark_seed: int,
) -> list[IGraph]:
    """Step 1 as it was built per search: a landmark index plus Dijkstra per hub."""
    if not terminal_instances:
        raise SearchError("Step 1 needs at least one terminal instance")
    unknown = [name for name in terminal_instances if name not in join_graph]
    if unknown:
        raise SearchError(f"terminal instances not in the join graph: {unknown}")
    graph = join_graph.igraph
    terminals = sorted(set(terminal_instances))
    if len(terminals) == 1:
        return [IGraph((terminals[0],), (), 0.0)]
    index = LandmarkIndex(graph, num_landmarks=num_landmarks, landmark_seed=landmark_seed)
    candidates: dict[tuple[str, ...], IGraph] = {}
    found_connected = False
    for hub in list(index.landmarks) + terminals:
        paths = []
        for terminal in terminals:
            if hub in index.landmarks:
                path = index.path_to_landmark(terminal, hub)
            else:
                try:
                    path = nx.dijkstra_path(graph, hub, terminal, weight="weight")
                except nx.NetworkXNoPath:
                    path = []
            if not path:
                break
            paths.append(path)
        else:
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


def outcome(step1, join_graph: JoinGraph, terminals, **kwargs):
    """The candidates Step 1 returns, or the type and text of what it raises."""
    try:
        return step1(join_graph, terminals, **kwargs)
    except (SearchError, InfeasibleAcquisitionError) as error:
        return type(error), str(error)


# ------------------------------------------------------------------ scenarios
#: I-edge weights; few values, so equal-weight paths (ties) are common.
WEIGHTS = [0.0, 0.25, 0.5, 1.0]


def tables_for(size: int, edges) -> dict[str, Table]:
    """Tables ``n0..n<size-1>``; each pair in ``edges`` shares one key column."""
    columns: dict[str, dict[str, list]] = {
        f"n{node}": {f"v{node}": [0, 1]} for node in range(size)
    }
    for left, right in edges:
        for node in (left, right):
            columns[f"n{node}"][f"k{left}_{right}"] = [node % 2, 1]
    return {
        name: Table.from_rows(name, list(cols), list(zip(*cols.values())))
        for name, cols in columns.items()
    }


@st.composite
def weighted_graphs(draw):
    """A join graph of 2-7 instances whose I-edges carry drawn weights.

    Some instances may share no attribute with any other, so a terminal can
    be unreachable.  The drawn weights replace the JI weights on the I-layer
    before any tree is built."""
    size = draw(st.integers(min_value=2, max_value=7))
    pairs = list(combinations(range(size), 2))
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=size - 2, max_size=len(pairs))
    )
    join_graph = JoinGraph(tables_for(size, edges), max_join_attribute_size=1)
    for left, right in edges:
        join_graph.igraph[f"n{left}"][f"n{right}"]["weight"] = draw(st.sampled_from(WEIGHTS))
    return join_graph


@st.composite
def step1_cases(draw):
    join_graph = draw(weighted_graphs())
    names = sorted(join_graph.instance_names)
    terminals = draw(
        st.lists(st.sampled_from(names), min_size=2, max_size=4, unique=True)
        | st.lists(st.sampled_from(names), min_size=1, max_size=1)
    )
    return dict(
        join_graph=join_graph,
        terminals=terminals,
        num_landmarks=draw(st.integers(min_value=0, max_value=5)),
        max_weight=draw(st.sampled_from([math.inf, 0.0, 0.25, 0.5, 1.0, 2.0])),
        seeds=draw(
            st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4)
        ),
    )


class TestCachedTreesMatchThePerSearchBuild:
    @settings(max_examples=300, deadline=None)
    @given(step1_cases())
    def test_step1_returns_what_the_landmark_index_and_dijkstra_return(self, case):
        join_graph = case["join_graph"]
        for seed in case["seeds"]:
            kwargs = dict(
                num_landmarks=case["num_landmarks"],
                max_weight=case["max_weight"],
                landmark_seed=seed,
            )
            expected = outcome(reference_igraphs, join_graph, case["terminals"], **kwargs)
            got = outcome(minimal_weight_igraphs, join_graph, case["terminals"], **kwargs)
            assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(weighted_graphs())
    def test_each_tree_is_the_single_source_dijkstra_tree(self, join_graph):
        graph = join_graph.igraph
        for source in join_graph.instance_names:
            tree = join_graph.shortest_paths(source)
            assert tree == nx.single_source_dijkstra(graph, source, weight="weight")[1]
            for target, path in tree.items():
                assert path == nx.dijkstra_path(graph, source, target, weight="weight")
            # A second call serves the same tree.
            assert join_graph.shortest_paths(source) is tree


class TestTreesLiveForOneRevision:
    def chain(self) -> JoinGraph:
        """``n0 - n1 - n2``; ``n3`` joins nothing until it is replaced."""
        return JoinGraph(tables_for(4, [(0, 1), (1, 2)]), max_join_attribute_size=1)

    def test_add_instance_drops_the_trees(self):
        join_graph = self.chain()
        warm = {
            name: dict(join_graph.shortest_paths(name)) for name in join_graph.instance_names
        }
        assert "n3" not in warm["n0"]
        revision = join_graph.revision
        # Replace n3 with a table that joins n2, and add n4 joining n0 and n3.
        join_graph.add_instance(Table.from_rows("n3", ["k1_2", "k3_4"], [(0, 1), (1, 1)]))
        join_graph.add_instance(Table.from_rows("n4", ["k0_1", "k3_4"], [(0, 1), (1, 0)]))
        assert join_graph.revision == revision + 2
        graph = join_graph.igraph
        for source in join_graph.instance_names:
            expected = nx.single_source_dijkstra(graph, source, weight="weight")[1]
            assert join_graph.shortest_paths(source) == expected
        assert set(join_graph.shortest_paths("n0")) == {"n0", "n1", "n2", "n3", "n4"}

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_step1_after_add_instance_equals_a_fresh_graph(self, seed):
        join_graph = self.chain()
        minimal_weight_igraphs(join_graph, ["n0", "n2"], landmark_seed=seed)
        table = Table.from_rows("n4", ["k0_1", "k1_2", "v4"], [(0, 1, 0), (1, 1, 1)])
        join_graph.add_instance(table)
        fresh = JoinGraph(join_graph.instance_tables(), max_join_attribute_size=1)
        for terminals in (["n0", "n2"], ["n0", "n4"], ["n2", "n3"]):
            assert outcome(
                minimal_weight_igraphs, join_graph, terminals, landmark_seed=seed
            ) == outcome(minimal_weight_igraphs, fresh, terminals, landmark_seed=seed)

    def test_a_pickled_graph_leaves_its_trees_behind(self):
        join_graph = self.chain()
        for name in join_graph.instance_names:
            join_graph.shortest_paths(name)
        restored = pickle.loads(pickle.dumps(join_graph))
        assert restored._paths == {}
        assert len(join_graph._paths) == len(join_graph)
        assert restored.shortest_paths("n0") == join_graph.shortest_paths("n0")
