"""Property tests: the MCMC walk matches a reference that rebuilds every proposal.

:func:`~repro.search.mcmc.mcmc_search` serves a repeated proposal from two
walk-local tables: a move table of each edge's alternatives and a transition
memo of the graphs already proposed.  The reference below is the walk they
replaced: every proposal looks its edge up in the join graph, builds a fresh
graph with a two-construction ``replace_edge``, and recomputes the signature.
On generated join graphs both walks must return the same result, leave the
same evaluation memo behind, and leave the re-sampling hook in the same state.
"""

from __future__ import annotations

import pickle
import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraph
from repro.pricing.models import FlatAttributePricingModel
from repro.quality.fd import FunctionalDependency
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy
from repro.search.mcmc import MCMCConfig, MCMCResult, mcmc_search


# ------------------------------------------------------------------ references
def reference_signature(graph: TargetGraph) -> tuple:
    return (
        tuple(graph.nodes),
        tuple(tuple(sorted(edge)) for edge in graph.edges),
        tuple(graph.parents),
        tuple(tuple(sorted(graph.projections[name])) for name in graph.nodes),
    )


def reference_required(graph: TargetGraph, node_index: int) -> set[str]:
    """Join attributes ``nodes[node_index]`` participates in, one node at a time."""
    required: set[str] = set()
    for edge_index, edge in enumerate(graph.edges):
        if edge_index + 1 == node_index or graph.parents[edge_index] == node_index:
            required |= set(edge)
    return required


def reference_replace_edge(graph: TargetGraph, index: int, attributes) -> TargetGraph:
    """Build the edge-swapped graph, then build it again with re-derived projections."""
    new_edges = list(graph.edges)
    new_edges[index] = frozenset(attributes)
    replacement = TargetGraph(
        nodes=list(graph.nodes),
        edges=new_edges,
        parents=list(graph.parents),
        projections={},
        source_instances=graph.source_instances,
    )
    projections = {}
    for node_index, name in enumerate(graph.nodes):
        old_required = reference_required(graph, node_index)
        extras = set(graph.projections[name]) - old_required
        new_required = reference_required(replacement, node_index)
        projections[name] = frozenset(new_required | extras)
    return TargetGraph(
        nodes=list(graph.nodes),
        edges=new_edges,
        parents=list(graph.parents),
        projections=projections,
        source_instances=graph.source_instances,
    )


def reference_edge_swap(current, join_graph, rng):
    if not current.edges:
        return None
    index = rng.randrange(len(current.edges))
    left = current.nodes[current.parents[index]]
    right = current.nodes[index + 1]
    if not join_graph.has_edge(left, right):
        return None
    choices = join_graph.edge(left, right).join_attribute_choices()
    alternatives = [attrs for attrs in choices if attrs != current.edges[index]]
    if not alternatives:
        return None
    return reference_replace_edge(current, index, rng.choice(alternatives))


def reference_projection_flip(current, join_graph, wanted, rng):
    name = rng.choice(current.nodes)
    index = current.nodes.index(name)
    required = reference_required(current, index)
    schema_names = set(join_graph.sample(name).schema.names)
    required |= wanted & schema_names
    optional = sorted(schema_names - required)
    if not optional:
        return None
    attribute = rng.choice(optional)
    projection = set(current.projections[name])
    if attribute in projection:
        projection.discard(attribute)
    else:
        projection.add(attribute)
    projection |= required
    return current.with_projection(name, projection)


def reference_walk(
    join_graph,
    initial,
    tables,
    source,
    target,
    fds,
    *,
    budget,
    max_weight,
    min_quality,
    config,
    intermediate_hook,
    evaluation_cache,
) -> MCMCResult:
    rng = random.Random(config.seed)
    pricing = join_graph.pricing
    wanted = set(source) | set(target)
    ji_cache: dict = {}
    lineages: dict = {}
    result = MCMCResult(best_graph=None, best_evaluation=None)

    def evaluate(graph):
        signature = reference_signature(graph)
        cached = evaluation_cache.get(signature)
        if cached is not None:
            result.evaluation_cache_hits += 1
            return cached
        result.evaluation_cache_misses += 1
        evaluation = graph.evaluate(
            tables,
            source,
            target,
            fds,
            pricing,
            intermediate_hook=intermediate_hook,
            ji_cache=ji_cache,
            lineages=lineages,
        )
        if signature not in lineages:
            evaluation_cache[signature] = evaluation
        return evaluation

    def feasible(evaluation):
        return evaluation.satisfies(
            max_weight=max_weight, min_quality=min_quality, budget=budget
        )

    current = initial
    current_eval = evaluate(current)
    if feasible(current_eval):
        result.best_graph, result.best_evaluation = current, current_eval
        result.feasible_steps = 1
    for _ in range(config.iterations):
        result.iterations += 1
        proposal = None
        flip = config.projection_flip_probability
        if flip > 0 and rng.random() < flip:
            proposal = reference_projection_flip(current, join_graph, wanted, rng)
        if proposal is None:
            proposal = reference_edge_swap(current, join_graph, rng)
        if proposal is None:
            result.trace.append(current_eval.correlation)
            continue
        proposal_eval = evaluate(proposal)
        if not feasible(proposal_eval):
            result.trace.append(current_eval.correlation)
            continue
        result.feasible_steps += 1
        if current_eval.correlation <= 0:
            acceptance = 1.0
        else:
            acceptance = min(1.0, proposal_eval.correlation / current_eval.correlation)
        if rng.random() <= acceptance:
            current, current_eval = proposal, proposal_eval
            result.accepted_steps += 1
            if (
                result.best_evaluation is None
                or current_eval.correlation > result.best_evaluation.correlation
            ):
                result.best_graph, result.best_evaluation = current, current_eval
        result.trace.append(current_eval.correlation)
    return result


# ------------------------------------------------------------------ scenarios
key_values = st.sampled_from([0, 1, 2, None])


@st.composite
def trees(draw):
    """Node count and parents of a path or a tree of 2-4 nodes."""
    size = draw(st.integers(min_value=2, max_value=4))
    if draw(st.booleans()):
        return size, list(range(size - 1))
    return size, [draw(st.integers(min_value=0, max_value=i)) for i in range(size - 1)]


@st.composite
def walk_scenarios(draw):
    """Tables on a tree, their join graph, a starting graph and the walk's knobs.

    Edge ``i`` shares 1-3 key columns ``e<i>k<j>`` between its endpoints;
    with join attribute sets of up to two keys allowed, two keys give three
    choices.  Every node has a payload ``v<i>`` (``v0`` numeric) and an
    optional ``x<i>`` that projection flips toggle; ``x0 -> v0`` is the FD.
    One edge may be missing from the join graph, which then knows no
    alternative for it.
    """
    size, parents = draw(trees())
    max_size = draw(st.sampled_from([1, 2]))
    keys = [
        [f"e{edge}k{j}" for j in range(draw(st.integers(1, 3 if max_size == 1 else 2)))]
        for edge in range(size - 1)
    ]
    tables = {}
    for node in range(size):
        rows = draw(st.integers(min_value=1, max_value=8))
        columns = {}
        for edge, parent in enumerate(parents):
            if node in (parent, edge + 1):
                for key in keys[edge]:
                    columns[key] = draw(st.lists(key_values, min_size=rows, max_size=rows))
        payload = st.integers(0, 3) if node == 0 else st.sampled_from(["a", "b", "c"])
        columns[f"v{node}"] = draw(st.lists(payload, min_size=rows, max_size=rows))
        columns[f"x{node}"] = draw(st.lists(key_values, min_size=rows, max_size=rows))
        kinds = {"v0": AttributeType.NUMERICAL}
        attributes = [
            Attribute(name, kinds.get(name, AttributeType.CATEGORICAL)) for name in columns
        ]
        tables[f"t{node}"] = Table(f"t{node}", Schema(attributes), columns)
    names = list(tables)
    samples = dict(tables)
    missing = draw(st.none() | st.integers(min_value=0, max_value=size - 2))
    if missing is not None:
        child = names[missing + 1]
        samples[child] = tables[child].project(
            [a for a in tables[child].schema.names if a not in keys[missing]]
        )
    join_graph = JoinGraph(
        samples,
        pricing=FlatAttributePricingModel(),
        max_join_attribute_size=max_size,
        source_instances=["t0"],
    )
    edges = []
    for edge in range(size - 1):
        sets = [
            frozenset(c) for n in range(1, max_size + 1) for c in combinations(keys[edge], n)
        ]
        edges.append(draw(st.sampled_from(sets)))
    source, target = ["v0"], [f"v{size - 1}"]
    bare = TargetGraph(nodes=names, edges=edges, parents=parents)
    initial = TargetGraph(
        nodes=names,
        edges=edges,
        parents=parents,
        projections={
            name: bare.projections[name] | ({"v0", target[0]} & set(table.schema.names))
            for name, table in tables.items()
        },
        source_instances=frozenset({"t0"}),
    )
    hook = draw(st.sampled_from(["none", "idle", "fires"]))
    hook_args = None
    if hook != "none":
        threshold = 10_000 if hook == "idle" else draw(st.integers(0, 4))
        hook_args = dict(
            threshold=threshold,
            rate=draw(st.sampled_from([0.3, 0.5, 0.9])),
            seed=draw(st.integers(0, 5)),
        )
    return dict(
        join_graph=join_graph,
        initial=initial,
        tables=tables,
        source=source,
        target=target,
        fds=[FunctionalDependency("x0", "v0")],
        budget=draw(st.sampled_from([1e9, float(draw(st.integers(2, 10)))])),
        max_weight=draw(st.sampled_from([float("inf"), 0.9])),
        min_quality=draw(st.sampled_from([0.0, 0.5])),
        hook_args=hook_args,
        config=MCMCConfig(
            iterations=draw(st.integers(min_value=0, max_value=60)),
            seed=draw(st.integers(min_value=0, max_value=50)),
            projection_flip_probability=draw(st.sampled_from([0.0, 0.5])),
            record_trace=True,
        ),
    )


def hook_state(hook) -> tuple | None:
    return None if hook is None else (hook._rng.getstate(), hook.cumulative_scale)


def signature_or_none(graph) -> tuple | None:
    return None if graph is None else reference_signature(graph)


# ---------------------------------------------------------------------- tests
class TestWalkMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(walk_scenarios())
    def test_walk_returns_and_memoises_what_the_reference_does(self, scenario):
        names = ("join_graph", "initial", "tables", "source", "target", "fds")
        positional = [scenario[name] for name in names]
        constraints = {key: scenario[key] for key in ("budget", "max_weight", "min_quality")}
        runs = []
        for walk in (mcmc_search, reference_walk):
            args = scenario["hook_args"]
            hook = None if args is None else ResamplingPolicy(**args)
            cache: dict = {}
            result = walk(
                *positional,
                **constraints,
                config=scenario["config"],
                intermediate_hook=hook,
                evaluation_cache=cache,
            )
            runs.append((result, cache, hook_state(hook)))
        (walked, walked_cache, walked_hook), (expected, expected_cache, expected_hook) = runs
        assert signature_or_none(walked.best_graph) == signature_or_none(expected.best_graph)
        assert walked.best_evaluation == expected.best_evaluation
        assert walked.accepted_steps == expected.accepted_steps
        assert walked.feasible_steps == expected.feasible_steps
        assert walked.iterations == expected.iterations
        assert walked.evaluation_cache_hits == expected.evaluation_cache_hits
        assert walked.evaluation_cache_misses == expected.evaluation_cache_misses
        assert walked.trace == expected.trace
        assert walked_cache == expected_cache
        assert walked_hook == expected_hook


@st.composite
def graphs(draw):
    """A target graph on a generated tree with random edges and extra projections."""
    size, parents = draw(trees())
    nodes = [f"t{node}" for node in range(size)]
    pool = ["a", "b", "c", "d"]
    edges = [frozenset(draw(st.sets(st.sampled_from(pool), min_size=1))) for _ in parents]
    bare = TargetGraph(nodes=nodes, edges=edges, parents=parents)
    projections = {
        name: bare.projections[name] | draw(st.sets(st.sampled_from(["x", "y", "a"])))
        for name in nodes
    }
    return TargetGraph(nodes=nodes, edges=edges, parents=parents, projections=projections)


class TestTargetGraphPasses:
    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_one_pass_required_sets_match_the_per_node_scan(self, graph):
        assert graph.required_join_attributes == tuple(
            frozenset(reference_required(graph, index)) for index in range(len(graph.nodes))
        )

    @settings(max_examples=100, deadline=None)
    @given(graphs(), st.data())
    def test_replace_edge_matches_two_constructions(self, graph, data):
        index = data.draw(st.integers(0, len(graph.edges) - 1))
        attributes = data.draw(st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1))
        replaced = graph.replace_edge(index, attributes)
        expected = reference_replace_edge(graph, index, attributes)
        assert replaced == expected
        assert replaced.signature() == reference_signature(expected)

    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_cached_signature_survives_a_pickle_round_trip(self, graph):
        cached = graph.signature()
        restored = pickle.loads(pickle.dumps(graph))
        assert restored.signature() == cached == reference_signature(restored)
        assert restored == graph
