"""Property tests: the MCMC walk matches a reference that rebuilds every proposal.

:func:`~repro.search.mcmc.mcmc_search` serves a repeated proposal from two
walk-local tables: a move table of each edge's alternatives and a transition
memo of the graphs already proposed.  The reference below is the walk they
replaced: every proposal looks its edge up in the join graph, builds a fresh
graph with a two-construction ``replace_edge``, and recomputes the signature.
On generated join graphs both walks must return the same result, leave the
same evaluation memo behind, and leave the re-sampling hook in the same state.
The reference also runs every iteration of a walk whose start has no move
(no flips, no edge with an alternative), which ``mcmc_search`` stops early,
and of a walk without a trace that has evaluated every graph its edge swaps
can reach, which ``mcmc_search`` stops once no later step could change its
outcome; only its step counters may then fall short of the reference's.
The reference keeps its join lineages to itself, so a walk that replays
lineages another walk built and left in a shared
:func:`~repro.relational.joins.lineage_memo` must match it too.  Likewise,
walks that share one :class:`~repro.search.acquisition.WalkSpace`, and
searches that share one :class:`~repro.search.acquisition.WalkSpaceMemo`,
interleaved over seeds, hooks and requested attributes, must return what
walks and searches with private tables return.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import replace
from itertools import combinations
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleAcquisitionError
from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraph
from repro.memo import Memo
from repro.pricing.models import FlatAttributePricingModel
from repro.quality.fd import FunctionalDependency
from repro.relational.joins import lineage_memo
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy
from repro.search.acquisition import WalkSpaceMemo, heuristic_acquisition
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


def reference_replace_edge(
    graph: TargetGraph, index: int, attributes, keep=frozenset()
) -> TargetGraph:
    """Build the edge-swapped graph, then build it again with re-derived
    projections, which keep the attributes of ``keep`` they held."""
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
        extras |= set(graph.projections[name]) & set(keep)
        new_required = reference_required(replacement, node_index)
        projections[name] = frozenset(new_required | extras)
    return TargetGraph(
        nodes=list(graph.nodes),
        edges=new_edges,
        parents=list(graph.parents),
        projections=projections,
        source_instances=graph.source_instances,
    )


def reference_edge_swap(current, join_graph, wanted, rng):
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
    return reference_replace_edge(current, index, rng.choice(alternatives), wanted)


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
            proposal = reference_edge_swap(current, join_graph, wanted, rng)
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
def walk_scenarios(
    draw,
    dead: bool = False,
    hooks=("none", "idle", "fires"),
    flips=(0.0, 0.5),
    source_keys=(False, True),
    moving: bool = False,
    owned: bool = False,
    record_trace: bool = True,
    iterations: tuple[int, int] = (0, 60),
):
    """Tables on a tree, their join graph, a starting graph and the walk's knobs.

    Edge ``i`` shares 1-3 key columns ``e<i>k<j>`` between its endpoints;
    with join attribute sets of up to two keys allowed, two keys give three
    choices.  Every node has a payload ``v<i>`` (``v0`` numeric) and an
    optional ``x<i>`` that projection flips toggle; ``x0 -> v0`` is the FD.
    One edge may be missing from the join graph, which then knows no
    alternative for it.  A ``dead`` scenario gives every edge one key and
    one-key join attribute sets, so no edge has an alternative: without
    flips, the walk starts dead.  A ``moving`` one gives every edge two or
    more keys and misses none, so every edge has an alternative.  Otherwise
    the source ``v0`` may also be a key of edge 0, which a swap can then
    join on and swap away from.  An ``owned`` one misses no edge either, so
    the walk's tables are the join graph's own samples.  ``hooks`` are the
    hook kinds, ``flips`` the
    flip probabilities and ``source_keys`` the source-key choices to draw
    from; ``iterations`` bounds the walk's length.
    """
    size, parents = draw(trees())
    max_size = 1 if dead else draw(st.sampled_from([1, 2]))
    keys = [
        [
            f"e{edge}k{j}"
            for j in range(
                1 if dead else draw(st.integers(1 + moving, 3 if max_size == 1 else 2))
            )
        ]
        for edge in range(size - 1)
    ]
    if not dead and draw(st.sampled_from(source_keys)):
        keys[0].append("v0")
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
    missing = None if moving or owned else draw(st.none() | st.integers(0, size - 2))
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
    hook = draw(st.sampled_from(hooks))
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
            iterations=draw(st.integers(*iterations)),
            seed=draw(st.integers(min_value=0, max_value=50)),
            projection_flip_probability=draw(st.sampled_from(flips)),
            record_trace=record_trace,
        ),
    )


def hook_state(hook) -> tuple | None:
    return None if hook is None else (hook._rng.getstate(), hook.cumulative_scale)


def signature_or_none(graph) -> tuple | None:
    return None if graph is None else reference_signature(graph)


# ---------------------------------------------------------------------- tests
def walk_arguments(scenario) -> tuple[list, dict]:
    names = ("join_graph", "initial", "tables", "source", "target", "fds")
    positional = [scenario[name] for name in names]
    constraints = {key: scenario[key] for key in ("budget", "max_weight", "min_quality")}
    return positional, constraints


def new_hook(scenario) -> ResamplingPolicy | None:
    args = scenario["hook_args"]
    return None if args is None else ResamplingPolicy(**args)


def walk_and_reference(
    scenario, lineage_memo: Memo | None = None
) -> tuple[MCMCResult, MCMCResult]:
    """``mcmc_search``, handed ``lineage_memo``, and the reference walk on
    ``scenario``; both must leave the same evaluation memo and hook state."""
    positional, constraints = walk_arguments(scenario)
    runs = []
    for walk, shared in ((mcmc_search, {"lineage_memo": lineage_memo}), (reference_walk, {})):
        hook = new_hook(scenario)
        cache: dict = {}
        result = walk(
            *positional,
            **constraints,
            config=scenario["config"],
            intermediate_hook=hook,
            evaluation_cache=cache,
            **shared,
        )
        runs.append((result, cache, hook_state(hook)))
    (walked, walked_cache, walked_hook), (expected, expected_cache, expected_hook) = runs
    assert signature_or_none(walked.best_graph) == signature_or_none(expected.best_graph)
    assert walked.best_evaluation == expected.best_evaluation
    assert walked.iterations == expected.iterations
    assert walked.evaluation_cache_misses == expected.evaluation_cache_misses
    assert walked_cache == expected_cache
    assert walked_hook == expected_hook
    return walked, expected


def assert_walk_matches_reference(scenario, lineage_memo: Memo | None = None) -> None:
    """A walk that records its trace matches the reference step for step."""
    walked, expected = walk_and_reference(scenario, lineage_memo)
    assert walked.accepted_steps == expected.accepted_steps
    assert walked.feasible_steps == expected.feasible_steps
    assert walked.evaluation_cache_hits == expected.evaluation_cache_hits
    assert walked.trace == expected.trace


class TestWalkMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(walk_scenarios())
    def test_walk_returns_and_memoises_what_the_reference_does(self, scenario):
        assert_walk_matches_reference(scenario)

    @settings(max_examples=100, deadline=None)
    @given(walk_scenarios(dead=True))
    def test_dead_starts_return_what_the_reference_walk_does(self, scenario):
        """Without flips these walks stop after the initial evaluation; with
        flips they run the loop.  Either way the result, the trace, the memo
        and the hook are the reference walk's."""
        assert_walk_matches_reference(scenario)

    @settings(max_examples=100, deadline=None)
    @given(walk_scenarios(hooks=("fires",)), st.integers(min_value=0, max_value=50))
    def test_a_walk_replaying_another_walks_lineages_matches_the_reference(
        self, scenario, first_seed
    ):
        """A first walk, at another seed, fills a lineage memo; a second walk
        that shares it replays those lineages where the reference builds its
        own, and ends with the reference's result, counters, trace,
        evaluation memo and hook state."""
        positional, constraints = walk_arguments(scenario)
        memo = lineage_memo()
        mcmc_search(
            *positional,
            **constraints,
            config=replace(scenario["config"], seed=first_seed),
            intermediate_hook=new_hook(scenario),
            evaluation_cache={},
            lineage_memo=memo,
        )
        assert_walk_matches_reference(scenario, memo)
        assert memo.units == sum(memo.get(key).rows for key in memo.keys())

    @settings(max_examples=100, deadline=None)
    @given(walk_scenarios(owned=True))
    def test_a_walk_on_the_graphs_samples_reads_the_graphs_weights(self, scenario):
        """On the join graph's own samples a walk, with or without projection
        flips, weighs every edge from the graph's JI cache and computes no
        JI; the reference weighs through a private dict it fills, and the
        two still end alike."""
        positional, constraints = walk_arguments(scenario)
        join_graph = scenario["join_graph"]
        weights = join_graph.ji_weights()
        computed = AssertionError("the walk computed a JI weight")
        with mock.patch("repro.graph.target.join_informativeness", side_effect=computed):
            mcmc_search(
                *positional,
                **constraints,
                config=scenario["config"],
                intermediate_hook=new_hook(scenario),
                evaluation_cache={},
            )
        assert join_graph.ji_weights() == weights
        assert_walk_matches_reference(scenario)

    def test_a_walk_without_a_trace_stops_with_the_reference_outcome(self):
        """Without flips or a trace, a walk that has evaluated every graph its
        edge swaps can reach, none of them fired and none beating its best,
        stops there.  It returns the reference's best graph and evaluation,
        evaluation memo, hook state, iterations and misses, with no more
        hits, accepted steps or feasible steps; most of these walks stop
        early, and a stopped walk has fewer hits than the reference."""
        stopped = []

        @settings(max_examples=200, deadline=None)
        @given(
            walk_scenarios(
                flips=(0.0,),
                source_keys=(False,),
                moving=True,
                record_trace=False,
                iterations=(100, 300),
            )
        )
        def check(scenario):
            walked, expected = walk_and_reference(scenario)
            assert walked.evaluation_cache_hits <= expected.evaluation_cache_hits
            assert walked.accepted_steps <= expected.accepted_steps
            assert walked.feasible_steps <= expected.feasible_steps
            assert walked.trace == []
            stopped.append(walked.evaluation_cache_hits < expected.evaluation_cache_hits)

        check()
        assert any(stopped)


def start_for(scenario, target: list[str]) -> TargetGraph:
    """The scenario's start with projections for the source and ``target``."""
    initial = scenario["initial"]
    bare = TargetGraph(nodes=initial.nodes, edges=initial.edges, parents=initial.parents)
    wanted = set(scenario["source"]) | set(target)
    return TargetGraph(
        nodes=list(initial.nodes),
        edges=list(initial.edges),
        parents=list(initial.parents),
        projections={
            name: bare.projections[name]
            | (wanted & set(scenario["tables"][name].schema.names))
            for name in initial.nodes
        },
        source_instances=initial.source_instances,
    )


#: One walk or search of an interleaving: its seed, whether it runs under the
#: scenario's hook, and whether it also requests ``x1``.
runs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50), st.booleans(), st.booleans()),
    min_size=2,
    max_size=6,
)


def targets_of(scenario, extra: bool) -> list[str]:
    return scenario["target"] + (["x1"] if extra else [])


def walk_outcome(walk_result: MCMCResult, cache: dict, hook) -> tuple:
    return (
        signature_or_none(walk_result.best_graph),
        walk_result.best_evaluation,
        walk_result.iterations,
        walk_result.accepted_steps,
        walk_result.feasible_steps,
        walk_result.evaluation_cache_hits,
        walk_result.evaluation_cache_misses,
        walk_result.trace,
        cache,
        hook_state(hook),
    )


class TestSharedWalkSpaces:
    @settings(max_examples=100, deadline=None)
    @given(walk_scenarios(), runs)
    def test_walks_sharing_one_space_match_walks_with_private_tables(self, scenario, plan):
        """Each run walks from the start of its requested attributes, once
        with that start's space out of one memo and once with private
        tables; every result, counter, trace, memo and hook state agrees."""
        positional, constraints = walk_arguments(scenario)
        memo = WalkSpaceMemo()
        for seed, hooked, extra in plan:
            target = targets_of(scenario, extra)
            start = start_for(scenario, target)
            key = ("scenario", frozenset(scenario["source"]) | frozenset(target))
            space = memo.get(key) or memo.add(key, start, scenario["tables"])
            outcomes = []
            for initial, tables in (
                (space.start, {"moves": space.moves, "transitions": space.transitions}),
                (start, {}),
            ):
                hook = new_hook(scenario) if hooked else None
                cache: dict = {}
                walked = mcmc_search(
                    positional[0],
                    initial,
                    scenario["tables"],
                    scenario["source"],
                    target,
                    scenario["fds"],
                    **constraints,
                    config=replace(scenario["config"], seed=seed),
                    intermediate_hook=hook,
                    evaluation_cache=cache,
                    **tables,
                )
                outcomes.append(walk_outcome(walked, cache, hook))
            assert outcomes[0] == outcomes[1]
        held = memo._spaces.values()
        assert memo.snapshot()["graphs"] == sum(1 + len(space.transitions) for space in held)

    @settings(max_examples=100, deadline=None)
    @given(walk_scenarios(), runs)
    def test_searches_sharing_a_walk_space_memo_match_private_searches(self, scenario, plan):
        """Step 1 and Step 2 on the scenario's join graph: searches that share
        one memo, whichever requested attributes, seeds and hooks came
        before, return what a search with private spaces returns."""
        memo = WalkSpaceMemo()
        for seed, hooked, extra in plan:
            outcomes = []
            for shared in ({"walk_spaces": memo}, {}):
                hook = new_hook(scenario) if hooked else None
                cache: dict = {}
                try:
                    found = heuristic_acquisition(
                        scenario["join_graph"],
                        scenario["source"],
                        targets_of(scenario, extra),
                        scenario["fds"],
                        budget=scenario["budget"],
                        max_weight=scenario["max_weight"],
                        min_quality=scenario["min_quality"],
                        mcmc_config=replace(scenario["config"], seed=seed),
                        landmark_seed=seed,
                        intermediate_hook=hook,
                        evaluation_cache=cache,
                        **shared,
                    )
                except InfeasibleAcquisitionError as error:
                    outcomes.append(str(error))
                    continue
                outcomes.append(
                    (found.igraph, found.igraph_index)
                    + walk_outcome(found.mcmc, cache, hook)
                )
            assert outcomes[0] == outcomes[1]


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
        keep = data.draw(st.frozensets(st.sampled_from(["a", "b", "x"])))
        replaced = graph.replace_edge(index, attributes, keep)
        expected = reference_replace_edge(graph, index, attributes, keep)
        assert replaced == expected
        assert replaced.signature() == reference_signature(expected)

    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_cached_signature_survives_a_pickle_round_trip(self, graph):
        cached = graph.signature()
        restored = pickle.loads(pickle.dumps(graph))
        assert restored.signature() == cached == reference_signature(restored)
        assert restored == graph
