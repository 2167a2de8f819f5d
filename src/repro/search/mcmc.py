"""Step 2 of the online phase: MCMC search over the AS-layer (Algorithm 1).

Starting from an initial target graph on the minimal-weight I-graph, the search
repeatedly proposes a neighbouring target graph by replacing the join attribute
set of one randomly-chosen edge with a different candidate set for the same
instance pair.  Proposals that violate the price / weight / quality constraints
are discarded; feasible proposals are accepted with probability
``min(1, CORR' / CORR)`` (Metropolis), so the walk drifts towards
high-correlation target graphs while still exploring.  The best feasible target
graph seen during the walk is returned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, MutableMapping, Sequence

from repro.exceptions import InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraph, TargetGraphEvaluation
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table

if TYPE_CHECKING:
    from repro.search.acquisition import WalkSpace
    from repro.search.chains import MultiChainResult

EXECUTORS = ("serial", "process")


@dataclass
class MCMCConfig:
    """Tuning knobs of the MCMC search.

    Attributes
    ----------
    iterations:
        Number of proposal steps ``ℓ`` (Algorithm 1 runs a fixed iteration
        count) — per chain when ``chains > 1``.
    seed:
        Seed of the private random generator; runs with the same seed and the
        same inputs are reproducible.  With ``chains > 1`` every chain's seed
        is derived deterministically from this base seed (chain 0 keeps the
        base seed, so ``chains=1`` reproduces the single-chain walk exactly).
    projection_flip_probability:
        Probability that a step additionally toggles one optional attribute of
        one instance's projection (an inexpensive extension of Algorithm 1 that
        lets the walk also explore AS-vertices differing in non-join
        attributes; 0 recovers the paper's pure edge-swap proposal).  Must
        be a finite value in ``[0, 1]``.
    chains:
        Number of independently-seeded Metropolis walks.  ``1`` (the default)
        runs the paper's single chain; larger values run a multi-chain search
        (see :mod:`repro.search.chains`) whose result is the best feasible
        target graph across chains.  The outcome depends only on
        ``(seed, chains)`` — never on the executor.
    executor:
        How chains execute when ``chains > 1``: ``"serial"`` (one after the
        other, sharing caches) or ``"process"`` (a process pool whose
        workers' new cache entries are merged afterwards).  Ignored for
        ``chains=1``.
    record_trace:
        Whether each walk records its per-iteration correlation in
        :attr:`MCMCResult.trace`.  Off by default: the trace grows by one
        float per iteration per chain and is only read by diagnostics, so
        long multi-chain runs should not pay for it.  A walk that records
        its trace runs every step: only a walk whose start cannot move
        stops early (see :func:`mcmc_search`).
    """

    iterations: int = 200
    seed: int = 0
    projection_flip_probability: float = 0.0
    chains: int = 1
    executor: str = "serial"
    record_trace: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise SearchError(f"iterations must be >= 0, got {self.iterations}")
        if self.chains < 1:
            raise SearchError(f"chains must be >= 1, got {self.chains}")
        flip = self.projection_flip_probability
        if not (math.isfinite(flip) and 0.0 <= flip <= 1.0):
            raise SearchError(f"projection_flip_probability must be in [0, 1], got {flip}")
        if self.executor not in EXECUTORS:
            raise SearchError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )


@dataclass
class MCMCResult:
    """Outcome of the MCMC walk.

    ``evaluation_cache_hits`` / ``evaluation_cache_misses`` count how often a
    proposed target graph's evaluation was served from the walk's memo table
    versus computed fresh — Metropolis walks revisit the same candidates
    constantly, so the hit rate is the main lever on online-phase runtime.

    These counters, ``accepted_steps`` and ``feasible_steps`` cover the
    steps the walk ran, while ``iterations`` reports the configured count:
    a walk that stops once no remaining step could change its outcome (see
    :func:`mcmc_search`) skips only steps that would have been memo hits.

    ``trace`` holds the per-iteration correlation of the walk's current state,
    but only when the walk ran with ``MCMCConfig(record_trace=True)`` — it is
    empty otherwise, so long multi-chain runs don't accumulate floats nobody
    reads.
    """

    best_graph: TargetGraph | None
    best_evaluation: TargetGraphEvaluation | None
    accepted_steps: int = 0
    feasible_steps: int = 0
    iterations: int = 0
    evaluation_cache_hits: int = 0
    evaluation_cache_misses: int = 0
    trace: list[float] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.best_graph is not None

    # Single-chain values of the multi-chain surface, so MCMCResult and
    # MultiChainResult are interchangeable to every consumer (DANCE, CLI,
    # experiment drivers) without isinstance dispatch.
    @property
    def n_chains(self) -> int:
        return 1

    @property
    def executor(self) -> str:
        return "serial"

    @property
    def best_chain_index(self) -> int | None:
        return 0 if self.feasible else None

    @property
    def chain_correlations(self) -> list[float | None]:
        return [
            None if self.best_evaluation is None else self.best_evaluation.correlation
        ]

    @property
    def evaluation_cache_hit_rate(self) -> float:
        """Fraction of candidate evaluations served from the memo table."""
        total = self.evaluation_cache_hits + self.evaluation_cache_misses
        if total == 0:
            return 0.0
        return self.evaluation_cache_hits / total

    def require_feasible(self) -> tuple[TargetGraph, TargetGraphEvaluation]:
        if self.best_graph is None or self.best_evaluation is None:
            raise InfeasibleAcquisitionError(
                "MCMC search found no target graph satisfying the constraints"
            )
        return self.best_graph, self.best_evaluation


def _edge_alternatives(
    current: TargetGraph, index: int, join_graph: JoinGraph
) -> tuple[frozenset[str], ...]:
    """The join attribute sets edge ``index`` could switch to (cheapest first)."""
    left = current.nodes[current.parents[index]]
    right = current.nodes[index + 1]
    if not join_graph.has_edge(left, right):
        return ()
    attributes = current.edges[index]
    choices = join_graph.edge(left, right).join_attribute_choices()
    return tuple(choice for choice in choices if choice != attributes)


def _space_size(
    start: TargetGraph,
    alternatives: Sequence[tuple[frozenset[str], ...]],
    wanted: frozenset[str],
) -> float:
    """How many graphs edge swaps can reach from ``start``, or ``math.inf``.

    ``alternatives[i]`` are edge ``i``'s other join attribute sets, so the
    edge takes one of ``len(alternatives[i]) + 1`` sets and the product over
    the edges bounds the walk's space.  That bounds the distinct signatures
    only when a graph is fixed by its edges alone, with every projection its
    join attributes plus the start's extras.  An edge swap keeps a node's
    extras and requested attributes, so this holds unless an attribute that
    some set of a swappable edge joins on is requested, or is an extra of
    one of the edge's nodes: the swaps would then carry it in or out of a
    projection.  The answer is ``math.inf`` then: the edges alone bound no
    count of distinct graphs.
    """
    required = start.required_join_attributes
    for index, options in enumerate(alternatives):
        if not options:
            continue
        joined = start.edges[index].union(*options)
        for node in (start.parents[index], index + 1):
            extras = start.projections[start.nodes[node]] - required[node]
            if not joined.isdisjoint(wanted | extras):
                return math.inf
    return math.prod(len(options) + 1 for options in alternatives)


def _propose_edge_swap(
    current: TargetGraph,
    join_graph: JoinGraph,
    rng: random.Random,
    moves: MutableMapping[tuple, tuple[frozenset[str], ...]],
    transitions: MutableMapping[tuple, TargetGraph],
    keep: frozenset[str],
) -> TargetGraph | None:
    """Pick a random edge and a random *different* join attribute set for it.

    ``moves`` and ``transitions`` are the walk's move table and transition
    memo (see :func:`mcmc_search`); a proposal that either of them already
    knows costs no join-graph lookup and builds no graph.  The proposal's
    projections keep the attributes of ``keep`` they held.
    """
    edges = current.edges
    if not edges:
        return None
    index = rng.randrange(len(edges))
    key = (index, edges[index])
    alternatives = moves.get(key)
    if alternatives is None:
        alternatives = moves[key] = _edge_alternatives(current, index, join_graph)
    if not alternatives:
        return None
    attributes = rng.choice(alternatives)
    move = (current.signature(), index, attributes)
    proposal = transitions.get(move)
    if proposal is None:
        proposal = transitions[move] = current.replace_edge(index, attributes, keep)
    return proposal


def _propose_projection_flip(
    current: TargetGraph,
    join_graph: JoinGraph,
    wanted: frozenset[str],
    rng: random.Random,
) -> TargetGraph | None:
    """Toggle one optional (non-join, non-requested) attribute in one projection."""
    name = rng.choice(current.nodes)
    index = current.nodes.index(name)
    schema_names = set(join_graph.sample(name).schema.names)
    required = current.required_join_attributes[index] | (wanted & schema_names)
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


def mcmc_search(
    join_graph: JoinGraph,
    initial: TargetGraph,
    tables: Mapping[str, Table],
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
    fds: Sequence[FunctionalDependency],
    *,
    budget: float,
    max_weight: float = float("inf"),
    min_quality: float = 0.0,
    config: MCMCConfig | None = None,
    intermediate_hook=None,
    evaluation_cache: "MutableMapping[tuple, TargetGraphEvaluation] | None" = None,
    space: "WalkSpace | None" = None,
    pool=None,
    pool_state=None,
) -> "MCMCResult | MultiChainResult":
    """Algorithm 1: find the best feasible target graph by a Metropolis walk.

    With ``config.chains > 1`` the call transparently becomes a multi-chain
    search (see :mod:`repro.search.chains`): ``chains`` independently-seeded
    walks run under ``config.executor`` and the returned
    :class:`~repro.search.chains.MultiChainResult` (a drop-in superset of
    :class:`MCMCResult`) carries the best feasible target graph across chains.

    Every evaluation is memoised by graph signature, a fired one too: it is
    one draw from the policy the hook derives for its graph (see
    :meth:`TargetGraph.joined_rows
    <repro.graph.target.TargetGraph.joined_rows>`), so a revisit reads the
    same estimate back, as Theorem 3.2's estimator defines it.  The walk
    never draws from the hook itself.

    A walk without projection flips stops early once no remaining step could
    change its outcome: at once when its start cannot move, and, without a
    trace, once it has evaluated every graph its edge swaps can reach and
    none beats its best.  Its best graph and evaluation and the evaluation
    memo are then those of the walk that runs every step.

    Parameters
    ----------
    join_graph:
        The two-layer join graph (supplies the per-edge join-attribute choices).
    initial:
        The starting target graph (from Step 1's minimal-weight I-graph).
    tables:
        The tables to evaluate candidates on — the per-instance samples for the
        heuristic / LP setting, or the full instances for GP-style evaluation.
        On the join graph's own samples every JI weight is the graph's
        (:meth:`~repro.graph.join_graph.JoinGraph.ji_cache_for`); other
        tables weigh through a private JI cache.
    source_attributes / target_attributes:
        ``A_S`` and ``A_T``.
    fds:
        The FDs against which quality is measured on the join result.
    budget / max_weight / min_quality:
        The B / α / β constraints of the optimisation problem (Eq. 9).
    config:
        Iteration count, seed, and proposal mix.
    intermediate_hook:
        Optional correlated re-sampling policy of the intermediate join
        results during candidate evaluation, such as
        :class:`~repro.sampling.resampling.ResamplingPolicy` (see
        :meth:`TargetGraph.evaluate <repro.graph.target.TargetGraph.evaluate>`).
    evaluation_cache:
        Optional externally-owned memo table (any mapping supporting ``get``
        and item assignment, such as a :class:`~repro.memo.Memo`), valid for
        one set of ``tables``, requested attributes, FDs, pricing and hook
        settings.  Sharing it across chains — or across searches and
        requests, as the acquisition service does — never changes walk
        outcomes, only which walk pays for each (deterministic) evaluation.
    space:
        Optional :class:`~repro.search.acquisition.WalkSpace` whose start is
        ``initial``, shared with the other walks from it under the same
        requested attributes: its move table, its transition memo and its
        count of the graphs edge swaps reach, which the first walk without
        flips takes and later walks read.  Without one the walk makes
        private tables and counts for itself.  Each entry is a pure function
        of its key, the start and the requested attributes, and none draws
        from ``rng``, so sharing them changes no outcome, counter or stream.
        Ignored for ``chains > 1``, whose walks keep private tables.
    pool / pool_state:
        An externally-owned process pool and its
        :class:`~repro.search.shm.SharedChainState` (see
        :func:`~repro.search.chains.shared_chain_pool`) serving the
        multi-chain walks; ignored for ``chains=1``.  See
        :class:`~repro.search.chains.ChainScheduler`.
    """
    config = config or MCMCConfig()
    if config.chains > 1:
        from repro.search.chains import ChainScheduler

        return ChainScheduler(
            chains=config.chains,
            executor=config.executor,
            pool=pool,
            pool_state=pool_state,
        ).run(
            join_graph,
            initial,
            tables,
            source_attributes,
            target_attributes,
            fds,
            budget=budget,
            max_weight=max_weight,
            min_quality=min_quality,
            config=config,
            intermediate_hook=intermediate_hook,
            evaluation_cache=evaluation_cache,
        )
    rng = random.Random(config.seed)
    pricing = join_graph.pricing
    wanted = frozenset(source_attributes) | frozenset(target_attributes)

    # The walk revisits candidates constantly (edge swaps are frequently
    # undone), so evaluations are memoised by canonical graph signature, and
    # per-edge join-informativeness terms come from one cache: the join
    # graph's own weights on its samples, a private dict on other tables.
    if evaluation_cache is None:
        evaluation_cache = {}
    ji_cache = join_graph.ji_cache_for(tables)
    # A walk never changes its nodes or parents, so an edge's alternatives
    # depend only on the edge's index and its current join attributes: the
    # move table reads the join graph once per such key.  The transition
    # memo maps (current signature, edge index, chosen attributes) to the
    # proposal, so each distinct edge swap builds its graph once.  Private
    # tables die with the walk; shared ones serve every walk from this
    # start.  Neither touches the random stream: every proposal still draws
    # its edge and its attributes through ``rng``.
    if space is None:
        moves: MutableMapping[tuple, tuple[frozenset[str], ...]] = {}
        transitions: MutableMapping[tuple, TargetGraph] = {}
    else:
        moves, transitions = space.moves, space.transitions

    def evaluate(graph: TargetGraph) -> TargetGraphEvaluation:
        signature = graph.signature()
        cached = evaluation_cache.get(signature)
        if cached is not None:
            result.evaluation_cache_hits += 1
            return cached
        result.evaluation_cache_misses += 1
        evaluation = graph.evaluate(
            tables,
            source_attributes,
            target_attributes,
            fds,
            pricing,
            intermediate_hook=intermediate_hook,
            ji_cache=ji_cache,
        )
        evaluation_cache[signature] = evaluation
        return evaluation

    result = MCMCResult(best_graph=None, best_evaluation=None)
    record_trace = config.record_trace

    current = initial
    current_eval = evaluate(current)
    current_feasible = current_eval.satisfies(
        max_weight=max_weight, min_quality=min_quality, budget=budget
    )
    if current_feasible:
        result.best_graph = current
        result.best_evaluation = current_eval
    result.feasible_steps = 1 if current_feasible else 0

    flip_probability = config.projection_flip_probability
    flips = flip_probability > 0
    # Without flips a walk moves by edge swaps alone, over a space it can
    # count (``_space_size``); a shared space keeps its count for every walk
    # from it.  Only a count of at most ``iterations + 1`` is worth tracking.
    # A space of one graph is a dead start: every proposal is None and the
    # walk never moves, so it stops here.  Its only draws are from its
    # private ``rng``; the result is what the loop would return.
    size = None if space is None else space.size
    if size is None and not flips:
        alternatives = []
        for index, edge in enumerate(current.edges):
            options = moves.get((index, edge))
            if options is None:
                options = moves[index, edge] = _edge_alternatives(current, index, join_graph)
            alternatives.append(options)
        size = _space_size(current, alternatives, wanted)
        if space is not None:
            space.size = size
    if flips or size > config.iterations + 1:
        size = None
    if size == 1:
        result.iterations = config.iterations
        if record_trace:
            result.trace = [current_eval.correlation] * config.iterations
        return result
    # A larger space the walk could exhaust: ``seen`` records the signature
    # of every graph it evaluates, memo hits included, and ``top`` the
    # highest correlation of a feasible one.  Once ``seen`` holds the whole
    # space and none beats the best, every later proposal is a memo hit that
    # cannot change the best: the walk stops with the best and the
    # evaluation memo of the full walk.  The trace would need every step.
    seen = None
    if size is not None and not record_trace:
        seen = {current.signature()}
        top = -math.inf

    for _ in range(config.iterations):
        result.iterations += 1
        proposal: TargetGraph | None = None
        if flips and rng.random() < flip_probability:
            proposal = _propose_projection_flip(current, join_graph, wanted, rng)
        if proposal is None:
            proposal = _propose_edge_swap(current, join_graph, rng, moves, transitions, wanted)
        if proposal is None:
            if record_trace:
                result.trace.append(current_eval.correlation)
            continue

        proposal_eval = evaluate(proposal)
        feasible = proposal_eval.satisfies(
            max_weight=max_weight, min_quality=min_quality, budget=budget
        )
        if feasible:
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
                    result.best_graph = current
                    result.best_evaluation = current_eval
        if record_trace:
            result.trace.append(current_eval.correlation)
        elif seen is not None:
            seen.add(proposal.signature())
            if feasible and proposal_eval.correlation > top:
                top = proposal_eval.correlation
            if len(seen) == size:
                best = result.best_evaluation
                beaten = result.feasible_steps > 0 if best is None else top > best.correlation
                if not beaten:
                    result.iterations = config.iterations
                    break

    return result
