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
from repro.relational.joins import JoinLineage
from repro.relational.table import Table

if TYPE_CHECKING:
    from repro.search.chains import MultiChainResult

EXECUTORS = ("serial", "thread", "process")


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
        other, sharing caches), ``"thread"`` (a thread pool sharing
        lock-striped caches), or ``"process"`` (a process pool with per-chain
        caches merged afterwards).  Ignored for ``chains=1``.
    record_trace:
        Whether each walk records its per-iteration correlation in
        :attr:`MCMCResult.trace`.  Off by default: the trace grows by one
        float per iteration per chain and is only read by diagnostics, so
        long multi-chain runs should not pay for it.
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


def _propose_edge_swap(
    current: TargetGraph,
    join_graph: JoinGraph,
    rng: random.Random,
    moves: dict[tuple[int, frozenset[str]], tuple[frozenset[str], ...]],
    transitions: dict[tuple, TargetGraph],
) -> TargetGraph | None:
    """Pick a random edge and a random *different* join attribute set for it.

    ``moves`` and ``transitions`` are the walk's move table and transition
    memo (see :func:`mcmc_search`); a proposal that either of them already
    knows costs no join-graph lookup and builds no graph.
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
        proposal = transitions[move] = current.replace_edge(index, attributes)
    return proposal


def _propose_projection_flip(
    current: TargetGraph,
    join_graph: JoinGraph,
    wanted: set[str],
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
    ji_cache: "MutableMapping[tuple, float] | None" = None,
    pool=None,
    pool_state=None,
) -> "MCMCResult | MultiChainResult":
    """Algorithm 1: find the best feasible target graph by a Metropolis walk.

    With ``config.chains > 1`` the call transparently becomes a multi-chain
    search (see :mod:`repro.search.chains`): ``chains`` independently-seeded
    walks run under ``config.executor`` and the returned
    :class:`~repro.search.chains.MultiChainResult` (a drop-in superset of
    :class:`MCMCResult`) carries the best feasible target graph across chains.

    Parameters
    ----------
    join_graph:
        The two-layer join graph (supplies the per-edge join-attribute choices).
    initial:
        The starting target graph (from Step 1's minimal-weight I-graph).
    tables:
        The tables to evaluate candidates on — the per-instance samples for the
        heuristic / LP setting, or the full instances for GP-style evaluation.
    source_attributes / target_attributes:
        ``A_S`` and ``A_T``.
    fds:
        The FDs against which quality is measured on the join result.
    budget / max_weight / min_quality:
        The B / α / β constraints of the optimisation problem (Eq. 9).
    config:
        Iteration count, seed, and proposal mix.
    intermediate_hook:
        Optional correlated re-sampler of the intermediate join results during
        candidate evaluation, such as
        :class:`~repro.sampling.resampling.ResamplingPolicy` (see
        :meth:`TargetGraph.evaluate <repro.graph.target.TargetGraph.evaluate>`).
    evaluation_cache / ji_cache:
        Optional externally-owned memo tables (any mapping supporting ``get``
        and item assignment, e.g. the lock-striped caches of
        :class:`~repro.search.chains.ChainScheduler`).  Sharing them across
        chains — or across searches and requests, as the acquisition service
        does — never changes walk outcomes, only which walk pays for each
        (deterministic) evaluation.
    pool / pool_state:
        An externally-owned executor (and, for persistent process pools, its
        :class:`~repro.search.chains.ChainPoolState`) serving the multi-chain
        walks; ignored for ``chains=1``.  See
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
            ji_cache=ji_cache,
        )
    rng = random.Random(config.seed)
    pricing = join_graph.pricing
    wanted = set(source_attributes) | set(target_attributes)

    # The walk revisits candidates constantly (edge swaps are frequently
    # undone), so evaluations are memoised by canonical graph signature, and
    # per-edge join-informativeness terms share one cache across candidates.
    if evaluation_cache is None:
        evaluation_cache = {}
    if ji_cache is None:
        ji_cache = {}
    # A fired re-sampling hook makes an evaluation stochastic, and memoising
    # it would freeze one random draw per candidate for the rest of the walk.
    # Graphs on which the hook fired get a join lineage here instead, private
    # to this walk: a revisit skips every join but still draws afresh.
    lineages: dict[tuple, JoinLineage] = {}
    # A walk never changes its nodes or parents, so an edge's alternatives
    # depend only on the edge's index and its current join attributes: the
    # move table reads the join graph once per such key.  The transition
    # memo maps (current signature, edge index, chosen attributes) to the
    # proposal, so each distinct edge swap builds its graph once.  Both
    # tables die with the walk, and neither touches the random stream: every
    # proposal still draws its edge and its attributes through ``rng``.
    moves: dict[tuple[int, frozenset[str]], tuple[frozenset[str], ...]] = {}
    transitions: dict[tuple, TargetGraph] = {}

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
            lineages=lineages,
        )
        if signature not in lineages:
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
    if not flips and not any(
        moves.setdefault((index, edge), _edge_alternatives(current, index, join_graph))
        for index, edge in enumerate(current.edges)
    ):
        # A dead start: no flips and no edge with an alternative, so every
        # proposal is None and the walk never moves.  Its only draws are from
        # its private ``rng``, so stopping here changes no other stream; the
        # result is what the loop would return.
        result.iterations = config.iterations
        if record_trace:
            result.trace = [current_eval.correlation] * config.iterations
        return result

    for _ in range(config.iterations):
        result.iterations += 1
        proposal: TargetGraph | None = None
        if flips and rng.random() < flip_probability:
            proposal = _propose_projection_flip(current, join_graph, wanted, rng)
        if proposal is None:
            proposal = _propose_edge_swap(current, join_graph, rng, moves, transitions)
        if proposal is None:
            if record_trace:
                result.trace.append(current_eval.correlation)
            continue

        proposal_eval = evaluate(proposal)
        if not proposal_eval.satisfies(
            max_weight=max_weight, min_quality=min_quality, budget=budget
        ):
            if record_trace:
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
                result.best_graph = current
                result.best_evaluation = current_eval
        if record_trace:
            result.trace.append(current_eval.correlation)

    return result
