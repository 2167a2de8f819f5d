"""The combined two-step heuristic acquisition (Section 5).

Step 1 finds the minimal-weight I-layer subgraph connecting the instances that
cover the source and target attributes; Step 2 runs the MCMC search over that
subgraph's AS-layer.  The result carries the chosen target graph, its
evaluation, and the I-graph size (the quantity reported in Figure 5(b)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, MutableMapping, Sequence

from repro.exceptions import InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.landmarks import resolve_landmark_seed
from repro.graph.steiner import IGraph, minimal_weight_igraphs
from repro.graph.target import TargetGraph, TargetGraphEvaluation
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.search.candidates import build_initial_target_graph, terminal_instances
from repro.search.chains import ChainPoolState, MultiChainResult
from repro.search.mcmc import MCMCConfig, MCMCResult, mcmc_search
from repro.search.plan import ExecutionPlan


@dataclass
class SearchRuntime:
    """Session-scoped execution context for one online search.

    One-shot callers never build one: every field defaults to "behave exactly
    like before".  The acquisition service (:mod:`repro.service`) threads a
    runtime through :meth:`repro.core.dance.DANCE.acquire` to make the search
    reuse session state instead of rebuilding its world per call:

    ``evaluation_cache`` / ``ji_cache``
        Externally-owned memo tables shared across all candidate I-graphs of
        the request *and* across requests.  The evaluation memo is only valid
        for a fixed ``(samples, source attrs, target attrs, fds, pricing)``
        context — the service namespaces it per request signature; the JI
        cache keys are structural and safe to share service-wide.
    ``pool`` / ``pool_state``
        A persistent executor serving every multi-chain ``mcmc_search`` call
        (see :class:`~repro.search.chains.ChainScheduler`).
    ``step1_cache``
        Session-scoped memo for Step 1 (``minimal_weight_igraphs``), keyed on
        ``(terminal set, alpha, num_landmarks, landmark seed, graph
        revision)``.  Step 1 is a pure function of that key, so warm requests
        skip the landmark/Steiner search entirely; the service invalidates
        the memo off ``DANCE.graph_version`` like its other caches.
    ``mcmc_seed``
        Overrides the configured MCMC base seed for this request — the
        service derives one per batch index.  The landmark-selection seed is
        blake2b-derived from it
        (:func:`repro.graph.landmarks.derive_landmark_seed`).
    ``resampling``
        A private re-sampling policy instance replacing the shared
        ``DanceConfig.resampling`` (whose ``reset()`` is a mutation unsafe
        under concurrent requests).
    ``allow_refinement``
        Whether :meth:`DANCE.acquire` may fall back to buying more samples
        and rebuilding the join graph.  Off for service requests: refinement
        mutates shared session state, so the service exposes it as an
        explicit, serialized operation instead.
    ``plan``
        An :class:`~repro.search.plan.ExecutionPlan` overriding the
        configured executor and chain count for this search.  Results stay
        bit-identical for a fixed ``(seed, chains)`` whatever the executor,
        so a runtime plan can re-route *where* chains run without changing
        *what* they compute.
    """

    evaluation_cache: MutableMapping | None = None
    ji_cache: MutableMapping | None = None
    step1_cache: MutableMapping | None = None
    pool: object | None = None
    pool_state: ChainPoolState | None = None
    mcmc_seed: int | None = None
    resampling: object | None = None
    allow_refinement: bool = False
    plan: ExecutionPlan | None = None


@dataclass
class HeuristicResult:
    """Outcome of the two-step heuristic.

    ``mcmc`` is a single-chain :class:`~repro.search.mcmc.MCMCResult` or, when
    Step 2 ran with ``MCMCConfig(chains > 1)``, a
    :class:`~repro.search.chains.MultiChainResult` aggregating all chains —
    the two expose the same best-graph / cache-accounting surface.
    ``igraph_index`` is the winner's position in Step 1's candidate list.
    """

    igraph: IGraph
    mcmc: MCMCResult | MultiChainResult
    igraph_index: int = 0

    @property
    def best_graph(self) -> TargetGraph | None:
        return self.mcmc.best_graph

    @property
    def best_evaluation(self) -> TargetGraphEvaluation | None:
        return self.mcmc.best_evaluation

    @property
    def feasible(self) -> bool:
        return self.mcmc.feasible

    @property
    def igraph_size(self) -> int:
        return self.igraph.size

    def require_feasible(self) -> tuple[TargetGraph, TargetGraphEvaluation]:
        return self.mcmc.require_feasible()


def heuristic_acquisition(
    join_graph: JoinGraph,
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
    fds: Sequence[FunctionalDependency],
    *,
    budget: float,
    max_weight: float = float("inf"),
    min_quality: float = 0.0,
    num_landmarks: int = 4,
    max_igraphs: int = 3,
    mcmc_config: MCMCConfig | None = None,
    evaluation_tables: Mapping[str, Table] | None = None,
    rng: int | None = None,
    landmark_seed: int | None = None,
    intermediate_hook=None,
    evaluation_cache: MutableMapping | None = None,
    ji_cache: MutableMapping | None = None,
    step1_cache: MutableMapping | None = None,
    pool=None,
    pool_state: ChainPoolState | None = None,
) -> HeuristicResult:
    """Run Step 1 + Step 2 and return the best feasible target graph found.

    Step 1 produces one candidate minimal-weight I-graph per landmark/terminal
    hub; Step 2 runs the MCMC walk on the lightest ``max_igraphs`` of them and
    the best feasible result (by correlation) wins.

    Parameters
    ----------
    join_graph:
        The two-layer join graph built from samples during the offline phase.
    source_attributes / target_attributes:
        ``A_S`` and ``A_T`` of the acquisition request.
    fds:
        The FDs used for quality measurement on candidate join results.
    budget / max_weight / min_quality:
        The B / α / β constraints.
    num_landmarks:
        Number of landmarks for Step 1's approximate Steiner search.
    max_igraphs:
        How many of Step 1's candidate I-graphs Step 2 explores.
    mcmc_config:
        Step 2 configuration (iterations, seed, proposal mix, and the
        multi-chain knobs ``chains`` / ``executor`` — with ``chains > 1``
        every candidate I-graph is searched by a parallel multi-chain walk
        whose best feasible result wins, deterministically for a fixed
        ``(seed, chains)`` regardless of executor).
    evaluation_tables:
        Tables to evaluate candidates on; defaults to the samples inside the
        join graph (the normal DANCE setting).
    rng / landmark_seed:
        The landmark-selection seed of Step 1.  ``landmark_seed`` is the
        explicit integer form; the legacy ``rng`` keyword accepts an int or
        ``None`` and is normalized through
        :func:`repro.graph.landmarks.canonical_landmark_seed` (mutable
        ``random.Random`` streams are rejected — Step-1 output must depend
        only on declared inputs).
    intermediate_hook:
        Optional correlated re-sampling hook applied to intermediate joins.
    evaluation_cache / ji_cache:
        Optional externally-owned memo tables shared by *all* candidate
        I-graphs of this request (previously each I-graph's walk started
        cold).  A long-lived caller can keep them across requests too — see
        :class:`SearchRuntime` for the validity contract.
    step1_cache:
        Optional externally-owned memo for Step 1's candidate I-graphs, keyed
        on ``(terminal set, max_weight, num_landmarks, landmark seed, graph
        revision)`` — all of Step 1's declared inputs — so a warm request
        skips the landmark/Steiner search entirely.  Only successful
        candidate lists are memoised; infeasibility always re-raises fresh.
    pool / pool_state:
        Optional persistent executor (plus process-pool state) serving every
        multi-chain ``mcmc_search`` call instead of a fresh pool per call.

    Raises
    ------
    InfeasibleAcquisitionError
        When Step 1 cannot connect the terminals within the α threshold.  Step
        2 infeasibility (no candidate satisfies all constraints) is reported
        through ``result.feasible`` instead, because the caller may want to
        inspect the I-graph even when no affordable candidate exists.
    """
    try:
        source_terminals, target_terminals = terminal_instances(
            join_graph, source_attributes, target_attributes
        )
    except SearchError as error:
        # A requested attribute that exists in no instance means no target
        # graph can possibly cover it — that is an infeasible acquisition.
        raise InfeasibleAcquisitionError(str(error)) from error
    terminals = list(dict.fromkeys(source_terminals + target_terminals))
    if not terminals:
        raise InfeasibleAcquisitionError("no instance covers the requested attributes")

    landmark_seed = resolve_landmark_seed(rng, landmark_seed)
    step1_key = None
    candidates: tuple[IGraph, ...] | None = None
    if step1_cache is not None:
        # Every declared input of Step 1; the graph dimension is covered by the
        # revision counter (in-place mutation) plus the owner invalidating the
        # whole memo on DANCE.graph_version bumps (graph replacement).
        step1_key = (
            tuple(sorted(set(terminals))),
            float(max_weight),
            num_landmarks,
            landmark_seed,
            join_graph.revision,
        )
        candidates = step1_cache.get(step1_key)
    if candidates is None:
        candidates = tuple(
            minimal_weight_igraphs(
                join_graph,
                terminals,
                num_landmarks=num_landmarks,
                max_weight=max_weight,
                landmark_seed=landmark_seed,
            )
        )
        if step1_cache is not None:
            step1_cache[step1_key] = candidates
    igraphs = list(candidates)[: max(1, max_igraphs)]

    best_result: HeuristicResult | None = None
    fallback_result: HeuristicResult | None = None
    for index, igraph in enumerate(igraphs):
        try:
            initial = build_initial_target_graph(
                join_graph, igraph, source_attributes, target_attributes
            )
        except SearchError:
            continue

        tables = (
            dict(evaluation_tables)
            if evaluation_tables is not None
            else {name: join_graph.sample(name) for name in igraph.nodes}
        )

        mcmc = mcmc_search(
            join_graph,
            initial,
            tables,
            source_attributes,
            target_attributes,
            fds,
            budget=budget,
            max_weight=max_weight,
            min_quality=min_quality,
            config=mcmc_config,
            intermediate_hook=intermediate_hook,
            evaluation_cache=evaluation_cache,
            ji_cache=ji_cache,
            pool=pool,
            pool_state=pool_state,
        )
        result = HeuristicResult(igraph=igraph, mcmc=mcmc, igraph_index=index)
        if fallback_result is None:
            fallback_result = result
        if not result.feasible:
            continue
        if (
            best_result is None
            or best_result.best_evaluation is None
            or result.best_evaluation.correlation > best_result.best_evaluation.correlation
        ):
            best_result = result

    if best_result is not None:
        return best_result
    if fallback_result is not None:
        return fallback_result
    raise InfeasibleAcquisitionError(
        f"no joinable target graph covers the requested attributes over {terminals}"
    )
