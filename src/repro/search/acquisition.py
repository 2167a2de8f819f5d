"""The combined two-step heuristic acquisition (Section 5).

Step 1 finds the minimal-weight I-layer subgraph connecting the instances that
cover the source and target attributes; Step 2 runs the MCMC search over that
subgraph's AS-layer.  The result carries the chosen target graph, its
evaluation, and the I-graph size (the quantity reported in Figure 5(b)).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import MutableMapping, Sequence

from repro.exceptions import InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import IGraph, minimal_weight_igraphs
from repro.graph.target import TargetGraph, TargetGraphEvaluation
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.search.candidates import build_initial_target_graph, terminal_instances
from repro.search.chains import ChainScheduler, MultiChainResult
from repro.search.mcmc import MCMCConfig, MCMCResult, mcmc_search
from repro.search.plan import ExecutionPlan
from repro.search.shm import SharedChainState


#: Graphs a :class:`WalkSpaceMemo` holds at most: every space's start plus
#: the targets of its transition memo.  Read at every insertion.
WALK_SPACE_GRAPHS = 1 << 12


class WalkSpace:
    """What every single-chain walk from one start shares.

    ``start`` is the graph :func:`build_initial_target_graph` makes for one
    I-graph and one set of requested attributes, ``tables`` the I-graph's
    samples, ``moves`` and ``transitions`` the move table and the transition
    memo of :func:`~repro.search.mcmc.mcmc_search`, and ``size`` the count
    of graphs its edge swaps reach (``math.inf`` when the edges alone bound
    none), which the first walk without projection flips takes (``None``
    until then).  Each value is a pure function of the join graph, the
    I-graph and the requested attributes, and none draws from a random
    stream, so walks at any seed, under any hook and for any constraints
    may share them.
    """

    __slots__ = ("start", "tables", "moves", "transitions", "size")

    def __init__(
        self,
        start: TargetGraph,
        tables: dict[str, Table],
        transitions: dict[tuple, TargetGraph] | None = None,
    ) -> None:
        self.start = start
        self.tables = tables
        self.moves: dict[tuple, tuple[frozenset[str], ...]] = {}
        self.transitions = {} if transitions is None else transitions
        self.size: float | None = None


class _Transitions(dict):
    """A held space's transition memo: each new graph counts in its memo.

    The memo is referenced weakly: a strong reference would close a cycle
    through the memo's spaces, and a memo its owner replaced would then
    keep its graphs and tables until the cycle collector ran.
    """

    __slots__ = ("_memo", "_key")

    def __init__(self, memo: "WalkSpaceMemo", key: tuple) -> None:
        super().__init__()
        self._memo = weakref.ref(memo)
        self._key = key

    def __setitem__(self, move: tuple, graph: TargetGraph) -> None:
        memo = self._memo()
        if memo is None:
            dict.__setitem__(self, move, graph)
        else:
            memo._add_transition(self._key, self, move, graph)


class WalkSpaceMemo:
    """Walk spaces by ``(I-graph, requested attributes, graph revision)``.

    One memo serves the requests of a session on one join graph; its owner
    replaces it whenever the graph changes, as it does the answer memo.  The
    memo counts the graphs it holds, each space's start plus its transition
    targets, and past :data:`WALK_SPACE_GRAPHS` it evicts whole spaces in
    insertion order.  A walk keeps the space it was handed, so eviction
    costs a later request time, never bits.  Walks on concurrent requests
    read the shared tables without a lock and add transitions under the
    memo's lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spaces: dict[tuple, WalkSpace] = {}  # guarded-by: self._lock
        self._graphs = 0  # guarded-by: self._lock
        self._hits = 0  # guarded-by: self._lock
        self._misses = 0  # guarded-by: self._lock

    def get(self, key: tuple) -> WalkSpace | None:
        """The space held under ``key``; counts a hit or a miss."""
        with self._lock:
            space = self._spaces.get(key)
            if space is None:
                self._misses += 1
            else:
                self._hits += 1
            return space

    def add(self, key: tuple, start: TargetGraph, tables: dict[str, Table]) -> WalkSpace:
        """Hold a new space under ``key`` and return the space held there.

        A concurrent request that added the key first wins, and this call
        returns its space.
        """
        with self._lock:
            space = self._spaces.get(key)
            if space is None:
                space = WalkSpace(start, tables, _Transitions(self, key))
                self._spaces[key] = space
                self._graphs += 1
                self._evict_locked()
            return space

    def _add_transition(
        self, key: tuple, transitions: _Transitions, move: tuple, graph: TargetGraph
    ) -> None:
        with self._lock:
            if move in transitions:
                return
            dict.__setitem__(transitions, move, graph)
            space = self._spaces.get(key)
            # A space evicted while a walk still holds it grows privately.
            if space is not None and space.transitions is transitions:
                self._graphs += 1
                self._evict_locked()

    def _evict_locked(self) -> None:
        spaces = self._spaces
        while self._graphs > WALK_SPACE_GRAPHS and spaces:
            evicted = spaces.pop(next(iter(spaces)))
            self._graphs -= 1 + len(evicted.transitions)

    def snapshot(self) -> dict[str, int]:
        """The spaces held, their graphs (starts plus transition targets),
        and the hits and misses of :meth:`get`."""
        with self._lock:
            return {
                "entries": len(self._spaces),
                "graphs": self._graphs,
                "hits": self._hits,
                "misses": self._misses,
            }


@dataclass
class SearchRuntime:
    """Session-scoped execution context for one online search.

    One-shot callers never build one: every field defaults to "behave exactly
    like before".  The acquisition service (:mod:`repro.service`) threads a
    runtime through :meth:`repro.core.dance.DANCE.acquire` to make the search
    reuse session state instead of rebuilding its world per call:

    ``evaluation_cache``
        An externally-owned memo table shared across all candidate I-graphs
        of the request *and* across requests.  It is only valid for a fixed
        ``(samples, source attrs, target attrs, fds, pricing, re-sampling
        policy)`` context — the service namespaces it per request signature,
        and its policy is fixed for the session.  A fired evaluation is one
        draw from the policy the hook derives for its graph, so it is as
        fixed as an unfired one and the memo holds both.  JI weights need no
        runtime field: every search reads the join graph's own
        (:meth:`~repro.graph.join_graph.JoinGraph.ji_cache_for`).
    ``pool`` / ``pool_state``
        A persistent process pool and its shared columnar state serving
        every multi-chain dispatch of a process plan (see
        :func:`~repro.search.chains.shared_chain_pool`).
    ``walk_spaces``
        A :class:`WalkSpaceMemo` holding, per I-graph and requested
        attributes, the start of Step 2 and the move table and transition
        memo every single-chain walk from it shares, so a request whose
        Step-1 candidates an earlier request already walked builds no start
        and no proposal graph the earlier walks built.  The service replaces
        it on every graph change.  Multi-chain walks take its starts but keep
        private tables.  Sharing it changes no served bit:
        each value is a pure function of its key, and none draws from a
        random stream.  A served result's target graph is then a copy (see
        :meth:`repro.core.dance.DANCE.acquire`), so a caller that mutates it
        changes no later answer.
    ``mcmc_seed``
        Overrides the configured MCMC base seed for this request — the
        service derives one per batch index.  The landmark-selection seed is
        blake2b-derived from it
        (:func:`repro.graph.landmarks.derive_landmark_seed`).
    ``resampling``
        A re-sampling policy replacing ``DanceConfig.resampling`` for this
        search.  No walk draws from it: each fired graph draws from the
        policy it derives (see
        :meth:`TargetGraph.joined_rows
        <repro.graph.target.TargetGraph.joined_rows>`), so concurrent
        requests may share one.
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
    walk_spaces: WalkSpaceMemo | None = None
    pool: object | None = None
    pool_state: SharedChainState | None = None
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
    landmark_seed: int | None = None,
    intermediate_hook=None,
    evaluation_cache: MutableMapping | None = None,
    walk_spaces: WalkSpaceMemo | None = None,
    pool=None,
    pool_state: SharedChainState | None = None,
) -> HeuristicResult:
    """Run Step 1 + Step 2 and return the best feasible target graph found.

    Step 1 produces one candidate minimal-weight I-graph per landmark/terminal
    hub; Step 2 runs the MCMC walk on the lightest ``max_igraphs`` of them and
    the best feasible result (by correlation) wins.  Every walk evaluates on
    the join graph's samples and weighs edges from the graph's JI weights.

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
    landmark_seed:
        The integer landmark-selection seed of Step 1 (``None`` means 0; a
        mutable ``random.Random`` is rejected, see
        :func:`repro.graph.landmarks.canonical_landmark_seed`).
    intermediate_hook:
        Optional correlated re-sampler of the intermediate joins (see
        :meth:`TargetGraph.evaluate <repro.graph.target.TargetGraph.evaluate>`).
    evaluation_cache:
        Optional externally-owned memo table shared by *all* candidate
        I-graphs of this request.  A long-lived caller can keep it across
        requests too — see :class:`SearchRuntime` for the validity contract.
    walk_spaces:
        Optional :class:`WalkSpaceMemo` of Step 2's starts and the tables
        their single-chain walks share (see :class:`SearchRuntime`).
        Without one, each start gets a private space.
    pool / pool_state:
        Optional persistent process pool (plus its shared columnar state)
        serving the multi-chain walks instead of a fresh pool per request.
        With ``chains > 1`` every candidate's chains go to the executor in
        one :meth:`~repro.search.chains.ChainScheduler.run_starts` dispatch.

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

    igraphs = minimal_weight_igraphs(
        join_graph,
        terminals,
        num_landmarks=num_landmarks,
        max_weight=max_weight,
        landmark_seed=landmark_seed,
    )[: max(1, max_igraphs)]

    # Every start is built before any walk, so the chains of all starts can
    # go to the executor in one dispatch.  A start depends on the I-graph and
    # on the requested attributes only as a set.
    wanted = frozenset(source_attributes) | frozenset(target_attributes)
    starts: list[tuple[int, IGraph, WalkSpace]] = []
    for index, igraph in enumerate(igraphs):
        key = (igraph, wanted, join_graph.revision)
        space = None if walk_spaces is None else walk_spaces.get(key)
        if space is None:
            try:
                initial = build_initial_target_graph(
                    join_graph, igraph, source_attributes, target_attributes
                )
            except SearchError:
                continue
            samples = {name: join_graph.sample(name) for name in igraph.nodes}
            if walk_spaces is None:
                space = WalkSpace(initial, samples)
            else:
                space = walk_spaces.add(key, initial, samples)
        starts.append((index, igraph, space))

    constraints = dict(budget=budget, max_weight=max_weight, min_quality=min_quality)
    config = mcmc_config or MCMCConfig()
    walks: list[MCMCResult | MultiChainResult]
    if config.chains > 1:
        # No walk draws from the hook, so the starts are independent and
        # their chains share one dispatch.
        walks = ChainScheduler(
            chains=config.chains, executor=config.executor, pool=pool, pool_state=pool_state
        ).run_starts(
            join_graph,
            [(space.start, space.tables) for _, _, space in starts],
            source_attributes,
            target_attributes,
            fds,
            **constraints,
            config=config,
            intermediate_hook=intermediate_hook,
            evaluation_cache=evaluation_cache,
        )
    else:
        walks = [
            mcmc_search(
                join_graph,
                space.start,
                space.tables,
                source_attributes,
                target_attributes,
                fds,
                **constraints,
                config=config,
                intermediate_hook=intermediate_hook,
                evaluation_cache=evaluation_cache,
                space=space,
            )
            for _, _, space in starts
        ]

    best_result: HeuristicResult | None = None
    fallback_result: HeuristicResult | None = None
    for (index, igraph, _), mcmc in zip(starts, walks):
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
