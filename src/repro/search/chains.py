"""Parallel multi-chain MCMC search (the ROADMAP's "parallel MCMC chains").

Algorithm 1 of the paper is a single Metropolis walk.  On multi-modal
AS-layers one walk can stall in a local optimum, so :class:`ChainScheduler`
runs ``n`` independently seeded walks and keeps the best feasible target
graph across all of them:

* **Deterministic seeding** — every chain's seed is derived from the base seed
  by :func:`chain_seed` (chain 0 keeps the base seed), so the outcome of a
  multi-chain search depends only on ``(seed, chains)``: never on the
  executor or the scheduling order.
* **Two executors** — ``serial`` chains run one after the other in the
  calling process.  ``process`` chains run on a process pool: a persistent
  :func:`shared_chain_pool` whose workers map the encoded samples from
  shared memory (:mod:`repro.search.shm`), or, for a one-shot search or a
  call the pool's state does not cover, workers that receive the join graph
  and tables in every payload (:func:`_run_chain`).
* **Shared caches** — chains explore overlapping candidate sets, so the
  evaluation memo table is shared.  Serial chains literally share one
  mapping; process workers fill private memos and the scheduler merges what
  they added into the caller's.  Sharing is safe because every cached value
  is deterministic: a chain served from another chain's entry computes
  nothing different, it just computes less.  JI weights need no sharing:
  every chain reads its join graph's own
  (:meth:`~repro.graph.join_graph.JoinGraph.ji_cache_for`), and a worker's
  graph carries them (pickled with it, or preloaded from the published
  weights).
* **Aggregation** — the per-chain :class:`~repro.search.mcmc.MCMCResult`\\ s
  are folded into a :class:`MultiChainResult` that duck-types ``MCMCResult``
  (``best_graph``, ``require_feasible``, cache-hit accounting, ...), so the
  two-step heuristic, :class:`~repro.core.dance.DANCE`, and the CLI surface
  multi-chain runs without special cases.

Re-sampling hooks need no care: no walk draws from the hook it is handed.
A fired evaluation is one draw from the policy the hook derives for its
graph (:meth:`~repro.sampling.resampling.ResamplingPolicy.for_graph`), so it
is as deterministic as an unfired one, the shared caches hold both, and
every chain, serial or in a worker, sees the same estimate of a graph.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.exceptions import BrokenChainPoolError, InfeasibleAcquisitionError, SearchError
from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraph, TargetGraphEvaluation
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.search import shm as _shm
from repro.search.mcmc import EXECUTORS, MCMCConfig, MCMCResult, mcmc_search
from repro.search.plan import pool_width


def chain_seed(base_seed: int, chain_index: int) -> int:
    """The deterministic seed of chain ``chain_index`` for a given base seed.

    Chain 0 keeps the base seed, so a one-chain multi-chain search reproduces
    the single-chain walk bit-for-bit.  Later chains hash ``(base_seed,
    index)`` through blake2b — stable across processes and Python versions
    (unlike ``hash()``), and collision-free for any realistic chain count.
    """
    if chain_index < 0:
        raise SearchError(f"chain_index must be >= 0, got {chain_index}")
    if chain_index == 0:
        return base_seed
    digest = hashlib.blake2b(
        f"{base_seed}:{chain_index}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass
class MultiChainResult:
    """Aggregate outcome of a multi-chain MCMC search.

    Duck-types :class:`~repro.search.mcmc.MCMCResult` (``best_graph``,
    ``best_evaluation``, ``feasible``, ``require_feasible``, step and
    cache-hit counters), so every existing consumer of the single-chain result
    works unchanged, and adds the per-chain view: ``chain_results``,
    ``best_chain_index``, per-chain correlations and traces.

    The best chain is the feasible chain with the highest best correlation,
    ties broken by the lowest chain index — a deterministic rule, so the
    aggregate is independent of executor scheduling.
    """

    chain_results: list[MCMCResult] = field(default_factory=list)
    best_chain_index: int | None = None
    executor: str = "serial"
    evaluation_cache_size: int = 0
    # Shared-store pools only (see repro.search.shm): summed per-call worker
    # session accounting — cold_load / resyncs / deltas_applied /
    # spec_loads.  Empty for serial chains and full-payload workers.
    worker_stats: dict = field(default_factory=dict)

    # ------------------------------------------------------------ aggregate
    @property
    def n_chains(self) -> int:
        return len(self.chain_results)

    @property
    def best_chain(self) -> MCMCResult | None:
        if self.best_chain_index is None:
            return None
        return self.chain_results[self.best_chain_index]

    @property
    def best_graph(self) -> TargetGraph | None:
        best = self.best_chain
        return None if best is None else best.best_graph

    @property
    def best_evaluation(self) -> TargetGraphEvaluation | None:
        best = self.best_chain
        return None if best is None else best.best_evaluation

    @property
    def feasible(self) -> bool:
        return self.best_graph is not None

    def require_feasible(self) -> tuple[TargetGraph, TargetGraphEvaluation]:
        best = self.best_chain
        if best is None:
            raise InfeasibleAcquisitionError(
                "no MCMC chain found a target graph satisfying the constraints"
            )
        return best.require_feasible()

    # ------------------------------------------------------------- counters
    @property
    def iterations(self) -> int:
        return sum(chain.iterations for chain in self.chain_results)

    @property
    def accepted_steps(self) -> int:
        return sum(chain.accepted_steps for chain in self.chain_results)

    @property
    def feasible_steps(self) -> int:
        return sum(chain.feasible_steps for chain in self.chain_results)

    @property
    def evaluation_cache_hits(self) -> int:
        return sum(chain.evaluation_cache_hits for chain in self.chain_results)

    @property
    def evaluation_cache_misses(self) -> int:
        return sum(chain.evaluation_cache_misses for chain in self.chain_results)

    @property
    def evaluation_cache_hit_rate(self) -> float:
        """Fraction of candidate evaluations (across all chains) served from cache."""
        total = self.evaluation_cache_hits + self.evaluation_cache_misses
        if total == 0:
            return 0.0
        return self.evaluation_cache_hits / total

    # ------------------------------------------------------------ per chain
    @property
    def chain_correlations(self) -> list[float | None]:
        """Best correlation per chain (``None`` for infeasible chains)."""
        return [
            None if chain.best_evaluation is None else chain.best_evaluation.correlation
            for chain in self.chain_results
        ]

    @property
    def traces(self) -> list[list[float]]:
        """Per-chain correlation traces (empty unless ``record_trace`` was on)."""
        return [chain.trace for chain in self.chain_results]

    @property
    def trace(self) -> list[float]:
        """The best chain's trace — the single-chain-compatible view."""
        best = self.best_chain
        return [] if best is None else best.trace


def _chain_configs(config: MCMCConfig) -> list[MCMCConfig]:
    """One single-chain config per chain, with deterministically derived seeds."""
    return [
        replace(config, chains=1, executor="serial", seed=chain_seed(config.seed, index))
        for index in range(config.chains)
    ]


def _run_chain(payload: tuple) -> tuple[MCMCResult, dict]:
    """Run one chain from a full payload with a private evaluation memo.

    The payload carries the join graph and the tables themselves.  A
    one-shot search's private pool runs every chain this way, and so does a
    persistent pool whose shared state does not cover a call (a write landed
    between the request's snapshot and its dispatch, or the caller passed
    tables the pool never published).  Returns the result and the memo for
    merging: it is the only way memo contents flow back to the scheduler.
    """
    (
        join_graph,
        initial,
        tables,
        source_attributes,
        target_attributes,
        fds,
        budget,
        max_weight,
        min_quality,
        config,
        intermediate_hook,
    ) = payload
    evaluation_cache: dict = {}
    result = mcmc_search(
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
    return result, evaluation_cache


def _preload_shared_worker(pinned: "_shm.PinnedSpec") -> None:
    """Shared-store pool initializer: attach and materialize once per worker.

    Failures are deliberately swallowed — the first chain call re-attaches
    lazily and surfaces the real error through the future instead of leaving
    the pool permanently broken from its initializer."""
    try:
        _shm.ensure_pinned_session(pinned)
    except Exception:  # dancelint: disable=ERR301 -- pool initializer must never raise
        pass


def _run_chain_shared(payload: tuple) -> tuple[MCMCResult, dict, dict]:
    """Run one chain against the shared-memory worker session (see shm.py).

    The worker state is *versioned*: ``ensure_pinned_session`` applies any
    published deltas before the walk, so a warm pool survives catalog
    updates without teardown, and a worker already at the payload's version
    never unpickles the spec.  The evaluation memos persist inside the
    worker across calls (plain dicts — no lock traffic); only the entries
    this call *added* are returned for merging, so warm calls ship back
    almost nothing."""
    (
        pinned,
        table_names,
        initial,
        source_attributes,
        target_attributes,
        budget,
        max_weight,
        min_quality,
        config,
        intermediate_hook,
        memo_key,
    ) = payload
    session, stats = _shm.ensure_pinned_session(pinned)
    join_graph = session.graph
    tables = {name: join_graph.sample(name) for name in table_names}
    evaluation_cache = session.evaluation_cache(memo_key)
    known_evaluations = set(evaluation_cache)
    result = mcmc_search(
        join_graph,
        initial,
        tables,
        source_attributes,
        target_attributes,
        session.fds,
        budget=budget,
        max_weight=max_weight,
        min_quality=min_quality,
        config=config,
        intermediate_hook=intermediate_hook,
        evaluation_cache=evaluation_cache,
    )
    evaluation_delta = {
        key: evaluation_cache[key]
        for key in evaluation_cache.keys() - known_evaluations
    }
    return result, evaluation_delta, stats


def _run_chain_batch(batch: tuple) -> list[tuple]:
    """Run a contiguous chunk of chain payloads inside one worker task.

    Ships several chains per IPC round-trip; ``worker`` is one of the
    module-level chain runners (they pickle by reference)."""
    worker, payloads = batch
    return [worker(payload) for payload in payloads]


def shared_chain_pool(
    join_graph: JoinGraph,
    fds: Sequence[FunctionalDependency],
    *,
    token: str,
    max_workers: int,
    version: int = 0,
) -> "tuple[ProcessPoolExecutor, _shm.SharedChainState]":
    """A persistent process pool of ``max_workers`` workers fed from shared memory.

    Instead of pickling the join graph into every worker, the encoded
    columnar state is published once into ``multiprocessing.shared_memory``
    and workers map the code arrays read-only.  The returned
    :class:`~repro.search.shm.SharedChainState` is the pool state to hand to
    :class:`ChainScheduler` *and* the version manager: publish deltas on
    catalog changes instead of rebuilding the pool, and ``close()`` it after
    the pool shuts down to unlink the segments."""
    state = _shm.SharedChainState(
        join_graph,
        fds,
        token=token,
        version=version,
    )
    pool = ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=_preload_shared_worker,
        initargs=(state.pinned(),),
    )
    return pool, state


class ChainScheduler:
    """Runs ``chains`` independently-seeded MCMC walks under one executor.

    Parameters
    ----------
    chains:
        Number of walks.  ``1`` is allowed and reproduces the single-chain
        search exactly (chain 0 keeps the base seed).
    executor:
        ``"serial"`` or ``"process"`` (see module docstring).
    pool:
        An externally-owned process pool serving the ``process`` chains,
        such as the one :func:`shared_chain_pool` builds.  The scheduler
        never shuts it down, so a long-lived caller (the acquisition service)
        can amortise pool startup across many ``mcmc_search`` calls.
        ``None`` (the default) creates and disposes a private pool of
        :func:`~repro.search.plan.pool_width` workers per :meth:`run` or
        :meth:`run_starts` call, the one-shot behaviour.
    pool_state:
        The :class:`~repro.search.shm.SharedChainState` of a
        :func:`shared_chain_pool`.  When it covers the call's graph and
        tables, chain payloads reference tables by name instead of pickling
        the graph and samples per chain; otherwise full payloads are sent
        (identical results, just slower).  Meaningless without ``pool``.
    """

    def __init__(
        self,
        chains: int,
        executor: str = "serial",
        *,
        pool: Executor | None = None,
        pool_state: "_shm.SharedChainState | None" = None,
    ) -> None:
        if chains < 1:
            raise SearchError(f"chains must be >= 1, got {chains}")
        if executor not in EXECUTORS:
            raise SearchError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        self.chains = chains
        self.executor = executor
        self.pool = pool
        self.pool_state = pool_state

    def _pool_size(self, payloads: int) -> int:
        """The batch width of one dispatch of ``payloads`` chain payloads.

        An external pool takes up to its own width; a pool built for the call
        is :func:`~repro.search.plan.pool_width` workers wide."""
        if self.pool is not None:
            width = getattr(self.pool, "_max_workers", None)
            if width:
                return max(1, min(width, payloads))
        return pool_width(self.chains)

    def run(
        self,
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
        evaluation_cache=None,
    ) -> MultiChainResult:
        """Run all chains and fold their results into a :class:`MultiChainResult`.

        Accepts the same arguments as :func:`repro.search.mcmc.mcmc_search`;
        ``config.chains`` is overridden by the scheduler's own chain count.
        A caller-supplied ``evaluation_cache`` is used directly by serial
        chains; the process executor merges each worker's new memo entries
        into it after the run, so contents survive for subsequent searches
        either way.  A process worker that dies raises
        :class:`~repro.exceptions.BrokenChainPoolError`.
        """
        (result,) = self.run_starts(
            join_graph,
            [(initial, tables)],
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
        return result

    def run_starts(
        self,
        join_graph: JoinGraph,
        starts: Sequence[tuple[TargetGraph, Mapping[str, Table]]],
        source_attributes: Sequence[str],
        target_attributes: Sequence[str],
        fds: Sequence[FunctionalDependency],
        *,
        budget: float,
        max_weight: float = float("inf"),
        min_quality: float = 0.0,
        config: MCMCConfig | None = None,
        intermediate_hook=None,
        evaluation_cache=None,
    ) -> list[MultiChainResult]:
        """:meth:`run` for several ``(initial graph, tables)`` starts in one dispatch.

        The chain payloads are start-major (every chain of the first start,
        then of the second, ...), go to the executor in one call, and come
        back as one :class:`MultiChainResult` per start, in order.  Every
        start's chains get the same seeds that a separate :meth:`run` would
        give them, so each result is that run's, bit for bit.  A
        caller-supplied memo serves every start; without one each start gets
        a fresh memo, as a separate run would.
        """
        if not starts:
            return []
        config = config or MCMCConfig()
        configs = _chain_configs(replace(config, chains=self.chains))
        covered = (
            self.executor == "process"
            and self.pool is not None
            and self.pool_state is not None
            and all(self.pool_state.covers(join_graph, tables, fds) for _, tables in starts)
        )
        shared_state = self.pool_state if covered else None
        constraints = (source_attributes, target_attributes, budget, max_weight, min_quality)
        if shared_state is not None:
            pinned = shared_state.pinned()
            # Namespacing the worker-persistent evaluation memo on the request
            # attributes mirrors the service's per-signature caches; the
            # remaining validity dimensions (samples, fds, pricing) are pinned
            # by the session version, which ensure_session brings up to date,
            # dropping the entries each delta may have changed, and the
            # re-sampling policy is the one the pool's session serves with.
            memo_key = (tuple(source_attributes), tuple(target_attributes))
            worker = _run_chain_shared

            def payload(initial, tables, chain_config) -> tuple:
                names = tuple(sorted(tables))
                return (
                    pinned, names, initial, *constraints, chain_config, intermediate_hook, memo_key
                )

        else:
            worker = _run_chain

            def payload(initial, tables, chain_config) -> tuple:
                return (
                    join_graph,
                    initial,
                    tables,
                    source_attributes,
                    target_attributes,
                    fds,
                    budget,
                    max_weight,
                    min_quality,
                    chain_config,
                    intermediate_hook,
                )

        payloads = [
            payload(initial, tables, chain_config)
            for initial, tables in starts
            for chain_config in configs
        ]
        start_caches = [
            evaluation_cache if evaluation_cache is not None else {} for _ in starts
        ]
        caches = [cache for cache in start_caches for _ in configs]
        if self.executor == "process":
            chain_results, chain_stats = self._run_process(
                payloads, caches, worker=worker, shared_state=shared_state
            )
        else:
            chain_results = self._run_serial(payloads, caches)
            chain_stats = [{} for _ in payloads]

        results = []
        for start, start_evaluations in enumerate(start_caches):
            span = slice(start * len(configs), (start + 1) * len(configs))
            worker_stats: dict = {}
            for stats in chain_stats[span]:
                for key, value in stats.items():
                    worker_stats[key] = worker_stats.get(key, 0) + value
            results.append(
                MultiChainResult(
                    chain_results=chain_results[span],
                    best_chain_index=_best_chain_index(chain_results[span]),
                    executor=self.executor,
                    evaluation_cache_size=len(start_evaluations),
                    worker_stats=worker_stats,
                )
            )
        return results

    # ------------------------------------------------------------ executors
    def _run_serial(self, payloads: list[tuple], caches: list) -> list[MCMCResult]:
        """Serial execution over literally shared memos.

        ``caches[i]`` is the evaluation memo payload ``i`` walks on.
        """

        def run_one(item: tuple) -> MCMCResult:
            (
                (
                    join_graph,
                    initial,
                    tables,
                    source_attributes,
                    target_attributes,
                    fds,
                    budget,
                    max_weight,
                    min_quality,
                    chain_config,
                    hook,
                ),
                evaluation_cache,
            ) = item
            return mcmc_search(
                join_graph,
                initial,
                tables,
                source_attributes,
                target_attributes,
                fds,
                budget=budget,
                max_weight=max_weight,
                min_quality=min_quality,
                config=chain_config,
                intermediate_hook=hook,
                evaluation_cache=evaluation_cache,
            )

        return [run_one(item) for item in zip(payloads, caches)]

    def _run_process(
        self,
        payloads: list[tuple],
        caches: list,
        *,
        worker=_run_chain,
        shared_state: "_shm.SharedChainState | None" = None,
    ) -> tuple[list[MCMCResult], list[dict]]:
        """Process execution: private memos per worker, merged afterwards.

        Each chain's new memo entries are merged into its ``caches[i]``.
        Shared-store workers (:func:`_run_chain_shared`) return a third
        element, per-call session stats, which is returned per chain
        and reported to the parent-side ``shared_state``.  A pool broken by
        a dead worker raises :class:`~repro.exceptions.BrokenChainPoolError`:
        a private pool is gone with the call, and the owner of an external
        one must replace it."""
        chain_results: list[MCMCResult] = []
        chain_stats: list[dict] = []

        def collect(outcome_lists) -> None:
            outcomes = (outcome for outcomes in outcome_lists for outcome in outcomes)
            for evaluation_cache, outcome in zip(caches, outcomes):
                result, chain_evaluations, *rest = outcome
                stats = rest[0] if rest else {}
                if shared_state is not None:
                    shared_state.note_worker_stats(stats)
                chain_results.append(result)
                chain_stats.append(stats)
                evaluation_cache.update(chain_evaluations)

        # One IPC round-trip per worker, not per chain: contiguous chunks
        # preserve chain order (map is ordered), and each worker walks its
        # chunk serially — results depend only on each chain's config, so
        # the grouping cannot change a single bit.
        width = self._pool_size(len(payloads))
        step = max(1, -(-len(payloads) // width))
        batches = [
            (worker, tuple(payloads[start : start + step]))
            for start in range(0, len(payloads), step)
        ]
        try:
            if self.pool is not None:
                collect(self.pool.map(_run_chain_batch, batches))
            else:
                with ProcessPoolExecutor(max_workers=width) as pool:
                    collect(pool.map(_run_chain_batch, batches))
        except BrokenExecutor as error:
            raise BrokenChainPoolError(
                f"a chain worker process died mid-search: {error}"
            ) from error
        return chain_results, chain_stats


def _best_chain_index(chain_results: Sequence[MCMCResult]) -> int | None:
    """The feasible chain with the highest correlation; ties → lowest index."""
    best_index: int | None = None
    best_correlation = float("-inf")
    for index, chain in enumerate(chain_results):
        if chain.best_evaluation is None:
            continue
        if chain.best_evaluation.correlation > best_correlation:
            best_index = index
            best_correlation = chain.best_evaluation.correlation
    return best_index
