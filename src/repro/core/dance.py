"""The DANCE middleware.

DANCE sits between the data shopper and the marketplace.  During the offline
phase it buys correlated samples of every hosted instance and builds the
two-layer join graph; during the online phase it answers acquisition requests
by running the two-step heuristic search on that graph and translating the
winning target graph into SQL projection queries.  When no feasible target
graph exists it iteratively buys more samples (at a higher sampling rate) and
retries, exactly as described in Section 2.1 of the paper.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.config import DanceConfig
from repro.core.result import AcquisitionResult, queries_for_target_graph
from repro.exceptions import InfeasibleAcquisitionError, StorageError
from repro.graph.join_graph import JoinGraph
from repro.graph.landmarks import derive_landmark_seed
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.quality.discovery import discover_afds
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.sampling.correlated import CorrelatedSampler
from repro.search.acquisition import SearchRuntime, heuristic_acquisition


class DANCE:
    """Data Acquisition framework on oNline data markets for CorrElation analysis.

    The middleware between a data shopper and a :class:`Marketplace`
    (Section 2.1 of the paper).  Typical use::

        dance = DANCE(marketplace)
        dance.build_offline()                      # buy samples, build the join graph
        result = dance.acquire(request)            # online search for one request
        print(result.sql())                        # the projection queries to purchase

    Parameters
    ----------
    marketplace:
        The marketplace to buy samples and instances from.
    config:
        All tunable knobs (sampling rate, MCMC budget, refinement policy,
        ...); defaults to :class:`DanceConfig`.
    known_fds:
        Known functional dependencies per instance name; instances without an
        entry get AFDs discovered on their samples instead.
    """

    def __init__(
        self,
        marketplace: Marketplace,
        config: DanceConfig | None = None,
        *,
        known_fds: Mapping[str, Sequence[FunctionalDependency]] | None = None,
    ) -> None:
        self.marketplace = marketplace
        self.config = config or DanceConfig()
        self._known_fds = {
            name: list(fds) for name, fds in (known_fds or {}).items()
        }
        self._samples: dict[str, Table] = {}
        self._source_tables: dict[str, Table] = {}
        self._join_graph: JoinGraph | None = None
        self._fds: list[FunctionalDependency] = []
        # Per instance name, the table AFDs were last discovered on and the
        # result; see _collect_fds for when an entry is reused.
        self._discovered: dict[str, tuple[Table, list[FunctionalDependency]]] = {}
        self._afd_discoveries = 0
        self._sample_cost = 0.0
        self._current_rate = self.config.sampling_rate
        self._graph_version = 0

    # --------------------------------------------------------------- offline
    @property
    def join_graph(self) -> JoinGraph:
        if self._join_graph is None:
            raise InfeasibleAcquisitionError(
                "the offline phase has not run yet; call build_offline() first"
            )
        return self._join_graph

    @property
    def sample_cost(self) -> float:
        """Total amount spent on samples so far."""
        return self._sample_cost

    @property
    def fds(self) -> list[FunctionalDependency]:
        """The FDs used for quality measurement (known plus discovered on samples)."""
        return list(self._fds)

    @property
    def afd_discoveries(self) -> int:
        """How many instance tables AFDs were mined on so far (see :meth:`_collect_fds`)."""
        return self._afd_discoveries

    @property
    def graph_version(self) -> int:
        """Monotonic counter bumped whenever the join graph's tables change.

        Long-lived callers (the acquisition service) key their derived caches
        and worker-preloaded pools on this: a version bump means evaluation
        memo entries and pool worker state may describe stale tables.
        """
        return self._graph_version

    def register_source_tables(self, tables: Sequence[Table]) -> dict[str, object]:
        """Register the shopper's local instances; they join for free.

        When the offline phase has already run, the join graph is updated
        immediately so the new sources participate in subsequent acquisitions
        (previously they were silently absent until the next offline rebuild).
        Genuinely new instances are added incrementally (only the edges
        touching them are computed); replacing an already-known instance
        rebuilds the graph so the FDs collected from the old data are dropped
        too — but the rebuild reuses the prior graph's cached JI weights for
        every instance pair whose samples did not change, so it only
        recomputes the edges touching the replaced instances, and it re-mines
        AFDs on the replaced instances only.

        Returns a summary: which names were added vs. replaced, how the graph
        was refreshed (``"deferred"`` before the offline phase,
        ``"incremental"`` for pure additions, ``"rebuild"`` for
        replacements, ``"noop"`` when every "replacement" is the identical
        table object already in the graph), how many I-edge weight maps
        were actually recomputed (``edge_recomputes``) and on how many tables
        AFDs were mined (``afd_discoveries``).  A no-op refresh does **not**
        bump :attr:`graph_version` — re-registering unchanged tables must not
        tear down session caches or warm worker pools keyed on the version.
        """
        added: list[str] = []
        replaced: list[str] = []
        for table in tables:
            if table.name in self._source_tables or table.name in self._samples:
                replaced.append(table.name)
            else:
                added.append(table.name)
            self._source_tables[table.name] = table
        summary: dict[str, object] = {"added": added, "replaced": replaced}
        if not tables or self._join_graph is None:
            summary["mode"] = "deferred"
            summary["edge_recomputes"] = 0
            summary["afd_discoveries"] = 0
            return summary
        if not added and all(
            table.name in self._join_graph
            and self._join_graph.sample(table.name) is table
            for table in tables
        ):
            summary["mode"] = "noop"
            summary["edge_recomputes"] = 0
            summary["afd_discoveries"] = 0
            return summary
        discoveries_before = self._afd_discoveries
        if replaced:
            self._rebuild_graph()
            summary["mode"] = "rebuild"
            summary["edge_recomputes"] = self._join_graph.edge_recomputes
            summary["afd_discoveries"] = self._afd_discoveries - discoveries_before
            return summary
        recomputes_before = self._join_graph.edge_recomputes
        seen = {(fd.lhs, fd.rhs) for fd in self._fds}
        for table in tables:
            self._join_graph.add_instance(table, is_source=True)
            for fd in self._collect_fds({table.name: table}):
                if (fd.lhs, fd.rhs) not in seen:
                    seen.add((fd.lhs, fd.rhs))
                    self._fds.append(fd)
        self._graph_version += 1
        summary["mode"] = "incremental"
        summary["edge_recomputes"] = self._join_graph.edge_recomputes - recomputes_before
        summary["afd_discoveries"] = self._afd_discoveries - discoveries_before
        return summary

    def build_offline(self, *, sampling_rate: float | None = None) -> JoinGraph:
        """Run the offline phase: buy samples of every hosted instance, build the graph."""
        rate = sampling_rate if sampling_rate is not None else self.config.sampling_rate
        self._current_rate = rate
        sampler = CorrelatedSampler(rate=rate, seed=self.config.sampling_seed)
        # Sample each dataset over its candidate join attributes (attributes
        # shared with other datasets, known from the free schema catalog), so
        # that joinable rows survive sampling together across instances.
        samples, cost = self.marketplace.sell_samples(
            sampler, join_attributes_by_dataset=self.marketplace.shared_attribute_map()
        )
        self._sample_cost += cost
        self._samples = samples
        self._rebuild_graph()
        return self.join_graph

    def _rebuild_graph(self) -> None:
        tables: dict[str, Table] = dict(self._samples)
        tables.update(self._source_tables)
        # Reusing the prior graph's JI cache makes the rebuild incremental:
        # only pairs whose endpoint samples changed are recomputed (identity
        # check inside JoinGraph), e.g. only the replaced source's edges after
        # register_source_tables, or only hosted-instance edges after a
        # refinement round re-buys samples (shopper tables never change).
        # The *first* build in a process has no prior graph to reuse; when the
        # marketplace carries a catalog with persisted offline state, JI
        # weights and per-instance FD lists are adopted from there instead
        # for every unchanged table — a warm restart recomputes zero edges
        # and mines no table.
        preload_ji = None
        if self._join_graph is None:
            preload_ji = self._offline_preload(tables)
        self._join_graph = JoinGraph(
            tables,
            pricing=self.marketplace.pricing,
            max_join_attribute_size=self.config.max_join_attribute_size,
            source_instances=tuple(self._source_tables),
            reuse_cache_from=self._join_graph,
            preload_ji=preload_ji,
        )
        # An instance that left the graph must not keep its table alive.
        self._discovered = {
            name: entry for name, entry in self._discovered.items() if name in tables
        }
        self._fds = self._collect_fds(tables)
        self._graph_version += 1

    def _offline_preload(self, tables: Mapping[str, Table]) -> dict | None:
        """Adopt offline-phase state from the marketplace's catalog.

        Returns the JI weights valid for ``tables``: persisted weights whose
        endpoint fingerprints match the tables about to enter the graph
        (sampling is deterministic, so an unchanged source instance
        reproduces an unchanged sample).  Under the same guard, and when the
        AFD parameters match, each persisted per-instance FD list seeds
        ``_discovered``, so :meth:`_collect_fds` mines only changed tables.
        Unreadable offline state degrades to a cold build with a
        ``RuntimeWarning``; it never fails the build.
        """
        storage = self.marketplace.storage
        if storage is None:
            return None
        from repro.storage import NS_OFFLINE
        from repro.storage import serialize as _serialize

        try:
            payload = storage.get(NS_OFFLINE, "state")
            if payload is None:
                return None
            state = _serialize.loads(payload)
            if not isinstance(state, dict):
                raise StorageError("offline state is not a mapping")
            current = _serialize.fingerprint_tables(tables)
            stored = state.get("fingerprints", {})
            preload = _serialize.ji_weights_from_spec(state.get("ji", ()), stored, current)
        except StorageError as error:
            warnings.warn(
                f"ignoring unreadable offline state in the catalog: {error}",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        if tuple(state.get("afd_params", ())) == (
            self.config.afd_max_violation,
            self.config.afd_max_lhs_size,
        ):
            for name, fds in dict(state.get("instance_fds", {})).items():
                if name in current and current[name] == stored.get(name):
                    self._discovered[name] = (tables[name], list(fds))
        return preload or None

    def persist(self, path: str | Path | None = None) -> object:
        """Checkpoint marketplace *and* offline phase into one catalog.

        Persists the marketplace (tables, encodings, pricing, revenues) plus
        the offline state this middleware derived from it: per-sample content
        fingerprints, every cached JI edge weight, and the FD list of every
        instance AFDs were mined on — everything a fresh process needs for
        :meth:`build_offline` on the reopened catalog to recompute **zero** JI
        edges and mine no table.  A ``path`` names a sqlite catalog file.  The
        write is all-or-nothing whether it rewrites the attached catalog in
        place or replaces the file (see
        :meth:`repro.marketplace.market.Marketplace.persist`).  Returns the
        attached backend.
        """
        from repro.storage import META_OFFLINE, NS_OFFLINE
        from repro.storage import serialize as _serialize

        def write_offline(backend) -> None:
            if self._join_graph is not None:
                graph = self._join_graph
                state = {
                    "fingerprints": _serialize.fingerprint_tables(graph._samples),
                    "ji": _serialize.ji_weights_to_spec(graph._ji_cache),
                    "instance_fds": {
                        name: self._discovered[name][1]
                        for name in sorted(self._discovered)
                        if graph._samples.get(name) is self._discovered[name][0]
                    },
                    "afd_params": (
                        self.config.afd_max_violation,
                        self.config.afd_max_lhs_size,
                    ),
                    "sampling": {
                        "rate": self._current_rate,
                        "seed": self.config.sampling_seed,
                    },
                    "sample_cost": self._sample_cost,
                    "revision": graph.revision,
                }
                backend.put(NS_OFFLINE, "state", _serialize.dumps(state))
                backend.put_meta(
                    META_OFFLINE,
                    {
                        "num_instances": len(graph),
                        "ji_entries": len(graph._ji_cache),
                        "num_fds": len(self._fds),
                        "sampling_rate": self._current_rate,
                    },
                )

        return self.marketplace.persist(path, extra=write_offline)

    def _collect_fds(self, tables: Mapping[str, Table]) -> list[FunctionalDependency]:
        """Known FDs plus AFDs discovered on ``tables``, deduplicated in table order.

        An instance whose table is the *same object* as at its last discovery
        reuses that FD list — the identity rule ``JoinGraph`` applies to JI
        weights — so a rebuild mines only new or replaced instances (a
        refinement round's re-bought samples are new objects); a warm build
        seeds the entries of unchanged tables from the catalog (see
        :meth:`_offline_preload`).  A miss overwrites the instance's entry and
        counts in ``_afd_discoveries``.
        """
        fds: list[FunctionalDependency] = []
        seen: set[tuple] = set()
        for name, table in tables.items():
            entry = self._discovered.get(name)
            if name in self._known_fds:
                table_fds = self._known_fds[name]
            elif entry is not None and entry[0] is table:
                table_fds = entry[1]
            else:
                table_fds = discover_afds(
                    table,
                    max_violation=self.config.afd_max_violation,
                    max_lhs_size=self.config.afd_max_lhs_size,
                )
                self._discovered[name] = (table, table_fds)
                self._afd_discoveries += 1
            for fd in table_fds:
                key = (fd.lhs, fd.rhs)
                if key not in seen:
                    seen.add(key)
                    fds.append(fd)
        return fds

    # ---------------------------------------------------------------- online
    def acquire(
        self, request: AcquisitionRequest, *, runtime: SearchRuntime | None = None
    ) -> AcquisitionResult:
        """Answer one acquisition request (the online phase, Algorithm 1 + Step 1).

        Runs the two-step heuristic search — landmark-based I-graph seeding,
        then the MCMC walk over the AS-layer — on the offline join graph, and
        translates the best feasible target graph into billed projection
        queries.  When no feasible target graph exists, DANCE buys more
        samples at a higher sampling rate and retries, up to
        ``config.max_refinement_rounds`` times (iterative refinement).

        Parameters
        ----------
        request:
            ``A_S``/``A_T`` (source/target attributes), the budget ``B``, and
            the optional join-informativeness / quality constraints
            (``max_join_informativeness`` = α, ``min_quality`` = β).
        runtime:
            Optional :class:`~repro.search.acquisition.SearchRuntime` carrying
            session-scoped state — shared caches, a persistent executor pool,
            a per-request seed override, and a private re-sampling policy.
            Supplied by the acquisition service (:mod:`repro.service`); when
            given, iterative refinement is skipped unless
            ``runtime.allow_refinement`` is set, because refinement mutates
            shared middleware state.

        The result is the caller's own: its queries and chain list are built
        for this call, and its target graph is the call's private winner or,
        with a walk-space memo (``runtime.walk_spaces``), a copy of it, so
        mutating the result changes no later answer.

        Returns
        -------
        AcquisitionResult
            The winning target graph, its evaluation (estimated correlation,
            price, quality), the projection queries to purchase (``.sql()``),
            and diagnostics such as the MCMC evaluation-cache hit rate.

        Raises
        ------
        InfeasibleAcquisitionError
            When no feasible target graph exists even after the configured
            number of refinement rounds.

        Calls :meth:`build_offline` implicitly if the offline phase has not
        run yet.
        """
        if self._join_graph is None:
            self.build_offline()

        max_rounds = self.config.max_refinement_rounds
        if runtime is not None and not runtime.allow_refinement:
            max_rounds = 0
        rounds = 0
        last_error: InfeasibleAcquisitionError | None = None
        while rounds <= max_rounds:
            try:
                result = self._search_once(request, runtime=runtime)
            except InfeasibleAcquisitionError as error:
                result = None
                last_error = error
            if result is not None:
                result.refinement_rounds = rounds
                return result
            rounds += 1
            if rounds > max_rounds:
                break
            # Buy more samples at a higher rate and retry (iterative refinement).
            next_rate = min(1.0, self._current_rate * self.config.refinement_rate_multiplier)
            if next_rate <= self._current_rate:
                break
            self.build_offline(sampling_rate=next_rate)
        raise last_error or InfeasibleAcquisitionError(
            "no feasible acquisition satisfies the request constraints"
        )

    def _search_once(
        self, request: AcquisitionRequest, *, runtime: SearchRuntime | None = None
    ) -> AcquisitionResult | None:
        runtime = runtime or SearchRuntime()
        resampling = (
            runtime.resampling if runtime.resampling is not None else self.config.resampling
        )
        seed = runtime.mcmc_seed if runtime.mcmc_seed is not None else self.config.mcmc.seed
        mcmc_config = self.config.mcmc
        if runtime.plan is not None:
            # A runtime plan re-routes where chains execute; (seed, chains)
            # still pins the results bit for bit.
            mcmc_config = replace(
                mcmc_config, chains=runtime.plan.chains, executor=runtime.plan.executor
            )
        if seed != mcmc_config.seed:
            mcmc_config = replace(mcmc_config, seed=seed)
        heuristic = heuristic_acquisition(
            self.join_graph,
            request.source_attributes,
            request.target_attributes,
            self._fds,
            budget=request.budget,
            max_weight=request.max_join_informativeness,
            min_quality=request.min_quality,
            num_landmarks=self.config.num_landmarks,
            mcmc_config=mcmc_config,
            # Landmark selection gets its own blake2b-derived stream so Step 1
            # never replays the MCMC proposal draws seeded from the same base.
            landmark_seed=derive_landmark_seed(seed),
            intermediate_hook=resampling if resampling.enabled else None,
            evaluation_cache=runtime.evaluation_cache,
            walk_spaces=runtime.walk_spaces,
            pool=runtime.pool,
            pool_state=runtime.pool_state,
        )
        if not heuristic.feasible:
            return None
        target_graph, evaluation = heuristic.require_feasible()
        if runtime.walk_spaces is not None:
            # The winner may be a graph of the session's walk-space memo,
            # which later walks read: the caller gets a copy to keep.
            target_graph = target_graph.copy()
        queries = queries_for_target_graph(target_graph, exclude=tuple(self._source_tables))
        # MCMCResult and MultiChainResult expose the same chain-diagnostic
        # surface (n_chains, executor, best_chain_index, chain_correlations).
        mcmc = heuristic.mcmc
        return AcquisitionResult(
            target_graph=target_graph,
            evaluation=evaluation,
            queries=queries,
            sample_cost=self._sample_cost,
            igraph_size=heuristic.igraph_size,
            igraph_index=heuristic.igraph_index,
            mcmc_cache_hit_rate=mcmc.evaluation_cache_hit_rate,
            mcmc_chains=mcmc.n_chains,
            mcmc_executor=mcmc.executor,
            mcmc_best_chain=mcmc.best_chain_index or 0,
            mcmc_chain_correlations=mcmc.chain_correlations,
        )

    # --------------------------------------------------------------- summaries
    def describe(self) -> dict[str, object]:
        graph_info: dict[str, object] = {}
        if self._join_graph is not None:
            graph_info = self._join_graph.describe()
        return {
            "marketplace": self.marketplace.describe(),
            "sampling_rate": self._current_rate,
            "sample_cost": self._sample_cost,
            "num_fds": len(self._fds),
            "join_graph": graph_info,
        }


def build_dance(
    marketplace: Marketplace,
    *,
    config: DanceConfig | None = None,
    source_tables: Sequence[Table] = (),
    mcmc_iterations: int | None = None,
) -> DANCE:
    """Convenience constructor: register sources, run the offline phase, return DANCE.

    Equivalent to constructing :class:`DANCE`, calling
    :meth:`DANCE.register_source_tables` with ``source_tables``, and then
    :meth:`DANCE.build_offline` — the returned middleware is ready for
    :meth:`DANCE.acquire` calls.  ``mcmc_iterations`` overrides the iteration
    count on a *copy* of the given configuration — the caller's
    ``DanceConfig`` is never mutated.
    """
    if mcmc_iterations is not None:
        base = config or DanceConfig()
        config = replace(base, mcmc=replace(base.mcmc, iterations=mcmc_iterations))
    dance = DANCE(marketplace, config)
    if source_tables:
        dance.register_source_tables(list(source_tables))
    dance.build_offline()
    return dance
