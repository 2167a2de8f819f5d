"""The long-lived acquisition session: one hot marketplace, many requests.

``DANCE.acquire()`` is a one-shot call: every invocation runs Step 2 with
fresh caches per candidate I-graph and, for the process executor, spins a
fresh pool per ``mcmc_search`` call.  :class:`AcquisitionService`
keeps one marketplace *hot* instead:

* **Cache ownership.**  The service owns one evaluation memo *per request
  signature* ``(source attrs, target attrs)`` — evaluations depend on the
  requested attributes, so sharing them across different signatures would
  be wrong.  Each is a :class:`~repro.memo.Memo` of at most
  :data:`EVALUATION_MEMO_ENTRIES` entries, in a memo of at most
  :data:`EVALUATION_NAMESPACES` namespaces, handed to every search through
  :class:`~repro.search.acquisition.SearchRuntime`, so all candidate I-graphs
  of one request and all requests of one session share work.  JI weights
  are the join graph's alone: every walk on the graph's samples reads them
  (:meth:`~repro.graph.join_graph.JoinGraph.ji_cache_for`), so no served
  read computes JI.  Beside the evaluation memos sits one bounded
  :func:`~repro.relational.joins.lineage_memo` of the join lineages of
  graphs on which the re-sampling hook fired: a lineage depends on its
  graph, the tables and the session's one re-sampling policy, never on the
  request, so every single-walk search of the session replays a fired graph
  the session has already joined instead of joining it again.  It is never
  checkpointed.
* **Pool reuse.**  Under a process plan one persistent pool
  (:func:`repro.search.chains.shared_chain_pool`) serves every multi-chain
  ``mcmc_search`` call for the lifetime of the service: workers map the
  encoded samples read-only, chain payloads reference tables by name
  instead of re-pickling them, and graph changes reach the workers as
  versioned deltas instead of a pool teardown.  A pool broken by a dead
  worker fails the request that meets it with
  :class:`~repro.exceptions.BrokenChainPoolError`; the session disposes it,
  and the next request builds a fresh one.
* **Batched concurrency.**  :meth:`AcquisitionService.acquire_batch` executes
  a list of requests under a thread fan-out with deterministic per-request
  seeds (:func:`~repro.service.batch.request_seed`), returning results
  bit-identical to serving the requests one at a time.
* **One admission path.**  Every request passes the service's
  :class:`~repro.service.qos.QosScheduler` before it executes.  The
  scheduler bounds how many requests are admitted at once
  (``ServiceConfig(max_queue_depth=, admission=)``): a full queue either
  blocks the submitter (backpressure) or sheds the request
  (:class:`~repro.exceptions.AdmissionRejectedError`).  It grants in
  weighted-fair order over SLA tiers (``ServiceConfig(qos=)``,
  :mod:`repro.pricing.sla`), paces shoppers by token bucket where a tier
  sets a rate (:class:`~repro.exceptions.RateLimitedError`), and sheds a
  request that can no longer meet its deadline at grant time
  (:class:`~repro.exceptions.DeadlineExceededError`).  Batches are submitted
  in per-shopper round-robin order (:func:`~repro.service.batch.fair_order`).
  The scheduler only decides whether/when a request runs — never what it
  computes: seeds and result positions follow the request index.
* **Step-1 memo.**  ``minimal_weight_igraphs`` is a pure function of
  ``(terminal set, alpha, num_landmarks, landmark seed, graph version)``, so
  the service memoises it per that key; warm requests skip the
  landmark/Steiner search entirely.  It resets on every ``graph_version``
  bump, because the Steiner search reads the whole I-layer, and it holds at
  most :data:`STEP1_MEMO_ENTRIES` entries.
* **Walk-space memo.**  Beside it, one
  :class:`~repro.search.acquisition.WalkSpaceMemo` keeps, per I-graph and
  requested attribute set, Step 2's start and the move table and transition
  memo every single-chain walk from that start shares, so a read at a seed
  the session never saw still builds no graph an earlier walk built.  It
  resets with the Step-1 memo and holds at most
  :data:`~repro.search.acquisition.WALK_SPACE_GRAPHS` graphs.
* **Metrics.**  Per-request latency histograms with p50/p95/p99, the
  evaluation-cache hit-rate trend over a sliding window, queue
  depth/rejection counters and an in-flight gauge
  (:mod:`repro.service.metrics`), surfaced through :meth:`describe` /
  :meth:`metrics`, the CLI ``metrics`` command and the ``batch`` summary.
* **Incremental refresh.**  :meth:`register_source_tables` updates the join
  graph through DANCE's incremental path (only edges touching changed
  instances are recomputed) and invalidates exactly the session state the
  change made stale: the evaluation memos keep every entry the write cannot
  have changed (:func:`~repro.graph.target.prune_memos`), in the session and
  in shared-store pool workers, and the lineage memo keeps every lineage
  over unchanged instances; offline rebuilds drop them all.
* **Persistent session state.**  With ``ServiceConfig(catalog_path=...)``
  the service opens the catalog at startup (warming the offline phase; see
  :meth:`repro.core.dance.DANCE.persist`, which carries the JI weights),
  restores its Step-1 memo from the catalog's session namespace — guarded
  by a graph-state fingerprint, so the memo never outlives the tables it
  was computed on — and checkpoints marketplace, offline state, and memo
  back after :meth:`register_source_tables` (or explicitly via
  :meth:`persist`).  Restore and checkpoint failures degrade to a cold
  session with a ``RuntimeWarning``; they never fail serving.

Thread-safety contract: concurrent *serving* calls are safe (that is the
point of the batch API); management operations — ``register_source_tables``,
``rebuild_offline``, ``close`` — must not overlap in-flight requests, exactly
like schema changes on a live database are sequenced by the operator.

Iterative refinement (buying more samples mid-request) mutates shared session
state, so served requests run with refinement disabled; an infeasible request
reports its error in the :class:`~repro.service.batch.ServedRequest` and the
operator refreshes the session explicitly (``rebuild_offline`` at a higher
sampling rate) when infeasibility persists.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.core.result import AcquisitionResult
from repro.exceptions import (
    AdmissionRejectedError,
    BrokenChainPoolError,
    DeadlineExceededError,
    RateLimitedError,
    ReproError,
    StorageError,
)
from repro.graph.join_graph import JoinGraph
from repro.graph.target import prune_memos
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.memo import Memo
from repro.quality.fd import FunctionalDependency
from repro.relational.joins import lineage_memo
from repro.relational.table import Table
from repro.search.acquisition import SearchRuntime, WalkSpaceMemo
from repro.search.chains import shared_chain_pool
from repro.search.plan import pool_width
from repro.search.shm import SharedChainState
from repro.service.batch import BatchResult, ServedRequest, fair_order, request_seed
from repro.service.metrics import ServiceMetrics
from repro.service.qos import QosScheduler

_SERVICE_COUNTER = itertools.count()

#: Entries the Step-1 memo holds at most.  Read when a memo is made.
STEP1_MEMO_ENTRIES = 1024

#: Evaluations one request namespace's memo holds at most, and the
#: namespaces the session keeps at most.  An entry (signature plus
#: evaluation) pickles to about 350 B on TPC-H and TPC-E, so a full
#: namespace pickles to about 2.9 MB and the worst case, every namespace
#: full, to about 1.5 GB.  The benchmark's sessions peak at 41 entries over
#: 3 namespaces, far below either bound, so none of its reads meets an
#: eviction.  Read when a memo is made.
EVALUATION_MEMO_ENTRIES = 1 << 13
EVALUATION_NAMESPACES = 1 << 9

#: Errors that mean "the scheduler shed this request before it executed".
#: Shed requests appear in the queue/qos counters, never in
#: requests_served/errors — the accounting a rejected acquire() always had.
SHED_ERRORS = (AdmissionRejectedError, RateLimitedError, DeadlineExceededError)


class AcquisitionService:
    """Serves many acquisition requests over one offline phase.

    Parameters
    ----------
    marketplace:
        The marketplace to build the session on.
    config:
        The middleware configuration; ``config.service``
        (:class:`~repro.core.config.ServiceConfig`) holds the session knobs —
        base seed, batch fan-out, admission bound and tier table, catalog.
    known_fds:
        Forwarded to :class:`~repro.core.dance.DANCE`.
    source_tables:
        Shopper-owned instances registered before the offline phase.
    build_offline:
        Run the offline phase during construction (the default).  Pass
        ``False`` to defer it; the first served request triggers it then.

    Use as a context manager (or call :meth:`close`) to release the pools::

        with AcquisitionService(marketplace, config) as service:
            batch = service.acquire_batch(requests)
    """

    def __init__(
        self,
        marketplace: Marketplace,
        config: DanceConfig | None = None,
        *,
        known_fds: Mapping[str, Sequence[FunctionalDependency]] | None = None,
        source_tables: Sequence[Table] = (),
        build_offline: bool = True,
    ) -> None:
        self._dance = DANCE(marketplace, config, known_fds=known_fds)
        self.config = self._dance.config
        service_config = self.config.service
        self._seed = (
            service_config.seed if service_config.seed is not None else self.config.mcmc.seed
        )
        self._service_id = next(_SERVICE_COUNTER)
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: self._lock
        self._synced_version: int | None = None  # guarded-by: self._lock
        self._synced_fds: tuple[FunctionalDependency, ...] = ()  # guarded-by: self._lock
        self._lineage_memo = lineage_memo()  # guarded-by: self._lock
        self._evaluation_caches = Memo(EVALUATION_NAMESPACES)  # guarded-by: self._lock
        self._step1_memo: Memo | None = None  # guarded-by: self._lock
        self._walk_spaces = WalkSpaceMemo()  # guarded-by: self._lock
        self._chain_pool = None  # guarded-by: self._lock
        self._chain_pool_state: SharedChainState | None = None  # guarded-by: self._lock
        self._request_pool: ThreadPoolExecutor | None = None  # guarded-by: self._lock
        self._requests_served = 0  # guarded-by: self._lock
        self._batches_served = 0  # guarded-by: self._lock
        self._errors = 0  # guarded-by: self._lock
        self._in_flight = 0  # guarded-by: self._lock
        self._cache_resets = 0  # guarded-by: self._lock
        self._metrics = ServiceMetrics()
        self._scheduler = QosScheduler(
            service_config.qos,
            max_depth=service_config.max_queue_depth,
            policy=service_config.admission,
            execution_estimate=lambda: self._metrics.execution.percentile(0.5),
        )
        if service_config.catalog_path is not None:
            # Attach before the offline phase so build_offline can adopt the
            # catalog's persisted JI weights and FDs (warm restart).
            self._attach_catalog(service_config.catalog_path)
        if source_tables:
            self._dance.register_source_tables(list(source_tables))
        if build_offline:
            self._dance.build_offline()

    # ----------------------------------------------------------------- access
    @property
    def dance(self) -> DANCE:
        """The underlying middleware (treat as read-only while serving)."""
        return self._dance

    @property
    def join_graph(self) -> JoinGraph:
        return self._dance.join_graph

    @property
    def seed(self) -> int:
        """The service base seed that per-request seeds derive from."""
        return self._seed

    # ---------------------------------------------------------------- serving
    def acquire(
        self, request: AcquisitionRequest, *, seed: int | None = None
    ) -> AcquisitionResult:
        """Serve one request against the hot session state.

        Bit-identical to ``DANCE.acquire`` with the same seed *and refinement
        disabled* on a cold middleware (shared caches hold only deterministic
        values), but a warm repeat is served almost entirely from the
        evaluation memo (and skips Step 1 via the session's Step-1 memo).  A
        request that is infeasible at the current sampling rate raises
        ``InfeasibleAcquisitionError`` instead of buying more samples —
        refresh the session with :meth:`rebuild_offline` (see the module
        docstring).  ``seed`` defaults to the service base seed, so a
        repeated identical call is a repeated identical walk.

        Raises :class:`~repro.exceptions.AdmissionRejectedError` when the
        admission queue is full under the ``reject`` policy (under ``block``
        the call waits for a slot instead),
        :class:`~repro.exceptions.RateLimitedError` when the shopper's token
        bucket is empty, and :class:`~repro.exceptions.DeadlineExceededError`
        when the request's deadline is missed at grant — each carries a
        retry-after hint where meaningful.  An unknown ``request.tier``
        raises :class:`~repro.exceptions.PricingError`.
        """
        item = self._serve(request, 0, self._seed if seed is None else seed)
        if not isinstance(item.error, SHED_ERRORS):
            self._count(item)
        return item.require_result()

    def acquire_batch(
        self, requests: Sequence[AcquisitionRequest], *, seeds: Sequence[int] | None = None
    ) -> BatchResult:
        """Serve a batch of requests concurrently, deterministically.

        Every request gets the blake2b-derived seed of its batch *index*
        (``seeds`` overrides them positionally), runs under the thread
        fan-out of ``ServiceConfig.max_batch_workers``, and lands in the
        result at its request position — so the batch outcome is
        bit-identical to serving the same requests one at a time in order,
        whatever the fan-out or executor.  Requests that fail (infeasible
        constraints, unknown attributes) report their error on their
        :class:`~repro.service.batch.ServedRequest` without affecting the
        rest of the batch.

        Requests are *submitted* in per-shopper round-robin order
        (:func:`~repro.service.batch.fair_order` over ``request.shopper``),
        and each passes the scheduler like a single :meth:`acquire`: a shed
        request (queue full under ``reject``, rate-limited, deadline missed)
        carries its typed error on its batch slot.  A request naming an
        unknown tier refuses the whole batch before any of it runs.  Neither
        fairness nor the scheduler changes any served result — seeds and
        result positions follow the original request index.
        """
        requests = list(requests)
        if seeds is not None:
            seeds = list(seeds)
            if len(seeds) != len(requests):
                raise ReproError(
                    f"got {len(seeds)} seeds for {len(requests)} requests"
                )
        else:
            seeds = [request_seed(self._seed, index) for index in range(len(requests))]

        if not requests:
            return BatchResult(items=[])
        for request in requests:
            # An unknown tier is a caller error: refuse the batch before any
            # of it runs.
            self.config.service.qos.tier_of(request.tier)
        pool = self._ensure_request_pool()
        order = fair_order([request.shopper for request in requests])
        items: list[ServedRequest | None] = [None] * len(requests)
        if pool is None:
            for index in order:
                items[index] = self._serve(requests[index], index, seeds[index])
        else:
            # Workers submit into the scheduler themselves and block until
            # their grant, so this thread only fans the batch out.
            futures = {
                index: pool.submit(self._serve, requests[index], index, seeds[index])
                for index in order
            }
            for index, future in futures.items():
                items[index] = future.result()
        batch = BatchResult(items=items)
        with self._lock:
            self._batches_served += 1
        for item in items:
            # Shed items never executed: they appear in the queue/qos shed
            # counters, not in requests_served/errors — the same accounting
            # a shed single acquire() gets.
            if not isinstance(item.error, SHED_ERRORS):
                self._count(item)
        return batch

    def _serve(
        self, request: AcquisitionRequest, index: int, seed: int
    ) -> ServedRequest:
        """One request's trip through the scheduler (worker-side).

        Shed requests — rate-limited or rejected at submit, deadline-missed
        at grant — land their typed error on the item without ever holding
        an execution slot.
        """
        scheduler = self._scheduler
        try:
            ticket = scheduler.submit(request)
        except SHED_ERRORS as error:
            return ServedRequest(index=index, request=request, seed=seed, error=error)
        try:
            queued = scheduler.await_grant(ticket)
        except DeadlineExceededError as error:
            return ServedRequest(index=index, request=request, seed=seed, error=error)
        except BaseException:
            scheduler.abandon(ticket)
            raise
        try:
            return self._serve_item(request, index=index, seed=seed, queued_seconds=queued)
        finally:
            scheduler.release(ticket)

    def _serve_item(
        self, request: AcquisitionRequest, *, index: int, seed: int, queued_seconds: float
    ) -> ServedRequest:
        """Execute one granted request.

        ``queued_seconds`` is the scheduler's wait from submission to grant,
        and execution runs from the grant on, session plumbing included, so
        ``elapsed_seconds`` (queue wait + execution) is what the caller
        observed end to end.
        """
        start = time.perf_counter()
        runtime = self._runtime_for(request, seed)
        item = ServedRequest(index=index, request=request, seed=seed)
        with self._lock:
            self._in_flight += 1
        try:
            item.result = self._dance.acquire(request, runtime=runtime)
        except BrokenChainPoolError as error:
            item.error = error
            self._drop_broken_pool(runtime.pool)
        except ReproError as error:
            item.error = error
        finally:
            item.execution_seconds = time.perf_counter() - start
            item.queued_seconds = queued_seconds
            item.elapsed_seconds = queued_seconds + item.execution_seconds
            with self._lock:
                self._in_flight -= 1
            self._metrics.record_request(
                item.elapsed_seconds,
                ok=item.ok,
                cache_hit_rate=(
                    item.result.mcmc_cache_hit_rate if item.result is not None else None
                ),
                queued_seconds=queued_seconds,
                execution_seconds=item.execution_seconds,
            )
        return item

    def _drop_broken_pool(self, pool) -> None:
        """Dispose ``pool``, which a dead worker broke, unless it is gone already.

        Shutting the pool down unlinks its shared-memory segments, and the
        next request that needs a pool builds a fresh one.  A concurrent
        request that met the same broken pool finds it replaced and leaves
        the new one alone.
        """
        with self._lock:
            if pool is self._chain_pool:
                self._dispose_chain_pool_locked()

    def _count(self, item: ServedRequest) -> None:
        with self._lock:
            self._requests_served += 1
            if not item.ok:
                self._errors += 1

    # ------------------------------------------------------- session plumbing
    def _runtime_for(self, request: AcquisitionRequest, seed: int) -> SearchRuntime:
        """The session-scoped runtime of one request (caches, pool, seed)."""
        with self._lock:
            if self._closed:
                raise ReproError("the acquisition service has been closed")
            if self._dance._join_graph is None:
                # Deferred offline phase: build it once, under the lock, so
                # concurrent first requests cannot each buy a sample set.
                self._dance.build_offline()
            self._sync_locked()
            evaluation_cache = self._evaluation_cache_locked(request)
            lineages = self._lineage_memo
            step1_cache = self._step1_memo
            walk_spaces = self._walk_spaces
            pool, pool_state = self._chain_pool_locked()
        return SearchRuntime(
            evaluation_cache=evaluation_cache,
            lineage_memo=lineages,
            step1_cache=step1_cache,
            walk_spaces=walk_spaces,
            pool=pool,
            pool_state=pool_state,
            mcmc_seed=seed,
            # A policy rebuilt from its fields starts the seeded stream afresh
            # without copying the config's generator state.
            resampling=dataclasses.replace(self.config.resampling),
            allow_refinement=False,
        )

    def _sync_locked(self, changed: Sequence[str] | None = None) -> None:
        """Re-derive session state after a join-graph change (caller holds the lock).

        A one-step refresh that names its changed instances (``changed``, the
        added and replaced names of :meth:`register_source_tables`) prunes
        the evaluation and lineage memos by
        :func:`~repro.graph.target.prune_memos`: an entry survives unless the
        write changed one of its instances or (evaluations only) an FD its
        join can carry.  Any other version bump — an offline rebuild, or a
        change made on the middleware behind the session's back, which shows
        as a version gap — resets both and counts in ``cache_resets``.
        The Step-1 memo always resets, because its Steiner search reads the
        whole I-layer, and so does the walk-space memo, whose starts and
        proposal graphs come from the join graph's edges.

        A sync that pruned skips :meth:`_restore_caches_locked`: the catalog
        blob describes the state before the write.

        The chain pool's shared columnar store is *versioned*, not
        disposable: when ``changed`` names the touched instances, only their
        deltas are published (workers apply them in place and prune their own
        memos by the same rule); otherwise the published snapshot is rebased
        wholesale.  Either way the warm pool survives.
        """
        version = self._dance.graph_version
        if version == self._synced_version:
            return
        fds = tuple(self._dance.fds)
        pruned = (
            bool(changed)
            and self._synced_version is not None
            and version == self._synced_version + 1
        )
        if pruned:
            prune_memos(
                [memo for _, memo in self._evaluation_caches.items()],
                changed,
                self._synced_fds,
                fds,
                lineage_memo=self._lineage_memo,
            )
        else:
            if self._synced_version is not None:
                self._cache_resets += 1
            self._evaluation_caches = Memo(EVALUATION_NAMESPACES)
            self._lineage_memo = lineage_memo()
        self._synced_version = version
        self._synced_fds = fds
        self._step1_memo = Memo(STEP1_MEMO_ENTRIES)
        self._walk_spaces = WalkSpaceMemo()
        if not self._refresh_chain_pool_locked(version, changed):
            self._dispose_chain_pool_locked()
        if not pruned:
            self._restore_caches_locked()

    def _refresh_chain_pool_locked(
        self, version: int, changed: Sequence[str] | None
    ) -> bool:
        """Ship a graph change to a warm shared-store pool instead of killing it.

        Returns ``True`` when the pool's published state now matches the
        current graph (delta shipped, or snapshot rebased); ``False`` when
        there is no pool to refresh, so the caller falls back to the
        dispose-and-rebuild path.
        """
        state = self._chain_pool_state
        if state is None:
            return False
        graph = self._dance._join_graph
        if graph is None:
            return False
        if changed:
            state.publish_delta(
                graph, self._dance.fds, version=version, changed=tuple(changed)
            )
        else:
            state.rebase(graph, self._dance.fds, version=version)
        return True

    def _attach_catalog(self, path: str | Path) -> None:
        """Attach an existing catalog at ``path`` to the session's marketplace.

        A marketplace opened from the catalog already carries it; for a
        marketplace built from scratch this makes the persisted offline state
        and session caches visible (every read is fingerprint-guarded, so a
        catalog written for different data simply warms nothing).  A missing
        file is fine — the first checkpoint creates it; an unusable one
        degrades to a cold session with a ``RuntimeWarning``.
        """
        market = self._dance.marketplace
        if market.storage is not None:
            return
        target = Path(path)
        if not target.exists():
            return
        from repro import storage as _storage

        try:
            market._attach(_storage.open_backend(target))
        except StorageError as error:
            warnings.warn(
                f"ignoring unusable catalog at {target}: {error}",
                RuntimeWarning,
                stacklevel=3,
            )

    def _restore_caches_locked(self) -> None:
        """Seed the freshly reset Step-1 memo from the attached catalog.

        The persisted blob carries a fingerprint of the graph state (every
        sample table plus the revision counter) it was computed on; the memo
        is adopted only when the current graph hashes identically, since its
        keys embed the graph revision.  The ``"ji"`` entry an older catalog
        carries is ignored: the JI weights come back with the offline state.
        Any failure warns and serves cold; restoring is an optimisation,
        never a correctness dependency.
        """
        storage = self._dance.marketplace.storage
        if storage is None or self._dance._join_graph is None:
            return
        from repro.storage import NS_SESSION
        from repro.storage import serialize as _serialize

        try:
            payload = storage.get(NS_SESSION, "caches")
            if payload is None:
                return
            state = _serialize.loads(payload)
            if not isinstance(state, dict):
                raise StorageError("session cache state is not a mapping")
            graph = self._dance._join_graph
            fingerprint = _serialize.graph_state_fingerprint(
                graph._samples, graph.revision
            )
            if state.get("fingerprint") != fingerprint:
                return
            if self._step1_memo is not None and state.get("step1"):
                self._step1_memo.update(state["step1"])
        except Exception as error:  # dancelint: disable=ERR301 -- restore is best-effort
            warnings.warn(
                f"ignoring unreadable session caches in the catalog: {error}",
                RuntimeWarning,
                stacklevel=3,
            )

    def _evaluation_cache_locked(self, request: AcquisitionRequest) -> Memo:
        """The evaluation memo of one request signature (caller holds the lock).

        Evaluations depend on the source/target attribute sets (correlation is
        measured between them), so the memo is namespaced by
        ``(source_attributes, target_attributes)``; budgets and α/β
        constraints are applied *to* evaluations, never baked into them, so
        requests differing only in constraints share a namespace.  Past
        :data:`EVALUATION_NAMESPACES` the oldest namespace goes; a request
        that holds it keeps using it.
        """
        key = (request.source_attributes, request.target_attributes)
        cache = self._evaluation_caches.get(key)
        if cache is None:
            cache = Memo(EVALUATION_MEMO_ENTRIES)
            self._evaluation_caches[key] = cache
        return cache

    def _chain_pool_locked(self):
        """The persistent pool for multi-chain walks (caller holds the lock).

        Only a multi-chain process plan has one: a
        :func:`~repro.search.chains.shared_chain_pool` of
        :func:`~repro.search.plan.pool_width` workers, which map the columnar
        segments read-only and survive catalog updates through versioned
        deltas.  It is built on the first request that needs it.
        """
        plan = self.config.execution_plan
        if plan.executor != "process" or plan.chains <= 1:
            return None, None
        if self._chain_pool is None:
            self._chain_pool, self._chain_pool_state = shared_chain_pool(
                self._dance.join_graph,
                self._dance.fds,
                token=f"acqsvc-{self._service_id}",
                max_workers=pool_width(plan.chains),
                version=self._dance.graph_version,
            )
        return self._chain_pool, self._chain_pool_state

    def _ensure_request_pool(self) -> ThreadPoolExecutor | None:
        with self._lock:
            if self._closed:
                raise ReproError("the acquisition service has been closed")
            workers = self.config.service.max_batch_workers
            if workers <= 1:
                return None
            if self._request_pool is None:
                self._request_pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix=f"acquisition-service-{self._service_id}-batch",
                )
            return self._request_pool

    def _dispose_chain_pool_locked(self) -> None:
        if self._chain_pool is not None:
            self._chain_pool.shutdown(wait=True)
            # Unlink the published segments only after the workers exit —
            # POSIX keeps the memory alive for attached mappings, but the
            # leak check wants /dev/shm clean the moment the pool is gone.
            self._chain_pool_state.close()
            self._chain_pool = None
            self._chain_pool_state = None

    # ------------------------------------------------------------- management
    def register_source_tables(self, tables: Sequence[Table]) -> dict[str, object]:
        """Register shopper instances on the live session (incremental refresh).

        Forwards to :meth:`DANCE.register_source_tables` — pure additions
        update the join graph in place, recomputing only the edges that touch
        the new instances — then invalidates the session caches and pools the
        change made stale.  When the service has a catalog
        (``ServiceConfig(catalog_path=...)``), the refreshed state —
        marketplace, offline phase, session caches — is checkpointed to it in
        the same call, so a restart after the registration is warm; the
        summary gains a ``"checkpointed"`` flag and ``"checkpoint_blobs"``,
        the number of blobs the checkpoint put: every blob for a full
        rewrite, only those whose bytes changed for one in place, 0 when it
        failed.  Returns DANCE's refresh summary (mode, added / replaced
        names, edge recompute and AFD discovery counts) plus ``memo_kept``
        and ``memo_dropped``: how many memoised evaluations, over every
        request namespace, survived the write and how many it dropped (see
        :meth:`_sync_locked`), and ``lineages_kept`` and
        ``lineages_dropped``, the same for the join lineages.  Must not
        overlap in-flight requests.
        """
        with self._lock:
            summary = self._dance.register_source_tables(tables)
            entries = self._evaluation_entries_locked()
            lineages = len(self._lineage_memo)
            if self._dance._join_graph is not None:
                # Shared-store pools take a per-instance delta instead of a
                # teardown; a "noop" refresh did not bump the version, so
                # _sync_locked leaves every cache and pool untouched.
                changed = list(summary["added"]) + list(summary["replaced"])
                self._sync_locked(changed)
            summary["memo_kept"] = self._evaluation_entries_locked()
            summary["memo_dropped"] = entries - summary["memo_kept"]
            summary["lineages_kept"] = len(self._lineage_memo)
            summary["lineages_dropped"] = lineages - summary["lineages_kept"]
            if self.config.service.catalog_path is not None:
                try:
                    self._persist_locked(self.config.service.catalog_path)
                    summary["checkpointed"] = True
                    summary["checkpoint_blobs"] = self._dance.marketplace.checkpoint_blobs
                except StorageError as error:
                    summary["checkpointed"] = False
                    summary["checkpoint_blobs"] = 0
                    warnings.warn(
                        f"session checkpoint failed: {error}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
        return summary

    def persist(self, path: str | Path | None = None) -> object:
        """Checkpoint marketplace, offline state, and session caches.

        ``path`` defaults to ``ServiceConfig.catalog_path``, then to the
        marketplace's attached backend.  The session namespace stores the
        Step-1 memo under a fingerprint of the current graph state, so a
        restarted service only adopts it while the data is unchanged; the JI
        weights are part of the offline state.
        The write is all-or-nothing across every namespace: it rewrites the
        attached catalog in one transaction, putting only the blobs that
        changed, or else replaces the file through one temp-file rename (see
        :meth:`repro.marketplace.market.Marketplace.persist`).  Must not
        overlap in-flight requests.  Returns the attached backend.
        """
        with self._lock:
            if self._closed:
                raise ReproError("the acquisition service has been closed")
            if self._dance._join_graph is None:
                self._dance.build_offline()
            self._sync_locked()
            return self._persist_locked(path)

    def _persist_locked(self, path: str | Path | None = None) -> object:
        from repro.storage import NS_SESSION
        from repro.storage import serialize as _serialize

        def write_session(backend) -> None:
            graph = self._dance._join_graph
            if graph is None:
                return
            state = {
                "fingerprint": _serialize.graph_state_fingerprint(
                    graph._samples, graph.revision
                ),
                "step1": dict(self._step1_memo.items()) if self._step1_memo else {},
            }
            backend.put(NS_SESSION, "caches", _serialize.dumps(state))

        target = path if path is not None else self.config.service.catalog_path
        return self._dance.persist(target, extra=write_session)

    def rebuild_offline(self, *, sampling_rate: float | None = None) -> JoinGraph:
        """Re-run the offline phase (e.g. at a higher sampling rate) and resync.

        The rebuild itself is incremental where possible: DANCE reuses cached
        JI weights for instance pairs whose samples did not change (source
        tables never change when samples are re-bought).  Must not overlap
        in-flight requests.
        """
        with self._lock:
            graph = self._dance.build_offline(sampling_rate=sampling_rate)
            self._sync_locked()
        return graph

    def close(self) -> None:
        """Shut down the pools.  Idempotent; the service refuses new requests after."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._dispose_chain_pool_locked()
            if self._request_pool is not None:
                self._request_pool.shutdown(wait=True)
                self._request_pool = None

    def __enter__(self) -> "AcquisitionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- summaries
    def metrics(self) -> dict[str, object]:
        """The operational metrics dump (CLI ``metrics``, ``batch`` summary).

        Per-request latency (lifetime histogram buckets, p50/p95/p99 over the
        sliding window), the evaluation-cache hit-rate trend, the scheduler's
        queue counters (depth, peak, rejections, blocked time) and per-tier
        accounting, the in-flight gauge, and the hit accounting of the
        Step-1 memo and of the walk-space memo (whose ``graphs`` counts the
        starts and proposal graphs it holds).
        """
        with self._lock:
            in_flight = self._in_flight
            # Stable schema even before the first request syncs the session
            # (the memo is created lazily in _sync_locked).
            step1 = (
                self._step1_memo.snapshot()
                if self._step1_memo is not None
                else {"entries": 0, "hits": 0, "misses": 0}
            )
            walk_spaces = self._walk_spaces.snapshot()
        payload = self._metrics.snapshot()
        payload["in_flight"] = in_flight
        payload["queue"] = self._scheduler.snapshot()
        payload["qos"] = self._scheduler.qos_snapshot()
        payload["step1_memo"] = step1
        payload["walk_space_memo"] = walk_spaces
        return payload

    def _evaluation_entries_locked(self) -> int:
        return sum(len(cache) for _, cache in self._evaluation_caches.items())

    def describe(self) -> dict[str, object]:
        """A JSON-friendly snapshot of the session.

        ``cache_resets`` counts full memo resets (offline rebuilds, version
        gaps); a write that only pruned the memos is not one, and its
        ``register_source_tables`` summary reports what it kept and dropped.
        ``ji_cache_entries`` counts the join graph's JI weights, the only JI
        store.  ``lineage_cache_entries`` and ``lineage_cache_rows`` count
        the join lineages the session's lineage memo holds and the rows
        those hold (see :attr:`repro.relational.joins.JoinLineage.rows`), and
        ``walk_space_memo_entries`` and ``walk_space_memo_graphs`` the walk
        spaces the walk-space memo holds and their graphs (see
        :class:`repro.search.acquisition.WalkSpaceMemo`).
        """
        metrics = self.metrics()
        with self._lock:
            evaluation_entries = self._evaluation_entries_locked()
            walk_spaces = self._walk_spaces.snapshot()
            graph = self._dance._join_graph
            return {
                "seed": self._seed,
                "requests_served": self._requests_served,
                "batches_served": self._batches_served,
                "errors": self._errors,
                "in_flight": self._in_flight,
                "cache_resets": self._cache_resets,
                "graph_version": self._dance.graph_version,
                "evaluation_cache_groups": len(self._evaluation_caches),
                "evaluation_cache_entries": evaluation_entries,
                "ji_cache_entries": 0 if graph is None else len(graph._ji_cache),
                "lineage_cache_entries": len(self._lineage_memo),
                "lineage_cache_rows": self._lineage_memo.units,
                "step1_memo_entries": (
                    0 if self._step1_memo is None else len(self._step1_memo)
                ),
                "walk_space_memo_entries": walk_spaces["entries"],
                "walk_space_memo_graphs": walk_spaces["graphs"],
                "chain_pool": None if self._chain_pool is None else self.config.mcmc.executor,
                "execution_plan": self.config.execution_plan.spec(),
                "shared_store": (
                    None
                    if self._chain_pool_state is None
                    else self._chain_pool_state.stats()
                ),
                "batch_workers": self.config.service.max_batch_workers,
                "metrics": metrics,
                "dance": self._dance.describe(),
            }
