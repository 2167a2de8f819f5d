"""The long-lived acquisition session: one hot marketplace, many requests.

``DANCE.acquire()`` is a one-shot call: every invocation runs Step 2 with
fresh caches per candidate I-graph and, for the thread/process executors,
spins a fresh pool per ``mcmc_search`` call.  :class:`AcquisitionService`
keeps one marketplace *hot* instead:

* **Cache ownership.**  The service owns one JI cache (structural keys —
  valid service-wide) and one evaluation memo *per request signature*
  ``(source attrs, target attrs)`` — evaluations depend on the requested
  attributes, so sharing them across different signatures would be wrong.
  Both live in :class:`~repro.search.chains.LockStripedCache` instances and
  are handed to every search through
  :class:`~repro.search.acquisition.SearchRuntime`, so all candidate I-graphs
  of one request and all requests of one session share work.
* **Pool reuse.**  One persistent executor serves every multi-chain
  ``mcmc_search`` call for the lifetime of the service.  Process plans use
  the shared columnar store by default
  (:func:`repro.search.chains.shared_chain_pool`): workers map the encoded
  samples read-only and take graph changes as versioned deltas instead of a
  pool teardown.  With ``shared_store=off``,
  :func:`repro.search.chains.process_chain_pool` preloads the join graph and
  FDs into the workers once and is rebuilt on every graph change.  Either
  way chain payloads reference tables by name instead of re-pickling them.
* **Batched concurrency.**  :meth:`AcquisitionService.acquire_batch` executes
  a list of requests under a thread fan-out with deterministic per-request
  seeds (:func:`~repro.service.batch.request_seed`), returning results
  bit-identical to serving the requests one at a time.
* **Bounded admission.**  Every request passes the service's
  :class:`~repro.service.admission.AdmissionQueue` before it reaches a worker
  (``ServiceConfig(max_queue_depth=, admission=)``): a full queue either
  blocks the submitter (backpressure) or sheds the request
  (:class:`~repro.exceptions.AdmissionRejectedError`).  Batches are submitted
  in per-shopper round-robin order (:func:`~repro.service.admission.fair_order`)
  so one shopper's burst cannot starve another's requests.  Admission only
  decides whether/when a request runs — never what it computes.
* **QoS scheduling.**  With ``ServiceConfig(qos=...)`` the FIFO admission
  queue is replaced by the :class:`~repro.service.qos.QosScheduler`:
  weighted fair queueing over SLA tiers (:mod:`repro.pricing.sla`),
  per-shopper token-bucket rate limits
  (:class:`~repro.exceptions.RateLimitedError`), and deadline-aware shedding
  at dequeue time (:class:`~repro.exceptions.DeadlineExceededError`).  The
  same invariant holds: QoS permutes whether/when a request runs, never its
  served bits — seeds and result positions follow the request index.
* **Step-1 memo.**  ``minimal_weight_igraphs`` is a pure function of
  ``(terminal set, alpha, num_landmarks, landmark seed, graph version)``, so
  the service memoises it per that key
  (``ServiceConfig(step1_memo=True)``); warm requests skip the
  landmark/Steiner search entirely.  It resets on every ``graph_version``
  bump, because the Steiner search reads the whole I-layer.
* **Metrics.**  Per-request latency histograms with p50/p95/p99, the
  evaluation-cache hit-rate trend over a sliding window, queue
  depth/rejection counters and an in-flight gauge
  (:mod:`repro.service.metrics`), surfaced through :meth:`describe` /
  :meth:`metrics`, the CLI ``metrics`` command and the ``batch`` summary.
* **Incremental refresh.**  :meth:`register_source_tables` updates the join
  graph through DANCE's incremental path (only edges touching changed
  instances are recomputed) and invalidates exactly the session state the
  change made stale: the evaluation and JI memos keep every entry the write
  cannot have changed (:func:`~repro.graph.target.prune_memos`), in the
  session and in shared-store pool workers; offline rebuilds drop them.
* **Persistent session state.**  With ``ServiceConfig(catalog_path=...)``
  the service opens the catalog at startup (warming the offline phase; see
  :meth:`repro.core.dance.DANCE.persist`), restores its JI cache and Step-1
  memo from the catalog's session namespace — guarded by a graph-state
  fingerprint, so caches never outlive the tables they were computed on —
  and checkpoints marketplace, offline state, and caches back after
  :meth:`register_source_tables` (or explicitly via :meth:`persist`).
  Restore and checkpoint failures degrade to a cold session with a
  ``RuntimeWarning``; they never fail serving.

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
    DeadlineExceededError,
    RateLimitedError,
    ReproError,
    StorageError,
)
from repro.graph.join_graph import JoinGraph
from repro.graph.target import prune_memos
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.search.acquisition import SearchRuntime
from repro.search.chains import (
    ChainPoolState,
    LockStripedCache,
    process_chain_pool,
    shared_chain_pool,
)
from repro.search.shm import SharedChainState
from repro.service.admission import AdmissionQueue, fair_order
from repro.service.batch import BatchResult, ServedRequest, request_seed
from repro.service.metrics import CountingCache, ServiceMetrics
from repro.service.qos import QosScheduler, disabled_qos_snapshot, retry_after_hint

_SERVICE_COUNTER = itertools.count()

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
        base seed, batch fan-out, persistent pool size, cache sharing.
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
        self._ji_cache: LockStripedCache | None = None  # guarded-by: self._lock
        self._evaluation_caches: dict[tuple, LockStripedCache] = {}  # guarded-by: self._lock
        self._step1_memo: CountingCache | None = None  # guarded-by: self._lock
        self._chain_pool = None  # guarded-by: self._lock
        self._chain_pool_state: ChainPoolState | None = None  # guarded-by: self._lock
        self._request_pool: ThreadPoolExecutor | None = None  # guarded-by: self._lock
        self._requests_served = 0  # guarded-by: self._lock
        self._batches_served = 0  # guarded-by: self._lock
        self._errors = 0  # guarded-by: self._lock
        self._in_flight = 0  # guarded-by: self._lock
        self._cache_resets = 0  # guarded-by: self._lock
        self._admission = AdmissionQueue(
            service_config.max_queue_depth, service_config.admission
        )
        self._metrics = ServiceMetrics(window=service_config.metrics_window)
        self._qos: QosScheduler | None = (
            QosScheduler(
                service_config.qos,
                max_depth=service_config.max_queue_depth,
                policy=service_config.admission,
                execution_estimate=lambda: self._metrics.execution.percentile(0.5),
            )
            if service_config.qos is not None
            else None
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
        admission queue is full under the ``reject`` policy; under ``block``
        the call waits for a slot instead.  Under QoS
        (``ServiceConfig(qos=...)``) the call may additionally raise
        :class:`~repro.exceptions.RateLimitedError` (token bucket empty) or
        :class:`~repro.exceptions.DeadlineExceededError` (deadline missed at
        dequeue) — all three carry a retry-after hint where meaningful.
        """
        resolved_seed = self._seed if seed is None else seed
        if self._qos is not None:
            item = self._qos_serve(request, 0, resolved_seed)
            if not isinstance(item.error, SHED_ERRORS):
                self._count(item)
            return item.require_result()
        submitted = time.perf_counter()
        if not self._admission.admit():
            raise AdmissionRejectedError(
                "admission queue is full "
                f"(max_queue_depth={self.config.service.max_queue_depth})",
                retry_after=self._retry_after_hint(),
            )
        try:
            item = self._serve_item(
                request, index=0, seed=resolved_seed, submitted_at=submitted
            )
        finally:
            self._admission.release()
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
        (:func:`~repro.service.admission.fair_order` over
        ``request.shopper``), and each submission passes the bounded
        admission queue first: under the ``block`` policy a full queue
        back-pressures this call, under ``reject`` the overflowing item
        fails with :class:`~repro.exceptions.AdmissionRejectedError` on its
        batch slot.  Neither fairness nor admission changes any served
        result — seeds and result positions follow the original request
        index.
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
        pool = self._ensure_request_pool()
        order = fair_order([request.shopper for request in requests])
        items: list[ServedRequest | None] = [None] * len(requests)
        if self._qos is not None:
            # The scheduler subsumes admission: workers submit into the WFQ
            # themselves (token bucket + depth bound applied there) and block
            # until their grant, so this thread only fans the batch out.
            if pool is None:
                for index in order:
                    items[index] = self._qos_serve(
                        requests[index], index, seeds[index]
                    )
            else:
                futures = {
                    index: pool.submit(
                        self._qos_serve, requests[index], index, seeds[index]
                    )
                    for index in order
                }
                for index, future in futures.items():
                    items[index] = future.result()
        elif pool is None:
            for index in order:
                submitted = time.perf_counter()
                if not self._admission.admit():
                    items[index] = self._rejected_item(requests[index], index, seeds[index])
                    continue
                try:
                    items[index] = self._serve_item(
                        requests[index],
                        index=index,
                        seed=seeds[index],
                        submitted_at=submitted,
                    )
                finally:
                    self._admission.release()
        else:
            futures = {}
            for index in order:
                submitted = time.perf_counter()
                if not self._admission.admit():
                    items[index] = self._rejected_item(requests[index], index, seeds[index])
                    continue
                try:
                    futures[index] = pool.submit(
                        self._serve_admitted,
                        requests[index],
                        index,
                        seeds[index],
                        submitted,
                    )
                except BaseException:
                    self._admission.release()
                    raise
            for index, future in futures.items():
                items[index] = future.result()
        batch = BatchResult(items=items)
        with self._lock:
            self._batches_served += 1
        for item in items:
            # Shed items never executed: they appear in the queue/qos shed
            # counters, not in requests_served/errors — the same accounting
            # a rejected single acquire() gets.
            if not isinstance(item.error, SHED_ERRORS):
                self._count(item)
        return batch

    def _serve_admitted(
        self,
        request: AcquisitionRequest,
        index: int,
        seed: int,
        submitted_at: float | None = None,
    ) -> ServedRequest:
        """Worker-side wrapper: always give the admission slot back."""
        try:
            return self._serve_item(
                request, index=index, seed=seed, submitted_at=submitted_at
            )
        finally:
            self._admission.release()

    def _qos_serve(
        self, request: AcquisitionRequest, index: int, seed: int
    ) -> ServedRequest:
        """One request's trip through the QoS scheduler (worker-side).

        Shed requests — rate-limited at submit, queue-full under ``reject``,
        deadline-missed at grant — land their typed error on the batch item
        without ever holding an execution slot.
        """
        qos = self._qos
        assert qos is not None
        try:
            ticket = qos.submit(request)
        except SHED_ERRORS as error:
            return ServedRequest(index=index, request=request, seed=seed, error=error)
        try:
            queued = qos.await_grant(ticket)
        except DeadlineExceededError as error:
            return ServedRequest(index=index, request=request, seed=seed, error=error)
        except BaseException:
            qos.abandon(ticket)
            raise
        try:
            return self._serve_item(
                request, index=index, seed=seed, queued_seconds=queued
            )
        finally:
            qos.release(ticket)

    def _retry_after_hint(self) -> int:
        """The computed ``Retry-After`` of a request shed at admission."""
        return retry_after_hint(
            self._admission.depth, self._metrics.execution.percentile(0.5)
        )

    def _rejected_item(
        self, request: AcquisitionRequest, index: int, seed: int
    ) -> ServedRequest:
        return ServedRequest(
            index=index,
            request=request,
            seed=seed,
            error=AdmissionRejectedError(
                f"request {index} rejected: admission queue full "
                f"(max_queue_depth={self.config.service.max_queue_depth})",
                retry_after=self._retry_after_hint(),
            ),
        )

    def _serve_item(
        self,
        request: AcquisitionRequest,
        *,
        index: int,
        seed: int,
        submitted_at: float | None = None,
        queued_seconds: float = 0.0,
    ) -> ServedRequest:
        """Execute one admitted request.

        ``queued_seconds`` carries a wait already measured by the caller (the
        QoS scheduler's grant delay); ``submitted_at`` lets the non-QoS paths
        measure their own wait (admission block plus batch-pool queueing)
        against the submission timestamp.  ``elapsed_seconds`` is always
        queue wait + execution — what the caller observed end to end.
        """
        runtime = self._runtime_for(request, seed)
        item = ServedRequest(index=index, request=request, seed=seed)
        with self._lock:
            self._in_flight += 1
        start = time.perf_counter()
        if submitted_at is not None:
            queued_seconds = max(0.0, start - submitted_at)
        try:
            item.result = self._dance.acquire(request, runtime=runtime)
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
            ji_cache = self._ji_cache
            step1_cache = self._step1_memo if self.config.service.step1_memo else None
            pool, pool_state = self._chain_pool_locked()
        return SearchRuntime(
            evaluation_cache=evaluation_cache,
            ji_cache=ji_cache,
            step1_cache=step1_cache,
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
        the evaluation and JI memos by
        :func:`~repro.graph.target.prune_memos`: an entry survives unless the
        write changed one of its instances or an FD its join can carry.  Any
        other version bump — an offline rebuild, or a change made on the
        middleware behind the session's back, which shows as a version gap —
        resets both memos and counts in ``cache_resets``.  The Step-1 memo
        always resets, because its Steiner search reads the whole I-layer.

        A sync that pruned skips :meth:`_restore_caches_locked`: the catalog
        blob describes the state before the write.

        Pools over a shared columnar store are *versioned*, not disposable:
        when ``changed`` names the touched instances, only their deltas are
        published (workers apply them in place and prune their own memos by
        the same rule); otherwise the published snapshot is rebased
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
                self._evaluation_caches.values(),
                self._ji_cache,
                changed,
                self._synced_fds,
                fds,
            )
        else:
            if self._synced_version is not None:
                self._cache_resets += 1
            self._ji_cache = LockStripedCache()
            self._evaluation_caches = {}
        self._synced_version = version
        self._synced_fds = fds
        self._step1_memo = (
            CountingCache() if self.config.service.step1_memo else None
        )
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
        there is no shared-store pool to refresh, so the caller falls back to
        the dispose-and-rebuild path.
        """
        state = self._chain_pool_state
        if self._chain_pool is None or not isinstance(state, SharedChainState):
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
        """Seed the freshly reset session caches from the attached catalog.

        The persisted blob carries a fingerprint of the graph state (every
        sample table plus the revision counter) it was computed on; the
        caches are adopted only when the current graph hashes identically —
        Step-1 memo keys embed the graph revision, and JI keys are only
        meaningful for unchanged samples.  Any failure warns and serves cold;
        restoring is an optimisation, never a correctness dependency.
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
            if self._ji_cache is not None and state.get("ji"):
                self._ji_cache.update(state["ji"])
            if self._step1_memo is not None and state.get("step1"):
                self._step1_memo.update(state["step1"])
        except Exception as error:  # dancelint: disable=ERR301 -- restore is best-effort
            warnings.warn(
                f"ignoring unreadable session caches in the catalog: {error}",
                RuntimeWarning,
                stacklevel=3,
            )

    def _evaluation_cache_locked(self, request: AcquisitionRequest) -> LockStripedCache:
        """The evaluation memo of one request signature (caller holds the lock).

        Evaluations depend on the source/target attribute sets (correlation is
        measured between them), so the memo is namespaced by
        ``(source_attributes, target_attributes)``; budgets and α/β
        constraints are applied *to* evaluations, never baked into them, so
        requests differing only in constraints share a namespace.
        """
        key = (request.source_attributes, request.target_attributes)
        cache = self._evaluation_caches.get(key)
        if cache is None:
            cache = LockStripedCache()
            self._evaluation_caches[key] = cache
        return cache

    def _chain_pool_locked(self):
        """The persistent executor for multi-chain walks (caller holds the lock).

        Driven by the effective :class:`~repro.search.plan.ExecutionPlan`:
        ``pool_policy="per_call"`` opts out of persistence (the scheduler
        builds a fresh pool per search); process pools with the shared store
        enabled get a :func:`~repro.search.chains.shared_chain_pool` whose
        workers map the columnar segments read-only and survive catalog
        updates through versioned deltas.
        """
        plan = self.config.execution_plan
        if plan.chains <= 1 or plan.executor == "serial":
            return None, None
        if plan.pool_policy == "per_call":
            return None, None
        if self._chain_pool is None:
            workers = plan.resolved_workers()
            if plan.executor == "process":
                if plan.wants_shared_store:
                    self._chain_pool, self._chain_pool_state = shared_chain_pool(
                        self._dance.join_graph,
                        self._dance.fds,
                        token=f"acqsvc-{self._service_id}",
                        max_workers=workers,
                        version=self._dance.graph_version,
                    )
                else:
                    token = (
                        f"acquisition-service-{self._service_id}-v{self._synced_version}"
                    )
                    self._chain_pool, self._chain_pool_state = process_chain_pool(
                        self._dance.join_graph,
                        self._dance.fds,
                        token=token,
                        max_workers=workers,
                    )
            else:
                self._chain_pool = ThreadPoolExecutor(
                    max_workers=workers,
                    thread_name_prefix=f"acquisition-service-{self._service_id}-chain",
                )
                self._chain_pool_state = None
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
            if isinstance(self._chain_pool_state, SharedChainState):
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
        :meth:`_sync_locked`).  Must not overlap in-flight requests.
        """
        with self._lock:
            summary = self._dance.register_source_tables(tables)
            entries = self._evaluation_entries_locked()
            if self._dance._join_graph is not None:
                # Shared-store pools take a per-instance delta instead of a
                # teardown; a "noop" refresh did not bump the version, so
                # _sync_locked leaves every cache and pool untouched.
                changed = list(summary["added"]) + list(summary["replaced"])
                self._sync_locked(changed)
            summary["memo_kept"] = self._evaluation_entries_locked()
            summary["memo_dropped"] = entries - summary["memo_kept"]
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
        marketplace's attached backend.  The session namespace stores the JI
        cache and Step-1 memo under a fingerprint of the current graph state,
        so a restarted service only adopts them while the data is unchanged.
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
                "ji": dict(self._ji_cache.items()) if self._ji_cache else {},
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
        sliding window), the evaluation-cache hit-rate trend, the admission
        queue's counters (depth, peak, rejections, blocked time), the
        in-flight gauge, and the Step-1 memo's hit accounting.
        """
        with self._lock:
            in_flight = self._in_flight
            step1: dict[str, object] = {"enabled": self.config.service.step1_memo}
            if self.config.service.step1_memo:
                # Stable schema even before the first request syncs the
                # session (the memo is created lazily in _sync_locked).
                step1.update(
                    self._step1_memo.snapshot()
                    if self._step1_memo is not None
                    else {"entries": 0, "hits": 0, "misses": 0}
                )
        payload = self._metrics.snapshot()
        payload["in_flight"] = in_flight
        # Under QoS the scheduler *is* the admission queue; its snapshot keeps
        # the same schema, so the payload shape is configuration-independent.
        payload["queue"] = (
            self._qos.snapshot() if self._qos is not None else self._admission.snapshot()
        )
        payload["qos"] = (
            self._qos.qos_snapshot() if self._qos is not None else disabled_qos_snapshot()
        )
        payload["step1_memo"] = step1
        return payload

    def _evaluation_entries_locked(self) -> int:
        return sum(len(cache) for cache in self._evaluation_caches.values())

    def describe(self) -> dict[str, object]:
        """A JSON-friendly snapshot of the session.

        ``cache_resets`` counts full memo resets (offline rebuilds, version
        gaps); a write that only pruned the memos is not one, and its
        ``register_source_tables`` summary reports what it kept and dropped.
        """
        metrics = self.metrics()
        with self._lock:
            evaluation_entries = self._evaluation_entries_locked()
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
                "ji_cache_entries": 0 if self._ji_cache is None else len(self._ji_cache),
                "step1_memo_entries": (
                    0 if self._step1_memo is None else len(self._step1_memo)
                ),
                "chain_pool": None if self._chain_pool is None else self.config.mcmc.executor,
                "execution_plan": self.config.execution_plan.spec(),
                "shared_store": (
                    self._chain_pool_state.stats()
                    if isinstance(self._chain_pool_state, SharedChainState)
                    else None
                ),
                "batch_workers": self.config.service.max_batch_workers,
                "metrics": metrics,
                "dance": self._dance.describe(),
            }
