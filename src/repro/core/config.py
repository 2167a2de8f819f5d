"""Configuration of the DANCE middleware."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.exceptions import ReproError, SamplingError
from repro.sampling.resampling import ResamplingPolicy
from repro.search.mcmc import MCMCConfig
from repro.search.plan import ExecutionPlan


@dataclass
class ServiceConfig:
    """Knobs of the long-lived acquisition service (:mod:`repro.service`).

    Attributes
    ----------
    seed:
        Base seed of the service.  Per-request seeds are blake2b-derived from
        it by batch index (request 0 keeps the base seed — the same recipe as
        MCMC chain seeds), so a batch outcome depends only on
        ``(seed, request order)``.  ``None`` (the default) inherits the MCMC
        seed of the owning :class:`DanceConfig`.
    max_batch_workers:
        Thread fan-out for :meth:`repro.service.AcquisitionService.acquire_batch`
        — how many requests execute concurrently.  ``1`` serves batches
        serially (results are bit-identical either way).
    plan:
        An :class:`~repro.search.plan.ExecutionPlan` (or its ``parse()``-able
        string form) describing how searches execute: executor, chains, pool
        width, shared columnar store, and pool policy.  Takes precedence over
        the per-knob spelling; see :class:`DanceConfig.plan`.
    max_queue_depth:
        Bound on how many requests may be admitted (queued + executing) at
        once.  ``None`` (the default) admits everything — the pre-traffic-layer
        behaviour.  Admission never changes a served request's result, only
        whether/when it runs.
    admission:
        What happens to a request arriving at a full queue: ``"block"``
        (default) applies backpressure — the submitting caller waits for a
        slot; ``"reject"`` sheds load — the request fails immediately with
        :class:`~repro.exceptions.AdmissionRejectedError` (raised by
        ``acquire``, recorded on the batch item by ``acquire_batch``).
    metrics_window:
        Size of the sliding window behind the service metrics (latency
        percentiles, cache hit-rate trend; see :mod:`repro.service.metrics`).
    step1_memo:
        Whether the service memoises Step 1 (``minimal_weight_igraphs``) per
        ``(terminal set, alpha, num_landmarks, landmark seed, graph
        version)`` so warm requests skip the landmark/Steiner search.  On by
        default; results are bit-identical either way.
    catalog_path:
        Path of the service's persistent catalog (see :mod:`repro.storage`).
        When set, the service restores its session caches (JI cache, Step-1
        memo) from the catalog at startup and checkpoints marketplace, graph,
        and caches back to it after ``register_source_tables``.  ``None``
        (the default) keeps the service fully in-memory.
    qos:
        QoS scheduling (:mod:`repro.service.qos`).  ``None`` (the default)
        keeps the PR 5 FIFO admission queue.  A
        :class:`~repro.service.qos.QosConfig` — or ``True``/``"on"`` for the
        default tier ladder — replaces it with the weighted-fair-queueing
        scheduler: SLA-tier weights, per-shopper token buckets, and
        deadline-aware shedding.  ``max_queue_depth``/``admission`` keep
        their meaning (the scheduler enforces the same bound and policy).
        QoS never changes a served request's result, only whether/when it
        runs.
    """

    seed: int | None = None
    max_batch_workers: int = 4
    plan: ExecutionPlan | str | None = None
    max_queue_depth: int | None = None
    admission: str = "block"
    metrics_window: int = 256
    step1_memo: bool = True
    catalog_path: str | None = None
    qos: "object | bool | str | None" = None

    def __post_init__(self) -> None:
        self.plan = ExecutionPlan.normalize(self.plan)
        if self.qos is not None:
            # Deferred import: repro.service.qos imports this module's siblings.
            from repro.service.qos import QosConfig

            self.qos = QosConfig.normalize(self.qos)
        if self.max_batch_workers < 1:
            raise ReproError(
                f"max_batch_workers must be >= 1, got {self.max_batch_workers}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ReproError(
                f"max_queue_depth must be >= 1 (or None for unbounded), "
                f"got {self.max_queue_depth}"
            )
        if self.admission not in ("block", "reject"):
            raise ReproError(
                f"admission must be 'block' or 'reject', got {self.admission!r}"
            )
        if self.metrics_window < 1:
            raise ReproError(
                f"metrics_window must be >= 1, got {self.metrics_window}"
            )


@dataclass
class DanceConfig:
    """All tunable knobs of the middleware in one place.

    Attributes
    ----------
    sampling_rate:
        Correlated-sampling rate used when buying samples from the marketplace
        during the offline phase (the paper's sampling-rate experiment in
        Figure 6 varies this between 0.1 and 1.0).
    sampling_seed:
        Selects the hash family of the correlated sampler.
    resampling:
        Correlated re-sampling policy for intermediate join results (threshold
        ``eta`` and re-sampling rate; Figure 8 varies the rate).
    mcmc:
        Step 2 configuration (iterations ``ℓ``, seed, proposal mix, and the
        parallel-search knobs: ``MCMCConfig(chains=N, executor="thread")``
        runs N independently-seeded Metropolis chains per candidate I-graph
        under the chosen executor — ``serial`` / ``thread`` / ``process`` —
        sharing the evaluation and join-informativeness caches; results are
        bit-identical for a fixed ``(seed, chains)`` whatever the executor.
        ``record_trace`` re-enables the per-iteration
        correlation trace).
    num_landmarks:
        Number of landmarks used by Step 1.
    max_join_attribute_size:
        Largest join attribute set enumerated per instance pair when building
        the join graph.
    afd_max_violation / afd_max_lhs_size:
        Parameters of AFD discovery on the samples (quality measurement uses
        the discovered AFDs; the paper uses a violation threshold of 0.1).
    max_refinement_rounds:
        How many times the online phase may buy more samples (at a higher
        sampling rate) and retry when no feasible target graph exists.
    refinement_rate_multiplier:
        Factor applied to the sampling rate on each refinement round.
    plan:
        An :class:`~repro.search.plan.ExecutionPlan` (object or
        ``parse()``-able string like ``"executor=process,chains=4"``)
        consolidating every execution knob: it overrides
        ``mcmc.chains`` / ``mcmc.executor`` and supplies the service's pool
        width, shared-store switch, and pool policy.  ``None`` (the default)
        derives an equivalent plan from ``mcmc.chains`` / ``mcmc.executor``
        (:meth:`execution_plan`).
        A plan set on ``service`` applies too; a plan set here wins.
    service:
        Configuration of the long-lived acquisition service
        (:class:`ServiceConfig`: batch fan-out, persistent pool size, shared
        caches, per-request seed derivation).  Ignored by one-shot
        :meth:`~repro.core.dance.DANCE.acquire` calls.
    """

    sampling_rate: float = 0.3
    sampling_seed: int = 0
    resampling: ResamplingPolicy = field(default_factory=ResamplingPolicy)
    mcmc: MCMCConfig = field(default_factory=MCMCConfig)
    num_landmarks: int = 4
    max_join_attribute_size: int = 2
    afd_max_violation: float = 0.1
    afd_max_lhs_size: int = 2
    max_refinement_rounds: int = 2
    refinement_rate_multiplier: float = 2.0
    service: ServiceConfig = field(default_factory=ServiceConfig)
    plan: ExecutionPlan | str | None = None

    def __post_init__(self) -> None:
        plan = ExecutionPlan.normalize(self.plan)
        if plan is None and isinstance(self.service, ServiceConfig):
            plan = self.service.plan
        if plan is not None:
            self.plan = plan
            self.mcmc = replace(self.mcmc, chains=plan.chains, executor=plan.executor)
        if not 0.0 < self.sampling_rate <= 1.0:
            raise SamplingError(
                f"sampling_rate must be in (0, 1], got {self.sampling_rate}"
            )
        if self.num_landmarks < 1:
            raise SamplingError(f"num_landmarks must be >= 1, got {self.num_landmarks}")
        if self.max_refinement_rounds < 0:
            raise SamplingError(
                f"max_refinement_rounds must be >= 0, got {self.max_refinement_rounds}"
            )
        if self.refinement_rate_multiplier < 1.0:
            raise SamplingError(
                "refinement_rate_multiplier must be >= 1.0, got "
                f"{self.refinement_rate_multiplier}"
            )

    @property
    def execution_plan(self) -> ExecutionPlan:
        """The effective plan: ``plan`` when set, else the plan equivalent to
        ``mcmc.executor`` / ``mcmc.chains``."""
        if isinstance(self.plan, ExecutionPlan):
            return self.plan
        return ExecutionPlan(executor=self.mcmc.executor, chains=self.mcmc.chains)

    def refined(self) -> "DanceConfig":
        """The configuration for one refinement round: a higher sampling rate."""
        new_rate = min(1.0, self.sampling_rate * self.refinement_rate_multiplier)
        return DanceConfig(
            sampling_rate=new_rate,
            sampling_seed=self.sampling_seed,
            resampling=self.resampling,
            mcmc=self.mcmc,
            num_landmarks=self.num_landmarks,
            max_join_attribute_size=self.max_join_attribute_size,
            afd_max_violation=self.afd_max_violation,
            afd_max_lhs_size=self.afd_max_lhs_size,
            max_refinement_rounds=self.max_refinement_rounds,
            refinement_rate_multiplier=self.refinement_rate_multiplier,
            service=self.service,
            plan=self.plan,
        )
