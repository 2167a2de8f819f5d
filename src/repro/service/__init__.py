"""The acquisition service layer: one hot marketplace, many requests.

Everything below :class:`~repro.core.dance.DANCE` is a one-shot library —
each ``acquire()`` call rebuilds its world (fresh caches per candidate
I-graph, a fresh process pool per multi-chain ``mcmc_search`` call).  This
package turns the online phase into a long-lived *session*:

:class:`AcquisitionService`
    Wraps one :class:`~repro.marketplace.market.Marketplace` plus its offline
    phase and serves many :class:`~repro.marketplace.shopper.AcquisitionRequest`\\ s.
    It owns the evaluation memo and JI cache (shared across all candidate
    I-graphs of a request *and* across requests), under a multi-chain
    process plan a single persistent process pool over the shared columnar
    store serving every ``mcmc_search`` call, and the thread fan-out for
    concurrent batches.

:func:`request_seed` / :class:`ServedRequest` / :class:`BatchResult` / :func:`fair_order`
    Deterministic per-request seed derivation (blake2b, the chain-seed
    recipe), the result types of a batch, and per-shopper round-robin
    submission order.

:class:`QosScheduler` (:mod:`repro.service.qos`)
    The one admission path every request passes: the ``max_queue_depth``
    bound with block/reject backpressure, weighted fair queueing over SLA
    tiers (:class:`~repro.pricing.sla.QosConfig`), per-shopper token-bucket
    rate limits, and deadline-aware shedding — whether/when a request runs,
    never what it computes.

:class:`ServiceMetrics` / :class:`LatencyHistogram` (:mod:`repro.service.metrics`)
    Per-request latency percentiles, cache hit-rate trends over a sliding
    window, and the counting cache behind the Step-1 memo.

:class:`AcquisitionHTTPServer` (:mod:`repro.service.server`)
    The networked serve tier: ``POST /acquire`` (single + batch), ``GET
    /metrics`` (Prometheus text), ``GET /healthz``, graceful drain —
    stdlib ``http.server`` only, fronting one service.

Determinism contract: a batch of N requests is bit-identical to the same N
requests served one at a time — shared caches hold only deterministic values,
per-request seeds depend only on ``(service seed, batch index)``, and result
ordering follows request order, never completion order.  The scheduler,
fairness and the Step-1 memo decide whether/when/how cheaply a request runs,
never what it computes.
"""

from repro.pricing.sla import QosConfig
from repro.service.batch import BatchResult, ServedRequest, fair_order, request_seed
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.qos import (
    QosScheduler,
    TokenBucket,
    WeightedFairQueue,
    retry_after_hint,
)
from repro.service.server import AcquisitionHTTPServer, render_prometheus
from repro.service.session import AcquisitionService

__all__ = [
    "AcquisitionHTTPServer",
    "AcquisitionService",
    "BatchResult",
    "LatencyHistogram",
    "QosConfig",
    "QosScheduler",
    "ServedRequest",
    "ServiceMetrics",
    "TokenBucket",
    "WeightedFairQueue",
    "fair_order",
    "render_prometheus",
    "request_seed",
    "retry_after_hint",
]
