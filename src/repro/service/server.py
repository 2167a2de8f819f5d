"""The HTTP serve tier: one hot service behind a stdlib HTTP/JSON endpoint.

``repro-dance serve`` keeps one :class:`~repro.service.session.AcquisitionService`
hot behind a ``http.server.ThreadingHTTPServer`` — no dependencies beyond the
standard library:

``POST /acquire``
    A single request spec (the CLI ``batch`` file format: ``{"query": "Q1",
    "budget": 100}`` or explicit ``{"source": [...], "target": [...],
    "budget": ..., "alpha": ..., "beta": ..., "shopper": ...}``, plus an
    optional ``"seed"``), or a batch ``{"requests": [...], "seeds": [...]}``
    (a bare JSON list is treated as a batch too).  Per-request seeds are
    honoured exactly as in :meth:`AcquisitionService.acquire_batch`, so the
    served bits are bit-identical to direct library calls.  A body declared
    longer than :data:`MAX_BODY_BYTES` is refused with ``413`` before any of
    it is read.

``GET /metrics``
    The service's :meth:`metrics` payload rendered as Prometheus text
    exposition format (:func:`render_prometheus`): request/error counters,
    the lifetime latency histogram with cumulative ``le`` buckets, exact
    window percentiles, the cache-hit-rate trend, admission queue gauges,
    and Step-1 memo accounting.

``GET /healthz``
    ``200 {"status": "ok"}`` while serving; ``503 {"status": "draining"}``
    once a graceful shutdown began.

Error mapping (the typed-error contract): admission rejections surface as
``503``, token-bucket sheds as ``429``, deadline sheds as ``504`` — the
retryable statuses carry a *computed* ``Retry-After`` header (queue depth x
recent p50 execution for 503, the bucket's refill time for 429) — search
errors (including infeasibility) as ``422``, storage errors as ``500``, any
other library error as ``400`` — always as ``{"error": {"type": <exception
class name>, "message": ...}}``, never a traceback.

Graceful shutdown (:meth:`AcquisitionHTTPServer.graceful_shutdown`) flips
``/healthz`` to draining, refuses new ``/acquire`` work, waits for in-flight
requests to finish, checkpoints the service to its catalog (when one is
configured), and only then closes the listener.
"""

from __future__ import annotations

import json
import math
import threading
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    RateLimitedError,
    ReproError,
    SearchError,
    StorageError,
)
from repro.marketplace.shopper import AcquisitionRequest
from repro.service.metrics import BUCKET_BOUNDS
from repro.service.session import AcquisitionService

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest ``POST /acquire`` body the server reads (16 MiB).  A request
#: declaring a longer ``Content-Length`` is answered 413 unread.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Flattened ``metrics()`` payload path -> the Prometheus metric that carries
#: it.  The golden-file test walks a real payload and asserts every leaf is
#: covered here (so a new ServiceMetrics field cannot silently vanish from
#: ``/metrics``), and that every name obeys Prometheus conventions.
FIELD_METRICS: dict[str, str] = {
    "requests": "dance_requests_total",
    "errors": "dance_request_errors_total",
    "latency.count": "dance_request_latency_seconds_count",
    "latency.mean_seconds": "dance_request_latency_seconds_sum",
    "latency.max_seconds": "dance_request_latency_max_seconds",
    "latency.window_size": "dance_request_latency_window_size",
    "latency.buckets": "dance_request_latency_seconds_bucket",
    "latency.p50_seconds": "dance_request_latency_p50_seconds",
    "latency.p95_seconds": "dance_request_latency_p95_seconds",
    "latency.p99_seconds": "dance_request_latency_p99_seconds",
    "queue_wait.count": "dance_queue_wait_seconds_count",
    "queue_wait.mean_seconds": "dance_queue_wait_seconds_sum",
    "queue_wait.max_seconds": "dance_queue_wait_max_seconds",
    "queue_wait.window_size": "dance_queue_wait_window_size",
    "queue_wait.buckets": "dance_queue_wait_seconds_bucket",
    "queue_wait.p50_seconds": "dance_queue_wait_p50_seconds",
    "queue_wait.p95_seconds": "dance_queue_wait_p95_seconds",
    "queue_wait.p99_seconds": "dance_queue_wait_p99_seconds",
    "execution.count": "dance_execution_seconds_count",
    "execution.mean_seconds": "dance_execution_seconds_sum",
    "execution.max_seconds": "dance_execution_max_seconds",
    "execution.window_size": "dance_execution_window_size",
    "execution.buckets": "dance_execution_seconds_bucket",
    "execution.p50_seconds": "dance_execution_p50_seconds",
    "execution.p95_seconds": "dance_execution_p95_seconds",
    "execution.p99_seconds": "dance_execution_p99_seconds",
    "cache_hit_rate.window_size": "dance_cache_hit_rate_window_size",
    "cache_hit_rate.window_mean": "dance_cache_hit_rate_window_mean",
    "cache_hit_rate.older_half_mean": "dance_cache_hit_rate_older_half_mean",
    "cache_hit_rate.newer_half_mean": "dance_cache_hit_rate_newer_half_mean",
    "cache_hit_rate.trend": "dance_cache_hit_rate_trend",
    "in_flight": "dance_in_flight_requests",
    "queue.max_depth": "dance_admission_max_depth",
    "queue.policy": "dance_admission_policy",
    "queue.depth": "dance_admission_depth",
    "queue.peak_depth": "dance_admission_peak_depth",
    "queue.admitted": "dance_admission_admitted_total",
    "queue.rejected": "dance_admission_rejected_total",
    "queue.blocked_seconds": "dance_admission_blocked_seconds_total",
    "qos.enabled": "dance_qos_enabled",
    "qos.slots": "dance_qos_slots",
    "qos.rate_limited": "dance_qos_rate_limited_total",
    "qos.deadline_exceeded": "dance_qos_deadline_exceeded_total",
    "qos.tiers": "dance_tier_requests_total",
    "step1_memo.enabled": "dance_step1_memo_enabled",
    "step1_memo.entries": "dance_step1_memo_entries",
    "step1_memo.hits": "dance_step1_memo_hits_total",
    "step1_memo.misses": "dance_step1_memo_misses_total",
}


# -------------------------------------------------------------- error mapping
def error_status(error: BaseException) -> int:
    """The HTTP status of a library error (the typed-error contract).

    Admission rejection is the backpressure signal (retryable, 503); a
    token-bucket shed is the client's own pacing problem (429, with
    ``Retry-After``); a deadline missed in queue is a timeout the *service*
    could not meet (504); search errors describe the *request* (422,
    unprocessable); storage errors are server-side (500); any other
    :class:`~repro.exceptions.ReproError` is a bad request (400).  Order
    matters: the typed shed errors and ``SearchError`` all derive from
    ``ReproError``.
    """
    if isinstance(error, AdmissionRejectedError):
        return 503
    if isinstance(error, RateLimitedError):
        return 429
    if isinstance(error, DeadlineExceededError):
        return 504
    if isinstance(error, SearchError):
        return 422
    if isinstance(error, StorageError):
        return 500
    if isinstance(error, ReproError):
        return 400
    return 500


def error_body(error: BaseException) -> dict[str, object]:
    """The JSON body of an error response: type name + message, no traceback."""
    return {"error": {"type": type(error).__name__, "message": str(error)}}


def retry_after_header(hint: float | None) -> str:
    """The ``Retry-After`` header value of a shed response.

    Whole seconds, at least 1 (the pre-computed-hint constant), from the
    error's computed ``retry_after`` when one is attached.
    """
    if hint is None or not math.isfinite(hint) or hint <= 0:
        return "1"
    return str(max(1, math.ceil(hint)))


# ------------------------------------------------------------- request parsing
def _seed(value: object, field: str) -> int:
    """A request seed from JSON: an integer of any size, never a bool or float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ReproError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _strings(spec: dict, key: str) -> list[str]:
    value = spec.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ReproError(f'"{key}" must be a JSON list of strings, got {value!r}')
    return value


def request_from_spec(
    spec: object,
    queries: Mapping[str, object] | None = None,
    *,
    default_tier: str | None = None,
) -> AcquisitionRequest:
    """Build an :class:`AcquisitionRequest` from a JSON spec.

    The same format the CLI ``batch`` file uses: either ``{"query": "Q1"}``
    naming a predefined workload query (resolved through ``queries``) or
    explicit ``source`` / ``target`` attribute lists, plus ``budget`` /
    ``alpha`` / ``beta`` / ``shopper`` / ``tier`` / ``deadline``.
    ``default_tier`` (the server passes the ``X-Dance-Tier`` header here)
    applies to specs that name no ``tier`` of their own.  Raises
    :class:`~repro.exceptions.ReproError` (HTTP 400) for malformed specs:
    attributes that are not a list of strings, a ``shopper`` / ``tier``
    that is not a string, a non-numeric or boolean constraint, or an integer
    constraint too large for a float.  Request
    validation itself (e.g. empty targets) raises ``SearchError`` (HTTP 422)
    from the :class:`AcquisitionRequest` constructor.
    """
    if not isinstance(spec, dict):
        raise ReproError(f"request spec must be a JSON object, got {type(spec).__name__}")
    if "query" in spec:
        known = queries or {}
        name = spec["query"]
        if not isinstance(name, str) or name not in known:
            raise ReproError(
                f"unknown query {name!r} (expected {sorted(known) if known else 'none'})"
            )
        query = known[name]
        source = list(query.source_attributes)
        target = list(query.target_attributes)
    else:
        source = _strings(spec, "source")
        target = _strings(spec, "target")
    for key in ("shopper", "tier"):
        if not isinstance(spec.get(key), (str, type(None))):
            raise ReproError(f'"{key}" must be a string or null, got {spec[key]!r}')
    for key in ("budget", "alpha", "beta", "deadline"):
        # float(True) is 1.0: a JSON boolean must not pass as a number.
        if isinstance(spec.get(key), bool):
            raise ReproError(f'"{key}" must be a number, got {spec[key]!r}')
    try:
        budget = float(spec.get("budget", 100.0))
        alpha = float(spec.get("alpha", float("inf")))
        beta = float(spec.get("beta", 0.0))
        deadline = spec.get("deadline")
        deadline = float(deadline) if deadline is not None else None
    except (TypeError, ValueError, OverflowError) as error:
        # OverflowError: an integer too large for a float, which JSON allows.
        raise ReproError(f"invalid numeric field in request spec: {error}") from error
    return AcquisitionRequest(
        source_attributes=source,
        target_attributes=target,
        budget=budget,
        max_join_informativeness=alpha,
        min_quality=beta,
        shopper=spec.get("shopper"),
        tier=spec.get("tier", default_tier),
        deadline=deadline,
    )


# --------------------------------------------------------- prometheus rendering
def _format_value(value: object) -> str:
    """One Prometheus sample value.  ``None`` renders as ``NaN`` (no data yet)."""
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".10g")


def _metric(lines: list[str], name: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _render_histogram(
    lines: list[str],
    prefix: str,
    stem: str,
    snapshot: Mapping[str, object],
    *,
    subject: str,
    window_noun: str,
) -> None:
    """One :class:`LatencyHistogram` snapshot as a Prometheus histogram family.

    Emits ``{prefix}_{stem}_seconds`` (cumulative ``le`` buckets, ``_sum``
    reconstructed from the reported mean, ``_count``) plus the max /
    window-size / exact-percentile gauges — the same layout for the
    end-to-end latency, queue-wait, and execution histograms.
    """
    count = int(snapshot.get("count", 0) or 0)
    mean = snapshot.get("mean_seconds")
    total_sum = float(mean) * count if mean is not None else 0.0
    bucket_counts = list((snapshot.get("buckets") or {}).values())
    if len(bucket_counts) != len(BUCKET_BOUNDS) + 1:
        bucket_counts = [0] * (len(BUCKET_BOUNDS) + 1)
    _metric(
        lines,
        f"{prefix}_{stem}_seconds",
        "histogram",
        f"Lifetime {subject} distribution.",
    )
    cumulative = 0
    for bound, bucket in zip(BUCKET_BOUNDS, bucket_counts):
        cumulative += int(bucket)
        lines.append(f'{prefix}_{stem}_seconds_bucket{{le="{bound:g}"}} {cumulative}')
    lines.append(f'{prefix}_{stem}_seconds_bucket{{le="+Inf"}} {count}')
    lines.append(f"{prefix}_{stem}_seconds_sum {_format_value(total_sum)}")
    lines.append(f"{prefix}_{stem}_seconds_count {count}")

    for field, help_text in (
        ("max_seconds", f"Largest {subject} observed."),
        ("window_size", f"{window_noun} samples in the sliding percentile window."),
        ("p50_seconds", f"Median {subject} over the sliding window."),
        ("p95_seconds", f"95th-percentile {subject} over the sliding window."),
        ("p99_seconds", f"99th-percentile {subject} over the sliding window."),
    ):
        name = (
            f"{prefix}_{stem}_window_size"
            if field == "window_size"
            else f"{prefix}_{stem}_{field}"
        )
        _metric(lines, name, "gauge", help_text)
        lines.append(f"{name} {_format_value(snapshot.get(field))}")


def render_prometheus(
    metrics: Mapping[str, object],
    *,
    extra: Mapping[str, float] | None = None,
    prefix: str = "dance",
) -> str:
    """Render a service ``metrics()`` payload as Prometheus text format.

    ``metrics`` is the dict returned by ``AcquisitionService.metrics()``.
    The lifetime latency buckets become one
    cumulative histogram (``_sum`` is reconstructed from the reported mean,
    so it is exact up to float rounding); window percentiles, hit-rate trend
    and queue state become gauges; lifetime totals become counters.
    ``extra`` appends ``{prefix}_<name>`` gauges (the server adds
    ``server_draining``).
    """
    lines: list[str] = []
    latency = metrics.get("latency", {})
    queue_wait = metrics.get("queue_wait", {})
    execution = metrics.get("execution", {})
    hit_rate = metrics.get("cache_hit_rate", {})
    queue = metrics.get("queue", {})
    qos = metrics.get("qos", {})
    step1 = metrics.get("step1_memo", {})

    _metric(
        lines, f"{prefix}_requests_total", "counter", "Requests executed (admitted and run)."
    )
    lines.append(f"{prefix}_requests_total {_format_value(metrics.get('requests', 0))}")
    _metric(
        lines, f"{prefix}_request_errors_total", "counter", "Executed requests that failed."
    )
    lines.append(f"{prefix}_request_errors_total {_format_value(metrics.get('errors', 0))}")

    # Lifetime histograms: each snapshot's per-bucket counts are non-cumulative
    # and insertion-ordered over BUCKET_BOUNDS plus one overflow bucket.
    _render_histogram(
        lines,
        prefix,
        "request_latency",
        latency,
        subject="request latency",
        window_noun="Latency",
    )
    _render_histogram(
        lines,
        prefix,
        "queue_wait",
        queue_wait,
        subject="queue wait",
        window_noun="Queue-wait",
    )
    _render_histogram(
        lines,
        prefix,
        "execution",
        execution,
        subject="execution time",
        window_noun="Execution-time",
    )

    for field, help_text in (
        ("window_size", "Hit-rate samples in the sliding window."),
        ("window_mean", "Mean MCMC evaluation-cache hit rate over the window."),
        ("older_half_mean", "Hit-rate mean of the window's older half."),
        ("newer_half_mean", "Hit-rate mean of the window's newer half."),
        ("trend", "Newer-half minus older-half hit rate (positive = warming)."),
    ):
        name = f"{prefix}_cache_hit_rate_{field}"
        _metric(lines, name, "gauge", help_text)
        lines.append(f"{name} {_format_value(hit_rate.get(field))}")

    _metric(lines, f"{prefix}_in_flight_requests", "gauge", "Requests currently executing.")
    lines.append(f"{prefix}_in_flight_requests {_format_value(metrics.get('in_flight', 0))}")

    _metric(
        lines,
        f"{prefix}_admission_policy",
        "gauge",
        "Full-queue policy as an info gauge (the active policy label is 1).",
    )
    lines.append(
        f'{prefix}_admission_policy{{policy="{queue.get("policy", "block")}"}} 1'
    )
    for field, kind, help_text in (
        ("max_depth", "gauge", "Admission bound (NaN = unbounded)."),
        ("depth", "gauge", "Currently admitted (queued + executing) requests."),
        ("peak_depth", "gauge", "Highest admitted depth observed."),
        ("admitted", "counter", "Requests admitted by the queue."),
        ("rejected", "counter", "Requests shed by the reject policy."),
        ("blocked_seconds", "counter", "Total submitter time spent blocked on a full queue."),
    ):
        suffix = "_total" if kind == "counter" else ""
        name = f"{prefix}_admission_{field}{suffix}"
        _metric(lines, name, kind, help_text)
        lines.append(f"{name} {_format_value(queue.get(field))}")

    for field, kind, help_text in (
        ("enabled", "gauge", "Whether the QoS scheduler is on (1) or off (0)."),
        ("slots", "gauge", "Concurrent execution slots of the scheduler (NaN = unlimited/off)."),
        ("rate_limited", "counter", "Requests shed by a token-bucket rate limit."),
        ("deadline_exceeded", "counter", "Requests shed because their deadline passed at dequeue."),
    ):
        suffix = "_total" if kind == "counter" else ""
        name = f"{prefix}_qos_{field}{suffix}"
        _metric(lines, name, kind, help_text)
        lines.append(f"{name} {_format_value(qos.get(field))}")

    tiers = qos.get("tiers") or {}
    if tiers:
        for field, kind, help_text in (
            ("weight", "gauge", "WFQ weight of the SLA tier."),
            ("requests", "counter", "Requests granted execution on the SLA tier."),
            ("rate_limited", "counter", "Tier requests shed by the token bucket."),
            ("deadline_exceeded", "counter", "Tier requests shed at their deadline."),
        ):
            suffix = "_total" if kind == "counter" else ""
            name = f"{prefix}_tier_{field}{suffix}"
            _metric(lines, name, kind, help_text)
            for tier_name, tier in tiers.items():
                lines.append(
                    f'{name}{{tier="{tier_name}"}} {_format_value(tier.get(field))}'
                )
        _metric(
            lines,
            f"{prefix}_tier_queue_wait_seconds",
            "histogram",
            "Queue-wait distribution per SLA tier.",
        )
        for tier_name, tier in tiers.items():
            snapshot = tier.get("queue_wait") or {}
            count = int(snapshot.get("count", 0) or 0)
            mean = snapshot.get("mean_seconds")
            total_sum = float(mean) * count if mean is not None else 0.0
            bucket_counts = list((snapshot.get("buckets") or {}).values())
            if len(bucket_counts) != len(BUCKET_BOUNDS) + 1:
                bucket_counts = [0] * (len(BUCKET_BOUNDS) + 1)
            cumulative = 0
            for bound, bucket in zip(BUCKET_BOUNDS, bucket_counts):
                cumulative += int(bucket)
                lines.append(
                    f'{prefix}_tier_queue_wait_seconds_bucket'
                    f'{{tier="{tier_name}",le="{bound:g}"}} {cumulative}'
                )
            lines.append(
                f'{prefix}_tier_queue_wait_seconds_bucket'
                f'{{tier="{tier_name}",le="+Inf"}} {count}'
            )
            lines.append(
                f'{prefix}_tier_queue_wait_seconds_sum{{tier="{tier_name}"}} '
                f"{_format_value(total_sum)}"
            )
            lines.append(
                f'{prefix}_tier_queue_wait_seconds_count{{tier="{tier_name}"}} {count}'
            )
        for field, help_text in (
            ("p50_seconds", "Median tier queue wait over the sliding window."),
            ("p95_seconds", "95th-percentile tier queue wait over the sliding window."),
            ("p99_seconds", "99th-percentile tier queue wait over the sliding window."),
        ):
            name = f"{prefix}_tier_queue_wait_{field}"
            _metric(lines, name, "gauge", help_text)
            for tier_name, tier in tiers.items():
                snapshot = tier.get("queue_wait") or {}
                lines.append(
                    f'{name}{{tier="{tier_name}"}} {_format_value(snapshot.get(field))}'
                )

    for field, kind, help_text in (
        ("enabled", "gauge", "Whether the Step-1 memo is on (1) or off (0)."),
        ("entries", "gauge", "Entries in the Step-1 memo."),
        ("hits", "counter", "Step-1 searches served from the memo."),
        ("misses", "counter", "Step-1 searches that ran the landmark/Steiner pass."),
    ):
        suffix = "_total" if kind == "counter" else ""
        name = f"{prefix}_step1_memo_{field}{suffix}"
        _metric(lines, name, kind, help_text)
        lines.append(f"{name} {_format_value(step1.get(field, 0))}")

    for name, value in (extra or {}).items():
        full = f"{prefix}_{name}"
        _metric(lines, full, "gauge", f"Server state gauge {name}.")
        lines.append(f"{full} {_format_value(value)}")

    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ the server
class AcquisitionHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server wrapping one hot acquisition service.

    ``service`` is the :class:`~repro.service.session.AcquisitionService` it
    fronts.  The server owns the HTTP lifecycle only; it never builds or
    closes the service (callers pair it with ``with service: ...``).

    Handler threads are daemonic and connections are HTTP/1.0 (closed per
    response), so a drain only has to wait for requests already executing.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: AcquisitionService,
        *,
        queries: Mapping[str, object] | None = None,
        default_tier: str | None = None,
    ) -> None:
        super().__init__(address, _AcquisitionHandler)
        self.service = service
        self.queries = dict(queries or {})
        self.default_tier = default_tier
        self._state = threading.Condition(threading.Lock())
        self._http_in_flight = 0
        self._draining = False

    @property
    def port(self) -> int:
        """The bound port (useful with ``("127.0.0.1", 0)`` ephemeral binds)."""
        return self.server_address[1]

    @property
    def draining(self) -> bool:
        with self._state:
            return self._draining

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread and return it."""
        thread = threading.Thread(
            target=self.serve_forever, name="acquisition-http", daemon=True
        )
        thread.start()
        return thread

    def _enter_request(self) -> bool:
        """Register one /acquire execution; refused once draining."""
        with self._state:
            if self._draining:
                return False
            self._http_in_flight += 1
            return True

    def _exit_request(self) -> None:
        with self._state:
            self._http_in_flight -= 1
            self._state.notify_all()

    def drain(self, timeout: float | None = 30.0) -> bool:
        """Stop accepting /acquire work and wait for in-flight requests.

        Health flips to draining immediately.  Returns whether the in-flight
        count reached zero within ``timeout``.
        """
        with self._state:
            self._draining = True
            return self._state.wait_for(lambda: self._http_in_flight == 0, timeout)

    def graceful_shutdown(self, timeout: float | None = 30.0) -> bool:
        """Drain, checkpoint to the service's catalog, close the listener.

        The checkpoint runs only when the service is configured with a
        catalog path; a failing checkpoint warns and still closes (shutdown
        must never hang on storage).  Returns the drain outcome.
        """
        drained = self.drain(timeout)
        catalog_path = getattr(self.service.config.service, "catalog_path", None)
        if catalog_path is not None:
            try:
                self.service.persist()
            except (StorageError, ReproError) as error:
                warnings.warn(
                    f"shutdown checkpoint failed: {error}", RuntimeWarning, stacklevel=2
                )
        self.shutdown()
        self.server_close()
        return drained


class _AcquisitionHandler(BaseHTTPRequestHandler):
    """Routes /acquire, /metrics, /healthz.  One instance per connection."""

    server: AcquisitionHTTPServer

    # Quiet by default: the server is driven from tests and benchmarks where
    # per-request stderr lines are noise.
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    # ------------------------------------------------------------------ plumbing
    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: object, headers: Mapping[str, str] | None = None
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self._send_body(status, body, "application/json", headers)

    def _send_error_response(self, error: BaseException) -> None:
        status = error_status(error)
        headers = None
        if status in (503, 429):
            # Computed backoff: the scheduler attaches queue-depth x p50 (503)
            # or the token bucket's refill time (429) to the error.
            headers = {
                "Retry-After": retry_after_header(getattr(error, "retry_after", None))
            }
        self._send_json(status, error_body(error), headers)

    def _not_found(self) -> None:
        self._send_json(
            404, {"error": {"type": "NotFound", "message": f"unknown path {self.path}"}}
        )

    # ------------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        if self.path == "/healthz":
            if self.server.draining:
                self._send_json(503, {"status": "draining"}, {"Retry-After": "1"})
            else:
                self._send_json(200, {"status": "ok"})
        elif self.path == "/metrics":
            payload = self.server.service.metrics()
            text = render_prometheus(
                payload, extra={"server_draining": 1.0 if self.server.draining else 0.0}
            )
            self._send_body(200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
        else:
            self._not_found()

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        if self.path != "/acquire":
            self._not_found()
            return
        if not self.server._enter_request():
            self._send_json(
                503,
                {"error": {"type": "ServerDraining", "message": "server is draining"}},
                {"Retry-After": "1"},
            )
            return
        try:
            self._handle_acquire()
        finally:
            self.server._exit_request()

    # ------------------------------------------------------------------ acquire
    def _handle_acquire(self) -> None:
        # The declared length is checked before any of the body is read.
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            message = f"invalid Content-Length {declared!r}"
            self._send_json(400, {"error": {"type": "InvalidRequest", "message": message}})
            return
        if length > MAX_BODY_BYTES:
            message = f"a body of {length} bytes is over the {MAX_BODY_BYTES}-byte limit"
            self._send_json(413, {"error": {"type": "PayloadTooLarge", "message": message}})
            return
        try:
            raw = self.rfile.read(length) if length > 0 else b""
            spec = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as error:
            message = f"invalid JSON body: {error}"
            self._send_json(
                400, {"error": {"type": "InvalidRequest", "message": message}}
            )
            return
        try:
            if isinstance(spec, list):
                self._serve_batch({"requests": spec})
            elif isinstance(spec, dict) and "requests" in spec:
                self._serve_batch(spec)
            else:
                self._serve_single(spec)
        except ReproError as error:
            self._send_error_response(error)
        except Exception:  # dancelint: disable=ERR301 -- HTTP boundary: typed 500 body
            self._send_json(
                500,
                {
                    "error": {
                        "type": "InternalServerError",
                        "message": "unexpected server error",
                    }
                },
            )

    def _default_tier(self) -> str | None:
        """The connection-level SLA tier: ``X-Dance-Tier`` header, falling
        back to the server-wide default (CLI ``--tier``); specs override both."""
        return self.headers.get("X-Dance-Tier") or self.server.default_tier

    def _serve_single(self, spec: object) -> None:
        request = request_from_spec(
            spec, self.server.queries, default_tier=self._default_tier()
        )
        seed = spec.get("seed") if isinstance(spec, dict) else None
        if seed is not None:
            seed = _seed(seed, "seed")
        result = self.server.service.acquire(request, seed=seed)
        self._send_json(
            200,
            {
                "ok": True,
                "seed": seed if seed is not None else self.server.service.seed,
                "result": result.summary(),
            },
        )

    def _serve_batch(self, spec: dict) -> None:
        specs = spec["requests"]
        if not isinstance(specs, list):
            raise ReproError('"requests" must be a JSON list of request objects')
        default_tier = self._default_tier()
        requests = [
            request_from_spec(item, self.server.queries, default_tier=default_tier)
            for item in specs
        ]
        seeds = spec.get("seeds")
        if seeds is not None:
            if not isinstance(seeds, list):
                raise ReproError('"seeds" must be a JSON list of integers')
            seeds = [_seed(seed, "seeds entry") for seed in seeds]
        batch = self.server.service.acquire_batch(requests, seeds=seeds)
        rejected = sum(
            1 for item in batch if isinstance(item.error, AdmissionRejectedError)
        )
        rate_limited = sum(
            1 for item in batch if isinstance(item.error, RateLimitedError)
        )
        deadline_exceeded = sum(
            1 for item in batch if isinstance(item.error, DeadlineExceededError)
        )
        payload = {
            "ok": batch.ok,
            "rejected": rejected,
            "rate_limited": rate_limited,
            "deadline_exceeded": deadline_exceeded,
            "results": batch.summary(),
        }
        shed = rejected + rate_limited + deadline_exceeded
        if batch.items and shed == len(batch.items):
            # Nothing ran at all: the whole batch was shed — surface the same
            # backpressure signal a single rejected request gets, with the
            # largest computed backoff among the shed items.
            hints = [
                getattr(item.error, "retry_after", None)
                for item in batch
                if item.error is not None
            ]
            hints = [hint for hint in hints if hint is not None and math.isfinite(hint)]
            self._send_json(
                503, payload, {"Retry-After": retry_after_header(max(hints, default=None))}
            )
        else:
            self._send_json(200, payload)
