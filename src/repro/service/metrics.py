"""Service observability: latency histograms and hit-rate trends.

`AcquisitionService.describe()` historically reported coarse lifetime counters
(requests served, errors, cache sizes).  This module adds the per-request
view an operator actually pages on:

:class:`LatencyHistogram`
    Cumulative log-spaced latency buckets plus a sliding window of raw
    samples, from which p50/p95/p99 are computed exactly (nearest-rank over
    the window).  The buckets never forget — they describe the service's
    lifetime — while the percentiles track *recent* behaviour.

:class:`ServiceMetrics`
    Aggregates the histogram with per-request success/error counts and the
    MCMC evaluation-cache hit rate of each served request, reporting the
    hit-rate *trend* over the sliding window (older half vs. newer half —
    a warming cache trends up, an invalidation shows as a drop).

All classes are thread-safe; ``snapshot()`` methods return plain-JSON dicts
(surfaced through ``AcquisitionService.describe()``/``metrics()``, the CLI
``metrics`` command and the ``batch`` summary).
"""

from __future__ import annotations

import math
import threading
from collections import deque

from repro.exceptions import ReproError

# Upper bucket bounds in seconds; one implicit overflow bucket follows.
BUCKET_BOUNDS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Samples in every sliding percentile window: the service's latency,
#: queue-wait and execution histograms, its hit-rate trend, and the
#: scheduler's per-tier queue-wait histograms.
WINDOW = 256


def _percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty sample list."""
    rank = math.ceil(quantile * len(ordered) - 1e-9)
    return ordered[max(1, min(rank, len(ordered))) - 1]


class LatencyHistogram:
    """Lifetime latency buckets plus exact percentiles over a sliding window."""

    def __init__(self, window: int = WINDOW, bounds: tuple[float, ...] = BUCKET_BOUNDS):
        if window < 1:
            raise ReproError(f"window must be >= 1, got {window}")
        self._bounds = tuple(bounds)
        self._counts = [0] * (len(self._bounds) + 1)
        self._window: deque[float] = deque(maxlen=window)
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if seconds <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._window.append(seconds)
            self._total += 1
            self._sum += seconds
            self._max = max(self._max, seconds)

    def percentile(self, quantile: float) -> float | None:
        """Nearest-rank percentile over the sliding window (``None`` when empty)."""
        if not 0.0 < quantile <= 1.0:
            raise ReproError(f"quantile must be in (0, 1], got {quantile}")
        with self._lock:
            samples = sorted(self._window)
        if not samples:
            return None
        return _percentile(samples, quantile)

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            samples = sorted(self._window)
            counts = list(self._counts)
            total, total_sum, maximum = self._total, self._sum, self._max
        buckets: dict[str, int] = {}
        for bound, count in zip(self._bounds, counts):
            buckets[f"<={bound:g}s"] = count
        buckets[f">{self._bounds[-1]:g}s"] = counts[-1]
        payload: dict[str, object] = {
            "count": total,
            "mean_seconds": (total_sum / total) if total else None,
            "max_seconds": maximum if total else None,
            "window_size": len(samples),
            "buckets": buckets,
        }
        for name, quantile in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            payload[f"{name}_seconds"] = (
                _percentile(samples, quantile) if samples else None
            )
        return payload


class ServiceMetrics:
    """Per-request latency, outcome, and cache hit-rate trend of one service.

    End-to-end latency is tracked in three histograms: ``latency``
    (queue wait + execution, what the caller observes), ``queue_wait``
    (from submission to the scheduler's grant, a block at the depth bound
    included), and ``execution`` (from the grant to the result).  The split
    is what makes scheduling effects visible — WFQ moves queue wait between
    tiers while execution time stays put.
    """

    def __init__(self, window: int = WINDOW):
        self.latency = LatencyHistogram(window=window)
        self.queue_wait = LatencyHistogram(window=window)
        self.execution = LatencyHistogram(window=window)
        self._hit_rates: deque[float] = deque(maxlen=window)
        self._requests = 0
        self._errors = 0
        self._lock = threading.Lock()

    def record_request(
        self,
        elapsed_seconds: float,
        *,
        ok: bool,
        cache_hit_rate: float | None = None,
        queued_seconds: float | None = None,
        execution_seconds: float | None = None,
    ) -> None:
        """Record one executed request (rejected requests never reach here)."""
        self.latency.record(elapsed_seconds)
        if queued_seconds is not None:
            self.queue_wait.record(queued_seconds)
        if execution_seconds is not None:
            self.execution.record(execution_seconds)
        with self._lock:
            self._requests += 1
            if not ok:
                self._errors += 1
            if cache_hit_rate is not None:
                self._hit_rates.append(cache_hit_rate)

    def _hit_rate_trend_locked(self) -> dict[str, object]:
        rates = list(self._hit_rates)
        if not rates:
            return {
                "window_size": 0,
                "window_mean": None,
                "older_half_mean": None,
                "newer_half_mean": None,
                "trend": None,
            }
        half = len(rates) // 2
        older = rates[:half]
        newer = rates[half:]
        older_mean = (sum(older) / len(older)) if older else None
        newer_mean = sum(newer) / len(newer)
        return {
            "window_size": len(rates),
            "window_mean": sum(rates) / len(rates),
            "older_half_mean": older_mean,
            "newer_half_mean": newer_mean,
            # Positive = the caches are warming up; a drop flags invalidation.
            "trend": (newer_mean - older_mean) if older_mean is not None else None,
        }

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            requests, errors = self._requests, self._errors
            hit_rate = self._hit_rate_trend_locked()
        return {
            "requests": requests,
            "errors": errors,
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
            "execution": self.execution.snapshot(),
            "cache_hit_rate": hit_rate,
        }
