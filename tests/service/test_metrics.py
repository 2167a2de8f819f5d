"""Tests for the service metrics subsystem (``repro.service.metrics``)."""

from __future__ import annotations

import json

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.exceptions import ReproError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService, LatencyHistogram, ServiceMetrics


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50_seconds"] is None
        assert snapshot["mean_seconds"] is None

    def test_percentiles_nearest_rank(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):  # 0.01 .. 1.00
            histogram.record(value / 100.0)
        assert histogram.percentile(0.50) == pytest.approx(0.50)
        assert histogram.percentile(0.95) == pytest.approx(0.95)
        assert histogram.percentile(0.99) == pytest.approx(0.99)
        assert histogram.percentile(1.00) == pytest.approx(1.00)

    def test_single_sample(self):
        histogram = LatencyHistogram()
        histogram.record(0.2)
        assert histogram.percentile(0.5) == 0.2
        assert histogram.percentile(0.99) == 0.2

    def test_window_tracks_recent_lifetime_buckets_do_not(self):
        histogram = LatencyHistogram(window=4)
        for _ in range(10):
            histogram.record(5.0)  # old, slow
        for _ in range(4):
            histogram.record(0.002)  # recent, fast
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 14  # lifetime
        assert snapshot["p99_seconds"] == pytest.approx(0.002)  # window only
        assert snapshot["buckets"]["<=2.5s"] == 0
        assert snapshot["buckets"]["<=5s"] == 10
        assert snapshot["buckets"]["<=0.0025s"] == 4

    def test_overflow_bucket(self):
        histogram = LatencyHistogram()
        histogram.record(60.0)
        assert histogram.snapshot()["buckets"][">10s"] == 1

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            LatencyHistogram(window=0)
        with pytest.raises(ReproError):
            LatencyHistogram().percentile(0.0)
        with pytest.raises(ReproError):
            LatencyHistogram().percentile(1.5)


class TestServiceMetrics:
    def test_counts_requests_and_errors(self):
        metrics = ServiceMetrics()
        metrics.record_request(0.1, ok=True, cache_hit_rate=0.5)
        metrics.record_request(0.2, ok=False)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["errors"] == 1
        assert snapshot["latency"]["count"] == 2

    def test_hit_rate_trend_warming(self):
        metrics = ServiceMetrics(window=8)
        for rate in (0.0, 0.1, 0.2, 0.3, 0.8, 0.9, 0.9, 1.0):
            metrics.record_request(0.01, ok=True, cache_hit_rate=rate)
        trend = metrics.snapshot()["cache_hit_rate"]
        assert trend["window_size"] == 8
        assert trend["older_half_mean"] == pytest.approx(0.15)
        assert trend["newer_half_mean"] == pytest.approx(0.9)
        assert trend["trend"] == pytest.approx(0.75)

    def test_trend_with_no_samples(self):
        trend = ServiceMetrics().snapshot()["cache_hit_rate"]
        assert trend["window_size"] == 0
        assert trend["window_mean"] is None
        assert trend["trend"] is None

    def test_single_sample_has_no_trend(self):
        metrics = ServiceMetrics()
        metrics.record_request(0.01, ok=True, cache_hit_rate=0.4)
        trend = metrics.snapshot()["cache_hit_rate"]
        assert trend["window_mean"] == pytest.approx(0.4)
        assert trend["older_half_mean"] is None
        assert trend["trend"] is None


def small_marketplace() -> Marketplace:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    facts = Table.from_rows(
        "facts",
        ["good_key", "bad_key", "measure"],
        [(i % 10, i % 3, float(i % 8) * 10 + i % 3) for i in range(64)],
    )
    dims = Table.from_rows(
        "dims",
        ["good_key", "bad_key", "label"],
        [(i, i % 2, f"lbl{i}") for i in range(8)],
    )
    for table in (facts, dims):
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))
    return marketplace


REQUEST = AcquisitionRequest(
    source_attributes=["measure"], target_attributes=["label"], budget=1e9
)


class TestServiceMetricsIntegration:
    def test_metrics_dump_covers_the_traffic_layer(self):
        config = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=30, seed=0),
            service=ServiceConfig(max_queue_depth=4),
        )
        with AcquisitionService(small_marketplace(), config) as service:
            service.acquire(REQUEST)
            service.acquire(REQUEST)
            service.acquire(REQUEST.with_budget(2e9))
            metrics = service.metrics()
        assert metrics["requests"] == 3
        assert metrics["errors"] == 0
        assert metrics["in_flight"] == 0
        assert metrics["latency"]["p50_seconds"] is not None
        assert metrics["latency"]["p95_seconds"] is not None
        assert metrics["latency"]["p99_seconds"] is not None
        assert metrics["queue"]["admitted"] == 3
        # The warm repeat is answered from the answer memo: it runs no
        # search, so only the two walks enter the trend.  The walk at the
        # other budget is fully cached, so the window trend is upward.
        assert metrics["answer_memo"] == {"entries": 2, "hits": 1, "misses": 2}
        assert metrics["cache_hit_rate"]["window_size"] == 2
        assert metrics["cache_hit_rate"]["window_mean"] > 0.0
        json.dumps(metrics)  # the dump is plain JSON

    def test_answer_memo_schema_stable_before_first_request(self):
        config = DanceConfig(sampling_rate=1.0, mcmc=MCMCConfig(iterations=30, seed=0))
        with AcquisitionService(small_marketplace(), config, build_offline=False) as service:
            memo = service.metrics()["answer_memo"]
            described = service.describe()
        assert memo == {"entries": 0, "hits": 0, "misses": 0}
        assert described["answer_memo_entries"] == 0

    def test_describe_embeds_metrics(self):
        config = DanceConfig(sampling_rate=1.0, mcmc=MCMCConfig(iterations=30, seed=0))
        with AcquisitionService(small_marketplace(), config) as service:
            service.acquire(REQUEST)
            description = service.describe()
        assert description["metrics"]["requests"] == 1
        assert description["answer_memo_entries"] == 1
        assert description["in_flight"] == 0

    def test_failed_requests_count_as_errors_with_latency(self):
        config = DanceConfig(sampling_rate=1.0, mcmc=MCMCConfig(iterations=30, seed=0))
        bad = AcquisitionRequest(
            source_attributes=["measure"], target_attributes=["nope"], budget=1e9
        )
        with AcquisitionService(small_marketplace(), config) as service:
            batch = service.acquire_batch([bad])
            metrics = service.metrics()
        assert not batch.ok
        assert metrics["errors"] == 1
        assert metrics["latency"]["count"] == 1
