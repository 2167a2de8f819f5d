"""Tests for the service traffic layer: bounded admission and shopper fairness.

The contracts: admission decides whether/when a request runs, never what it
computes (served results stay bit-identical to the unbounded service); a full
queue blocks or rejects per policy; batch submission interleaves shoppers
round-robin while seeds and result positions follow the original index.  The
admission bound is the scheduler's ``queue`` gate; its tier, rate and deadline
mechanics are pinned in ``test_qos.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.exceptions import AdmissionRejectedError, ReproError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.pricing.sla import QosConfig
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService, fair_order, request_seed
from repro.service.qos import QosScheduler


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


def config(**service_kwargs) -> DanceConfig:
    return DanceConfig(
        sampling_rate=1.0,
        mcmc=MCMCConfig(iterations=30, seed=0),
        service=ServiceConfig(**service_kwargs),
    )


REQUEST = AcquisitionRequest(
    source_attributes=["measure"], target_attributes=["label"], budget=1e9
)


def hold_slot(service: AcquisitionService):
    """Occupy one admission slot the way an in-flight request does."""
    ticket = service._scheduler.submit(REQUEST)
    service._scheduler.await_grant(ticket)
    return ticket


def shopper_request(name: str) -> AcquisitionRequest:
    return AcquisitionRequest(
        source_attributes=["measure"],
        target_attributes=["label"],
        budget=1e9,
        shopper=name,
    )


class TestFairOrder:
    def test_round_robin_across_shoppers(self):
        assert fair_order(["a", "a", "a", "b", "b"]) == [0, 3, 1, 4, 2]

    def test_rotation_follows_first_appearance(self):
        assert fair_order(["b", "a", "b", "a"]) == [0, 1, 2, 3]
        assert fair_order(["a", "b", "b", "b"]) == [0, 1, 2, 3]
        assert fair_order(["b", "b", "b", "a"]) == [0, 3, 1, 2]

    def test_single_or_no_shopper_keeps_order(self):
        assert fair_order([None, None, None]) == [0, 1, 2]
        assert fair_order(["a", "a"]) == [0, 1]
        assert fair_order([]) == []

    def test_none_is_its_own_group(self):
        assert fair_order(["a", None, "a", None]) == [0, 1, 2, 3]

    def test_permutation(self):
        shoppers = ["a", "b", "c", "a", "b", "a", None, "c"]
        order = fair_order(shoppers)
        assert sorted(order) == list(range(len(shoppers)))



def granted(scheduler: QosScheduler):
    """Submit and grant one request: it holds an admission slot until released."""
    ticket = scheduler.submit(REQUEST)
    scheduler.await_grant(ticket)
    return ticket


class TestAdmissionQueue:
    """The scheduler's admission bound: queued + executing requests, per policy."""

    def test_reject_policy_sheds_at_depth(self):
        scheduler = QosScheduler(QosConfig(), max_depth=2, policy="reject")
        first = granted(scheduler)
        scheduler.submit(REQUEST)  # queued, not yet granted: still counts
        with pytest.raises(AdmissionRejectedError):
            scheduler.submit(REQUEST)
        scheduler.release(first)
        scheduler.submit(REQUEST)
        snapshot = scheduler.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["admitted"] == 3
        assert snapshot["depth"] == 2

    def test_block_policy_waits_for_release(self):
        scheduler = QosScheduler(QosConfig(), max_depth=1, policy="block")
        held = granted(scheduler)
        admitted = threading.Event()

        def blocked_admit():
            scheduler.submit(REQUEST)
            admitted.set()

        thread = threading.Thread(target=blocked_admit, daemon=True)
        thread.start()
        assert not admitted.wait(0.05)  # still blocked while the slot is held
        scheduler.release(held)
        assert admitted.wait(2.0)
        thread.join(2.0)
        assert scheduler.snapshot()["blocked_seconds"] > 0.0
        assert scheduler.depth == 1

    def test_release_without_admit_rejected(self):
        owner = QosScheduler(QosConfig())
        ticket = granted(owner)
        # The ticket holds no slot in a scheduler that never granted it.
        with pytest.raises(ReproError):
            QosScheduler(QosConfig()).release(ticket)
        # The refused release left the ticket holding its owner's slot.
        assert owner.depth == 1
        owner.release(ticket)
        assert owner.depth == 0

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            QosScheduler(QosConfig(), max_depth=0, policy="block")
        with pytest.raises(ReproError):
            QosScheduler(QosConfig(), max_depth=1, policy="fifo")


class TestServiceAdmission:
    def test_reject_policy_raises_on_single_acquire(self):
        with AcquisitionService(
            small_marketplace(), config(max_queue_depth=1, admission="reject")
        ) as service:
            ticket = hold_slot(service)  # saturate the only slot
            try:
                with pytest.raises(AdmissionRejectedError):
                    service.acquire(REQUEST)
            finally:
                service._scheduler.release(ticket)
            # Draining the queue restores service.
            assert service.acquire(REQUEST).estimated_correlation is not None

    def test_reject_policy_sheds_batch_items(self):
        with AcquisitionService(
            small_marketplace(), config(max_queue_depth=1, admission="reject")
        ) as service:
            ticket = hold_slot(service)
            try:
                batch = service.acquire_batch([REQUEST, REQUEST])
            finally:
                service._scheduler.release(ticket)
            assert not batch.ok
            assert all(
                isinstance(item.error, AdmissionRejectedError) for item in batch
            )
            # Rejected items keep their index-derived seed and position.
            assert [item.index for item in batch] == [0, 1]
            assert [item.seed for item in batch] == [request_seed(0, i) for i in range(2)]
            assert service.metrics()["queue"]["rejected"] == 2
            # Rejections never executed: they count only in the queue, not
            # as served requests or search errors.
            description = service.describe()
            assert description["requests_served"] == 0
            assert description["errors"] == 0

    def test_bounded_block_batch_is_bit_identical_to_unbounded(self):
        requests = [REQUEST, REQUEST.with_budget(1e8), REQUEST]
        with AcquisitionService(small_marketplace(), config()) as service:
            unbounded = service.acquire_batch(requests)
        with AcquisitionService(
            small_marketplace(), config(max_queue_depth=1, admission="block")
        ) as service:
            bounded = service.acquire_batch(requests)
            queue = service.metrics()["queue"]
        assert bounded.ok and unbounded.ok
        for lhs, rhs in zip(bounded, unbounded):
            assert lhs.result.estimated_correlation == rhs.result.estimated_correlation
            assert lhs.result.sql() == rhs.result.sql()
        assert queue["rejected"] == 0
        assert queue["admitted"] == len(requests)
        assert queue["peak_depth"] <= 1

    def test_queue_counters_track_serving(self):
        with AcquisitionService(
            small_marketplace(), config(max_queue_depth=8)
        ) as service:
            service.acquire(REQUEST)
            service.acquire_batch([REQUEST, REQUEST])
            queue = service.metrics()["queue"]
        assert queue["admitted"] == 3
        assert queue["depth"] == 0
        assert queue["max_depth"] == 8
        assert queue["policy"] == "block"


class TestBatchFairness:
    def test_submission_order_interleaves_shoppers(self):
        requests = [
            shopper_request("alice"),
            shopper_request("alice"),
            shopper_request("alice"),
            shopper_request("bob"),
            shopper_request("bob"),
        ]
        served_order: list[int] = []
        with AcquisitionService(
            small_marketplace(), config(max_batch_workers=1)
        ) as service:
            original = service._serve_item

            def spy(request, *, index, seed, **kwargs):
                served_order.append(index)
                return original(request, index=index, seed=seed, **kwargs)

            service._serve_item = spy
            batch = service.acquire_batch(requests)
        assert served_order == [0, 3, 1, 4, 2]
        # Fairness only permutes submission: results sit at their request
        # position with their index-derived seed.
        assert [item.index for item in batch] == [0, 1, 2, 3, 4]
        assert [item.seed for item in batch] == [request_seed(0, i) for i in range(5)]

    def test_fairness_does_not_change_results(self):
        anonymous = [REQUEST, REQUEST.with_budget(1e8), REQUEST]
        mixed = [
            shopper_request("alice"),
            shopper_request("alice").with_budget(1e8),
            shopper_request("bob"),
        ]
        with AcquisitionService(small_marketplace(), config()) as service:
            plain = service.acquire_batch(anonymous)
        with AcquisitionService(small_marketplace(), config()) as service:
            fair = service.acquire_batch(mixed)
        for lhs, rhs in zip(plain, fair):
            assert lhs.result.estimated_correlation == rhs.result.estimated_correlation
            assert lhs.result.sql() == rhs.result.sql()

    def test_shopper_survives_with_budget_and_summary(self):
        request = shopper_request("alice").with_budget(5.0)
        assert request.shopper == "alice"
        with AcquisitionService(small_marketplace(), config()) as service:
            batch = service.acquire_batch([shopper_request("alice")])
        assert batch[0].summary()["shopper"] == "alice"


class TestBlockingBackpressure:
    def test_blocked_acquire_completes_after_release(self):
        with AcquisitionService(
            small_marketplace(), config(max_queue_depth=1, admission="block")
        ) as service:
            ticket = hold_slot(service)
            results: list[object] = []

            def blocked_request():
                results.append(service.acquire(REQUEST))

            thread = threading.Thread(target=blocked_request, daemon=True)
            thread.start()
            time.sleep(0.05)
            assert not results  # back-pressured while the slot is held
            service._scheduler.release(ticket)
            thread.join(10.0)
            assert len(results) == 1
            metrics = service.metrics()
            assert metrics["queue"]["blocked_seconds"] > 0.0
            # The served request's queue wait counts its block.
            assert metrics["queue_wait"]["max_seconds"] >= 0.05
