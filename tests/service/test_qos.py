"""Tests for the scheduler: admission bound, tiers, token buckets, deadlines.

The scheduler is the service's one admission path.  It decides *whether and
when* a request runs — bounded by the queue depth, weighted by its SLA tier,
paced by its token bucket, shed at its deadline — never what it computes.  A
contended mixed-tier batch must be bit-identical to the plain serial service.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    RateLimitedError,
    ReproError,
)
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.pricing.sla import DEFAULT_TIERS, QosConfig, SlaTier
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService, request_seed
from repro.service import qos as qos_module
from repro.service.qos import QosScheduler, retry_after_hint


def request(shopper=None, tier=None, deadline=None) -> AcquisitionRequest:
    return AcquisitionRequest(
        source_attributes=["measure"],
        target_attributes=["label"],
        budget=1e9,
        shopper=shopper,
        tier=tier,
        deadline=deadline,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------------ the config
class TestQosConfig:
    def test_default_ladder_has_no_rates_and_no_slot_cap(self):
        config = QosConfig()
        assert config.tiers == dict(DEFAULT_TIERS)
        assert config.default_tier == "bronze"
        assert config.slots is None
        assert all(tier.rate is None for tier in config.tiers.values())

    def test_service_config_takes_only_a_qos_config(self):
        assert isinstance(ServiceConfig().qos, QosConfig)
        for spelling in ("on", 1, None):
            with pytest.raises(ReproError):
                ServiceConfig(qos=spelling)

    def test_validation(self):
        with pytest.raises(ReproError):
            QosConfig(tiers={})
        with pytest.raises(ReproError):
            QosConfig(tiers={"a": SlaTier("b")})  # key / name mismatch
        with pytest.raises(ReproError):
            QosConfig(default_tier="platinum")
        with pytest.raises(ReproError):
            QosConfig(slots=0)
        assert QosConfig(slots=None).slots is None


# ----------------------------------------------------------------- retry hints
class TestRetryAfterHint:
    def test_degrades_to_one_without_history(self):
        assert retry_after_hint(10, None) == 1
        assert retry_after_hint(10, 0.0) == 1

    def test_scales_with_depth_times_p50(self):
        assert retry_after_hint(4, 2.0) == 8
        assert retry_after_hint(0, 2.0) == 2  # depth clamps to at least 1
        assert retry_after_hint(3, 0.1) == 1  # rounds up, floors at 1
        assert retry_after_hint(10_000, 60.0) == 600  # ceiling at 10 minutes


# --------------------------------------------------------------- the scheduler
class TestScheduler:
    def scheduler(self, clock=None, **kwargs) -> QosScheduler:
        return QosScheduler(QosConfig(), clock=clock or FakeClock(), **kwargs)

    def test_serial_grant_flow(self):
        clock = FakeClock()
        scheduler = self.scheduler(clock)
        ticket = scheduler.submit(request(shopper="a"))
        clock.advance(0.5)
        assert scheduler.await_grant(ticket) == 0.5
        assert scheduler.depth == 1  # executing counts toward depth
        scheduler.release(ticket)
        assert scheduler.depth == 0
        snapshot = scheduler.qos_snapshot()
        assert snapshot["tiers"]["bronze"]["requests"] == 1

    def test_default_tier_applies_to_anonymous_requests(self):
        scheduler = self.scheduler()
        assert scheduler.submit(request()).tier is DEFAULT_TIERS["bronze"]
        assert scheduler.submit(request(tier="gold")).tier is DEFAULT_TIERS["gold"]

    def test_unknown_tier_is_a_caller_error(self):
        scheduler = self.scheduler()
        with pytest.raises(ReproError, match="platinum"):
            scheduler.submit(request(tier="platinum"))

    def test_rate_limit_sheds_with_retry_after(self):
        clock = FakeClock()
        tiers = dict(DEFAULT_TIERS)
        tiers["bronze"] = SlaTier("bronze", rate=0.5, burst=2)
        scheduler = QosScheduler(QosConfig(tiers=tiers), clock=clock)
        for _ in range(2):  # the burst passes
            ticket = scheduler.submit(request(shopper="a"))
            scheduler.await_grant(ticket)
            scheduler.release(ticket)
        with pytest.raises(RateLimitedError) as excinfo:
            scheduler.submit(request(shopper="a"))
        assert excinfo.value.retry_after == pytest.approx(2.0)  # 1 token / 0.5 per s
        # Another shopper's bucket is untouched.
        ticket = scheduler.submit(request(shopper="b"))
        scheduler.await_grant(ticket)
        scheduler.release(ticket)
        # And the shed shopper recovers once the bucket refills.
        clock.advance(2.0)
        ticket = scheduler.submit(request(shopper="a"))
        scheduler.await_grant(ticket)
        scheduler.release(ticket)
        snapshot = scheduler.qos_snapshot()
        assert snapshot["rate_limited"] == 1
        assert snapshot["tiers"]["bronze"]["rate_limited"] == 1

    def test_token_buckets_stay_within_their_bound(self, monkeypatch):
        """Past ``TOKEN_BUCKETS`` the oldest bucket goes: the map stays at the
        bound, a shopper whose bucket is held is shed with the hints an
        unbounded scheduler gives, and an evicted shopper starts full."""
        tiers = dict(DEFAULT_TIERS)
        tiers["bronze"] = SlaTier("bronze", rate=0.5, burst=2)
        roomy_clock, bounded_clock = FakeClock(), FakeClock()
        roomy = QosScheduler(QosConfig(tiers=tiers), clock=roomy_clock)
        monkeypatch.setattr(qos_module, "TOKEN_BUCKETS", 3)
        bounded = QosScheduler(QosConfig(tiers=tiers), clock=bounded_clock)

        def submit(scheduler, clock, shopper):
            clock.advance(0.1)
            try:
                ticket = scheduler.submit(request(shopper=shopper))
            except RateLimitedError as error:
                return error.retry_after
            scheduler.await_grant(ticket)
            scheduler.release(ticket)
            return "served"

        newcomers = [f"s{index}" for index in range(5)] + ["s4"] * 3
        for shopper in newcomers:
            outcomes = [
                submit(roomy, roomy_clock, shopper),
                submit(bounded, bounded_clock, shopper),
            ]
            assert outcomes[0] == outcomes[1]
            assert len(bounded._buckets) <= 3
        # s4 spent its burst of two, so its last two requests were shed, the
        # last 0.15 tokens in: both schedulers gave the same hints.
        assert outcomes[0] == pytest.approx((1.0 - 0.15) / 0.5)
        assert len(bounded._buckets) == 3 and bounded._buckets.get(("s0", "bronze")) is None
        # s0's bucket was evicted: it starts full, where the roomy scheduler
        # still holds its spent token.
        assert [submit(bounded, bounded_clock, "s0") for _ in range(2)] == ["served"] * 2
        assert submit(roomy, roomy_clock, "s0") == "served"
        assert isinstance(submit(roomy, roomy_clock, "s0"), float)
        assert len(bounded._buckets) == 3

    def test_zero_rate_bucket_has_no_finite_retry_after(self):
        tiers = dict(DEFAULT_TIERS)
        tiers["bronze"] = SlaTier("bronze", rate=0.0, burst=1)
        scheduler = QosScheduler(QosConfig(tiers=tiers), clock=FakeClock())
        scheduler.submit(request(shopper="a"))
        with pytest.raises(RateLimitedError) as excinfo:
            scheduler.submit(request(shopper="a"))
        assert excinfo.value.retry_after is None  # never refills: no hint

    def test_expired_deadline_sheds_at_dequeue(self):
        clock = FakeClock()
        scheduler = self.scheduler(clock)
        ticket = scheduler.submit(request(shopper="a", deadline=1.0))
        clock.advance(1.5)
        with pytest.raises(DeadlineExceededError):
            scheduler.await_grant(ticket)
        # The shed never occupied a slot: the next request grants immediately.
        ticket = scheduler.submit(request(shopper="a"))
        scheduler.await_grant(ticket)
        scheduler.release(ticket)
        snapshot = scheduler.qos_snapshot()
        assert snapshot["deadline_exceeded"] == 1
        assert snapshot["tiers"]["bronze"]["deadline_exceeded"] == 1

    def test_deadline_shed_uses_execution_estimate_headroom(self):
        clock = FakeClock()
        scheduler = QosScheduler(
            QosConfig(), clock=clock, execution_estimate=lambda: 2.0
        )
        # 1s of headroom is not enough for an estimated 2s execution.
        ticket = scheduler.submit(request(shopper="a", deadline=1.0))
        with pytest.raises(DeadlineExceededError):
            scheduler.await_grant(ticket)
        # 3s of headroom is.
        ticket = scheduler.submit(request(shopper="a", deadline=3.0))
        assert scheduler.await_grant(ticket) == 0.0
        scheduler.release(ticket)

    def test_reject_policy_sheds_at_max_depth(self):
        scheduler = self.scheduler(max_depth=1, policy="reject")
        ticket = scheduler.submit(request(shopper="a"))
        with pytest.raises(AdmissionRejectedError) as excinfo:
            scheduler.submit(request(shopper="b"))
        assert excinfo.value.retry_after >= 1
        snapshot = scheduler.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["admitted"] == 1
        scheduler.await_grant(ticket)
        scheduler.release(ticket)

    def test_unbounded_admits_a_hundred_in_a_row(self):
        scheduler = self.scheduler(policy="reject")
        tickets = [scheduler.submit(request(shopper="a")) for _ in range(100)]
        snapshot = scheduler.snapshot()
        assert snapshot["admitted"] == 100
        assert snapshot["rejected"] == 0
        assert snapshot["peak_depth"] == 100
        for ticket in tickets:
            scheduler.await_grant(ticket)
            scheduler.release(ticket)
        assert scheduler.depth == 0

    def test_block_policy_waits_for_capacity(self):
        scheduler = self.scheduler(max_depth=1, policy="block")
        first = scheduler.submit(request(shopper="a"))
        scheduler.await_grant(first)
        submitted = threading.Event()
        tickets: list[object] = []

        def blocked_submit():
            tickets.append(scheduler.submit(request(shopper="b")))
            submitted.set()

        thread = threading.Thread(target=blocked_submit, daemon=True)
        thread.start()
        assert not submitted.wait(0.05)  # full: the submitter is blocked
        scheduler.release(first)
        assert submitted.wait(2.0)
        thread.join(2.0)
        scheduler.await_grant(tickets[0])
        scheduler.release(tickets[0])
        assert scheduler.snapshot()["blocked_seconds"] > 0.0

    def test_grants_follow_wfq_weight_order(self):
        # One execution slot, so the grants serialize and their order shows.
        scheduler = QosScheduler(QosConfig(slots=1), clock=FakeClock())
        # All submitted before any grant: bronze (weight 1) tags 1.0, 2.0;
        # gold (weight 4) tags 0.25, 0.5 — gold drains first.
        tickets = [
            scheduler.submit(request(shopper="slow", tier="bronze")),
            scheduler.submit(request(shopper="slow", tier="bronze")),
            scheduler.submit(request(shopper="fast", tier="gold")),
            scheduler.submit(request(shopper="fast", tier="gold")),
        ]
        granted: list[str] = []
        done = threading.Barrier(len(tickets) + 1)

        def serve(ticket, name):
            scheduler.await_grant(ticket)
            granted.append(name)
            scheduler.release(ticket)
            done.wait(timeout=10.0)

        names = ["bronze-1", "bronze-2", "gold-1", "gold-2"]
        for ticket, name in zip(tickets, names):
            threading.Thread(target=serve, args=(ticket, name), daemon=True).start()
        done.wait(timeout=10.0)
        assert granted == ["gold-1", "gold-2", "bronze-1", "bronze-2"]

    def test_abandon_withdraws_an_ungranted_ticket(self):
        scheduler = self.scheduler()
        first = scheduler.submit(request(shopper="a"))
        second = scheduler.submit(request(shopper="b"))
        scheduler.abandon(second)
        scheduler.await_grant(first)
        scheduler.release(first)
        assert scheduler.depth == 0
        # abandon() on a granted ticket is a programming error.
        ticket = scheduler.submit(request(shopper="d"))
        scheduler.await_grant(ticket)
        with pytest.raises(ReproError):
            scheduler.abandon(ticket)
        scheduler.release(ticket)

    def test_snapshot_keeps_the_admission_queue_schema(self):
        scheduler = self.scheduler(max_depth=4, policy="reject")
        assert set(scheduler.snapshot()) == {
            "max_depth",
            "policy",
            "depth",
            "peak_depth",
            "admitted",
            "rejected",
            "blocked_seconds",
        }
        assert set(scheduler.qos_snapshot()) == {
            "slots",
            "rate_limited",
            "deadline_exceeded",
            "tiers",
        }

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            self.scheduler(policy="fifo")
        with pytest.raises(ReproError):
            self.scheduler(max_depth=0)

    def test_default_scheduler_keeps_nothing_per_shopper(self):
        # A default tier has no rate, so no shopper gets a token bucket, and
        # the WFQ drops its finish tags whenever nothing waits: serving 1,000
        # distinct shoppers one at a time leaves no per-shopper state behind.
        scheduler = QosScheduler(QosConfig())
        for index in range(1000):
            ticket = scheduler.submit(request(shopper=f"shopper-{index}"))
            scheduler.await_grant(ticket)
            scheduler.release(ticket)
        assert len(scheduler._buckets) == 0
        assert scheduler._wfq._finish == {}
        assert scheduler._wfq._heap == []
        assert scheduler.snapshot()["admitted"] == 1000

    def test_concurrent_serving_balances_every_counter(self):
        # More threads than cores, switching often, on a depth bound below
        # the thread count: every grant is released, nothing is lost, and
        # the idle rule leaves no tag behind once the last thread is done.
        scheduler = QosScheduler(QosConfig(), max_depth=3, policy="block")
        threads_n, rounds = 8, 50
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:

            def serve(worker):
                for index in range(rounds):
                    tier = ("bronze", "silver", "gold")[index % 3]
                    ticket = scheduler.submit(
                        request(shopper=f"w{worker}-{index % 5}", tier=tier)
                    )
                    scheduler.await_grant(ticket)
                    scheduler.release(ticket)

            threads = [
                threading.Thread(target=serve, args=(worker,), daemon=True)
                for worker in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snapshot = scheduler.snapshot()
        assert snapshot["admitted"] == threads_n * rounds
        assert snapshot["depth"] == 0
        assert snapshot["peak_depth"] <= 3
        granted = sum(
            tier["requests"] for tier in scheduler.qos_snapshot()["tiers"].values()
        )
        assert granted == threads_n * rounds
        assert scheduler._wfq._finish == {}

    def hold_the_only_slot(self, scheduler, blocked_request):
        """Submit ``blocked_request`` behind a held depth-1 slot; release after 0.2s.

        Returns the blocked submission's ticket (or its error) once it got
        through ``submit`` and ``await_grant``.
        """
        first = scheduler.submit(request(shopper="a"))
        scheduler.await_grant(first)
        outcome: list[object] = []

        def blocked():
            try:
                ticket = scheduler.submit(blocked_request)
                outcome.append(scheduler.await_grant(ticket))
                scheduler.release(ticket)
            except ReproError as error:
                outcome.append(error)

        thread = threading.Thread(target=blocked, daemon=True)
        thread.start()
        time.sleep(0.2)
        assert not outcome  # still blocked at the depth bound
        scheduler.release(first)
        thread.join(10.0)
        assert len(outcome) == 1
        return outcome[0]

    def test_queue_wait_counts_a_block_at_the_depth_bound(self):
        scheduler = QosScheduler(QosConfig(), max_depth=1, policy="block")
        queued = self.hold_the_only_slot(scheduler, request(shopper="b"))
        assert queued >= 0.2
        assert scheduler.snapshot()["blocked_seconds"] >= 0.15

    def test_deadline_counts_from_submission_through_a_block(self):
        # Blocked at the depth bound for longer than its deadline: the
        # request is shed at grant instead of running late.
        scheduler = QosScheduler(QosConfig(), max_depth=1, policy="block")
        outcome = self.hold_the_only_slot(
            scheduler, request(shopper="b", deadline=0.05)
        )
        assert isinstance(outcome, DeadlineExceededError)
        assert scheduler.qos_snapshot()["deadline_exceeded"] == 1


# ------------------------------------------------------------- the service path
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


class TestServiceWithQos:
    def test_contended_mixed_tier_batch_is_bit_identical_to_plain_serial(self):
        requests = [
            request(shopper="a", tier="bronze"),
            request(shopper="b", tier="gold"),
            request(shopper="a", tier="bronze"),
            request(shopper="c", tier="silver"),
            request(shopper="b", tier="gold"),
        ]
        plain_requests = [request(shopper=r.shopper) for r in requests]
        with AcquisitionService(small_marketplace(), config()) as service:
            plain = service.acquire_batch(plain_requests)
        with AcquisitionService(
            small_marketplace(), config(qos=QosConfig(slots=1), max_batch_workers=4)
        ) as service:
            shaped = service.acquire_batch(requests)
            metrics = service.metrics()
        assert plain.ok and shaped.ok
        for lhs, rhs in zip(shaped, plain):
            assert lhs.result.estimated_correlation == rhs.result.estimated_correlation
            assert lhs.result.sql() == rhs.result.sql()
        # Results sit at their request position with their index-derived seed.
        assert [item.index for item in shaped] == list(range(len(requests)))
        assert [item.seed for item in shaped] == [
            request_seed(0, i) for i in range(len(requests))
        ]
        tier_requests = {
            name: stats["requests"] for name, stats in metrics["qos"]["tiers"].items()
        }
        assert tier_requests == {"bronze": 2, "silver": 1, "gold": 2}

    def test_shed_requests_do_not_poison_the_batch(self):
        tiers = dict(DEFAULT_TIERS)
        tiers["bronze"] = SlaTier("bronze", rate=0.0001, burst=1)
        requests = [
            request(shopper="a"),  # takes bronze's only token
            request(shopper="a"),  # rate-shed
            request(shopper="b", deadline=0.0),  # deadline-shed at dequeue
            request(shopper="c", tier="gold"),  # unaffected
        ]
        with AcquisitionService(
            small_marketplace(),
            config(qos=QosConfig(tiers=tiers), max_batch_workers=1),
        ) as service:
            batch = service.acquire_batch(requests)
            description = service.describe()
        with AcquisitionService(small_marketplace(), config()) as plain:
            reference = plain.acquire(request(shopper="c"), seed=request_seed(0, 3))
        assert isinstance(batch[1].error, RateLimitedError)
        assert batch[1].error.retry_after is not None
        assert isinstance(batch[2].error, DeadlineExceededError)
        assert batch[0].ok and batch[3].ok
        # The survivor's bits match a plain serial service with the same seed.
        assert batch[3].result.sql() == reference.sql()
        # Sheds never executed: they count in qos accounting, not as served
        # requests or search errors.
        assert description["requests_served"] == 2
        assert description["errors"] == 0

    def test_single_acquire_sheds_raise_typed_errors(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            with pytest.raises(DeadlineExceededError):
                service.acquire(request(deadline=0.0))
            # The service recovers: the shed consumed no slot.
            assert service.acquire(request()).estimated_correlation is not None
            assert service.metrics()["qos"]["deadline_exceeded"] == 1

    def test_queue_section_keeps_its_schema_under_qos(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(request())
            queue = service.metrics()["queue"]
        assert set(queue) == {
            "max_depth",
            "policy",
            "depth",
            "peak_depth",
            "admitted",
            "rejected",
            "blocked_seconds",
        }
        assert queue["admitted"] == 1
        assert queue["depth"] == 0

    def test_queue_wait_and_execution_split_in_metrics(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(request())
            metrics = service.metrics()
        assert metrics["queue_wait"]["count"] == 1
        assert metrics["execution"]["count"] == 1
        # Execution dominates the end-to-end latency of an uncontended call.
        assert metrics["execution"]["mean_seconds"] <= metrics["latency"]["mean_seconds"]
