"""Admission for the acquisition service: weighted fair queueing, rate limits, deadlines.

Every request the service serves passes one :class:`QosScheduler`: it decides
*whether and when* a request runs, by its SLA tier (:mod:`repro.pricing.sla`),
never what it computes.

:class:`WeightedFairQueue`
    Pure virtual-time bookkeeping (start-time fair queueing): each flow's
    requests are tagged with virtual finish times ``start + cost / weight``
    where ``start = max(virtual_time, flow's last finish)``, and the queue
    always pops the smallest finish tag.  A weight-4 flow therefore receives
    4x the grants of a weight-1 flow under backlog, every flow's own requests
    stay in submission order (finish tags are strictly increasing per flow),
    and no flow starves (a waiting request's tag is fixed while the virtual
    clock advances past it).  When no request is waiting, the flows' tags are
    dropped (the idle rule), so the queue holds nothing per shopper between
    busy periods.  Single-threaded; the scheduler wraps it in a lock.  The
    hypothesis suite (``tests/property/test_qos_mechanics.py``) checks the
    three properties directly.

:class:`TokenBucket`
    Per-(shopper, tier) rate limiting: ``burst`` tokens capacity, refilled at
    ``rate`` tokens/second, monotone in time, never above ``burst``.  A
    submission with an empty bucket is shed with
    :class:`~repro.exceptions.RateLimitedError` carrying the seconds until
    the next token as its retry-after hint.  Tiers without a rate get no
    bucket at all.  ``shopper`` is any string a client sends, so the
    scheduler holds at most :data:`TOKEN_BUCKETS` buckets and evicts the
    oldest; an evicted shopper starts again with a full bucket, as a new
    one does.

:class:`QosScheduler`
    The threaded scheduler behind
    :class:`~repro.service.session.AcquisitionService`.  ``submit()`` applies
    the token bucket and the admission bound (``ServiceConfig(max_queue_depth=,
    admission=)``: a full queue blocks the submitter or sheds the request with
    :class:`~repro.exceptions.AdmissionRejectedError`) and enqueues a ticket.
    Under a slot cap (``QosConfig.slots``) ``await_grant()`` blocks the
    serving thread until its ticket has the smallest WFQ tag among all
    waiting tickets *and* a slot is free; with no cap (the default) it grants
    at once.  ``release()`` frees the slot.  A request whose deadline —
    counted from submission — has passed,
    or would pass before the estimated execution time completes, when its
    grant arrives is shed with :class:`~repro.exceptions.DeadlineExceededError`
    instead of burning the slot.

The default :class:`~repro.pricing.sla.QosConfig` has no rates and no slot
cap, so a default service admits, blocks and rejects by the depth bound
alone.  Seeds and result positions follow the original request index
(:func:`~repro.service.batch.request_seed`), so a contended mixed-tier batch
is bit-identical to serving the same requests one at a time
(``scripts/check_service_parity.py``).
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from typing import Callable

from repro.exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    RateLimitedError,
    ReproError,
)
from repro.marketplace.shopper import AcquisitionRequest
from repro.memo import Memo
from repro.pricing.sla import QosConfig, SlaTier
from repro.service.metrics import LatencyHistogram

#: Token buckets a scheduler holds at most, one per ``(shopper, tier)`` on a
#: rated tier, oldest evicted first.  Read when a scheduler is made.
TOKEN_BUCKETS = 1 << 14


def retry_after_hint(
    queue_depth: int, p50_execution_seconds: float | None
) -> int:
    """The computed ``Retry-After`` of a shed request, in whole seconds.

    The expected drain time of the queue ahead of a retry: current depth
    times the recent median execution time, rounded up and clamped to
    ``[1, 600]``.  With no execution history yet the hint degrades to 1
    second (the old constant).
    """
    if p50_execution_seconds is None or p50_execution_seconds <= 0.0:
        return 1
    estimate = max(1, queue_depth) * p50_execution_seconds
    return max(1, min(600, math.ceil(estimate)))


# -------------------------------------------------------------- pure mechanics
class WeightedFairQueue:
    """Start-time fair queueing over flows.  Pure bookkeeping, no locking.

    ``push(flow, weight)`` returns an opaque entry; ``pop()`` removes and
    returns the entry with the smallest virtual finish tag (ties break by
    arrival order, so the queue degrades to FIFO when every weight is equal
    and flows never interleave).  ``take(entry)`` dequeues a given entry into
    service the way ``pop()`` dequeues the head; ``cancel(entry)`` withdraws
    one.  Both remove lazily: the entry stays in the heap until popped over.
    """

    def __init__(self) -> None:
        self._virtual = 0.0
        self._finish: dict[object, float] = {}
        self._heap: list[list] = []
        self._size = 0
        self._seq = itertools.count()

    def __len__(self) -> int:
        return self._size

    def push(self, flow: object, weight: float, cost: float = 1.0) -> list:
        """Enqueue one request of ``flow``; returns its heap entry."""
        if not weight > 0:
            raise ReproError(f"WFQ weight must be > 0, got {weight}")
        start = max(self._virtual, self._finish.get(flow, 0.0))
        finish = start + cost / weight
        self._finish[flow] = finish
        entry = [finish, next(self._seq), start, flow, False]
        heapq.heappush(self._heap, entry)
        self._size += 1
        return entry

    def cancel(self, entry: list) -> None:
        """Withdraw a queued entry (a no-op for one already removed)."""
        if not entry[4]:
            entry[4] = True
            self._size -= 1
            self._idle_if_empty()

    def take(self, entry: list) -> None:
        """Dequeue a queued entry into service, advancing the virtual clock."""
        if entry[4]:
            raise ReproError("take() of an entry that is no longer queued")
        entry[4] = True
        self._size -= 1
        # SFQ rule: the virtual clock follows the start tag of the request in
        # service, which keeps a newly active flow's tags comparable to the
        # backlogged ones (no starvation, no post-idle monopoly).
        self._virtual = max(self._virtual, entry[2])
        self._idle_if_empty()

    def _idle_if_empty(self) -> None:
        # SFQ's idle rule: when a busy period ends (nothing waits), the clock
        # jumps to the largest finish tag, so no flow's old tag counts any
        # more.  Dropping the tags instead grants in the same order (every
        # later tag moves by one constant) and keeps nothing per flow, or per
        # removed entry, between busy periods.
        if not self._size:
            self._finish.clear()
            self._heap.clear()

    def peek(self) -> list | None:
        """The entry the next ``pop()`` would return (``None`` when empty)."""
        while self._heap and self._heap[0][4]:
            heapq.heappop(self._heap)
        return self._heap[0] if self._heap else None

    def pop(self) -> list:
        """Dequeue the smallest-finish-tag entry (``take`` of the ``peek``)."""
        entry = self.peek()
        if entry is None:
            raise ReproError("pop() from an empty WeightedFairQueue")
        self.take(entry)
        return entry


class TokenBucket:
    """A token bucket: ``burst`` capacity refilled at ``rate`` tokens/second.

    Pure mechanics over an explicit clock value, so tests drive it with fake
    time.  ``rate=None`` (or ``inf``) disables limiting: ``take`` always
    succeeds.
    """

    def __init__(self, rate: float | None, burst: int) -> None:
        if rate is not None and rate < 0:
            raise ReproError(f"rate must be >= 0 or None, got {rate}")
        if burst < 1:
            raise ReproError(f"burst must be >= 1, got {burst}")
        self.rate = None if rate is not None and math.isinf(rate) else rate
        self.burst = burst
        self._tokens = float(burst)
        self._refilled_at: float | None = None

    @property
    def tokens(self) -> float:
        return self._tokens

    def _refill(self, now: float) -> None:
        if self._refilled_at is None:
            self._refilled_at = now
            return
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = max(self._refilled_at, now)
        if self.rate is not None:
            self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate)

    def take(self, now: float) -> bool:
        """Refill to ``now`` and consume one token; ``False`` when empty."""
        self._refill(now)
        if self.rate is None:
            return True
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self, now: float) -> float:
        """Seconds from ``now`` until one token is available."""
        self._refill(now)
        if self.rate is None or self._tokens >= 1.0:
            return 0.0
        if self.rate == 0.0:
            return float("inf")
        return (1.0 - self._tokens) / self.rate


# -------------------------------------------------------------- the scheduler
class QosTicket:
    """One submitted request's place in the scheduler."""

    __slots__ = ("tier", "deadline_at", "submitted_at", "entry", "granted")

    def __init__(
        self, tier: SlaTier, deadline_at: float | None, submitted_at: float, entry: list
    ) -> None:
        self.tier = tier
        self.deadline_at = deadline_at
        self.submitted_at = submitted_at
        self.entry = entry
        self.granted = False


class _TierStats:
    __slots__ = ("requests", "rate_limited", "deadline_exceeded", "queue_wait")

    def __init__(self) -> None:
        self.requests = 0
        self.rate_limited = 0
        self.deadline_exceeded = 0
        self.queue_wait = LatencyHistogram()


class QosScheduler:
    """The WFQ + token-bucket + deadline scheduler of one service.

    Thread-safe.  The serving path is::

        ticket = scheduler.submit(request)       # RateLimited / AdmissionRejected
        queued = scheduler.await_grant(ticket)   # DeadlineExceeded
        try:
            ... execute ...
        finally:
            scheduler.release(ticket)

    ``snapshot()`` is the ``queue`` section of the metrics payload (depth,
    peak, admitted, rejected, blocked time); ``qos_snapshot()`` is the
    ``qos`` section (per-tier counters and queue-wait histograms).
    """

    def __init__(
        self,
        config: QosConfig,
        *,
        max_depth: int | None = None,
        policy: str = "block",
        execution_estimate: Callable[[], float | None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if policy not in ("block", "reject"):
            raise ReproError(f"policy must be 'block' or 'reject', got {policy!r}")
        if max_depth is not None and max_depth < 1:
            raise ReproError(f"max_depth must be >= 1 or None, got {max_depth}")
        self.config = config
        self.max_depth = max_depth
        self.policy = policy
        self._execution_estimate = execution_estimate
        self._clock = clock
        self._cond = threading.Condition(threading.Lock())
        self._wfq = WeightedFairQueue()  # guarded-by: self._cond
        self._executing = 0  # guarded-by: self._cond
        self._peak_depth = 0  # guarded-by: self._cond
        self._admitted = 0  # guarded-by: self._cond
        self._rejected = 0  # guarded-by: self._cond
        self._rate_limited = 0  # guarded-by: self._cond
        self._deadline_exceeded = 0  # guarded-by: self._cond
        self._blocked_seconds = 0.0  # guarded-by: self._cond
        self._buckets = Memo(TOKEN_BUCKETS)  # guarded-by: self._cond
        self._tiers: dict[str, _TierStats] = {  # guarded-by: self._cond
            name: _TierStats() for name in sorted(config.tiers)
        }

    # ------------------------------------------------------------------ intake
    def _depth_locked(self) -> int:
        return len(self._wfq) + self._executing

    def _estimate(self) -> float | None:
        return self._execution_estimate() if self._execution_estimate else None

    def submit(self, request: AcquisitionRequest) -> QosTicket:
        """Admit one request into the WFQ, or shed it typed.

        Raises :class:`~repro.exceptions.PricingError` (HTTP 400) for a tier
        the table does not hold.  Sheds with
        :class:`~repro.exceptions.RateLimitedError` when the shopper's token
        bucket is empty (a shopper whose bucket was evicted past
        :data:`TOKEN_BUCKETS` gets a full one) and with
        :class:`~repro.exceptions.AdmissionRejectedError`
        when the queue is at ``max_depth`` under the ``reject`` policy
        (``block`` waits instead).  Both errors carry a retry-after hint.
        The submission time, which the queue wait and the deadline count
        from, is read on entry, so a block at the depth bound counts in both.
        """
        now = self._clock()
        tier = self.config.tier_of(request.tier)
        with self._cond:
            stats = self._tiers[tier.name]
            if tier.rate is not None and not math.isinf(tier.rate):
                key = (request.shopper, tier.name)
                bucket = self._buckets.get(key)
                if bucket is None:
                    bucket = self._buckets[key] = TokenBucket(tier.rate, tier.burst)
                if not bucket.take(now):
                    self._rate_limited += 1
                    stats.rate_limited += 1
                    hint = bucket.retry_after(now)
                    raise RateLimitedError(
                        f"shopper {request.shopper!r} exceeded tier {tier.name!r} "
                        f"rate limit (rate={tier.rate}/s, burst={tier.burst})",
                        retry_after=hint if math.isfinite(hint) else None,
                    )
            if self.max_depth is not None and self._depth_locked() >= self.max_depth:
                if self.policy == "reject":
                    self._rejected += 1
                    raise AdmissionRejectedError(
                        f"admission queue is full (max_queue_depth={self.max_depth})",
                        retry_after=retry_after_hint(
                            self._depth_locked(), self._estimate()
                        ),
                    )
                start = time.perf_counter()
                while self._depth_locked() >= self.max_depth:
                    self._cond.wait()
                self._blocked_seconds += time.perf_counter() - start
            deadline_at = (
                now + request.deadline if request.deadline is not None else None
            )
            entry = self._wfq.push(request.shopper, tier.weight)
            self._admitted += 1
            self._peak_depth = max(self._peak_depth, self._depth_locked())
            # A submission frees no slot and heads no one else's ticket, so
            # no waiter needs waking.
        return QosTicket(tier, deadline_at, now, entry)

    # ------------------------------------------------------------------ grants
    def await_grant(self, ticket: QosTicket) -> float:
        """Block until the ticket is granted; returns its queue wait in seconds.

        With no slot cap the grant is immediate; under a cap it arrives when
        the ticket has the smallest WFQ finish tag among all waiting tickets
        and a slot is free.  If the request's
        deadline has already passed — or the recent median execution time no
        longer fits before it — the ticket is shed with
        :class:`~repro.exceptions.DeadlineExceededError` at that moment
        (dequeue-time shedding: it never occupies a slot).
        """
        slots = self.config.slots
        with self._cond:
            while slots is not None and (
                self._executing >= slots or self._wfq.peek() is not ticket.entry
            ):
                self._cond.wait()
            self._wfq.take(ticket.entry)
            now = self._clock()
            queued = max(0.0, now - ticket.submitted_at)
            stats = self._tiers[ticket.tier.name]
            stats.queue_wait.record(queued)
            if ticket.deadline_at is not None and (
                now + (self._estimate() or 0.0) > ticket.deadline_at
            ):
                self._deadline_exceeded += 1
                stats.deadline_exceeded += 1
                self._cond.notify_all()
                raise DeadlineExceededError(
                    f"request missed its deadline by "
                    f"{now - ticket.deadline_at:.3f}s at dequeue "
                    f"(queued {queued:.3f}s)"
                )
            ticket.granted = True
            self._executing += 1
            stats.requests += 1
            self._cond.notify_all()
        return queued

    def release(self, ticket: QosTicket) -> None:
        """Free the execution slot of a granted ticket (no-op for shed ones)."""
        with self._cond:
            if not ticket.granted:
                return
            if self._executing <= 0:
                raise ReproError("release() without a matching grant")
            ticket.granted = False
            self._executing -= 1
            self._cond.notify_all()

    def abandon(self, ticket: QosTicket) -> None:
        """Withdraw a submitted-but-ungranted ticket (submitter-side failure)."""
        with self._cond:
            if ticket.granted:
                raise ReproError("abandon() on a granted ticket; use release()")
            self._wfq.cancel(ticket.entry)
            self._cond.notify_all()

    # --------------------------------------------------------------- snapshots
    @property
    def depth(self) -> int:
        with self._cond:
            return self._depth_locked()

    def snapshot(self) -> dict[str, object]:
        """The ``queue`` section of the metrics payload (traffic counters)."""
        with self._cond:
            return {
                "max_depth": self.max_depth,
                "policy": self.policy,
                "depth": self._depth_locked(),
                "peak_depth": self._peak_depth,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "blocked_seconds": self._blocked_seconds,
            }

    def qos_snapshot(self) -> dict[str, object]:
        """The ``qos`` section of the metrics payload (per-tier accounting)."""
        with self._cond:
            tiers = {
                name: {
                    "weight": self.config.tiers[name].weight,
                    "requests": stats.requests,
                    "rate_limited": stats.rate_limited,
                    "deadline_exceeded": stats.deadline_exceeded,
                    "queue_wait": stats.queue_wait.snapshot(),
                }
                for name, stats in self._tiers.items()
            }
            return {
                "slots": self.config.slots,
                "rate_limited": self._rate_limited,
                "deadline_exceeded": self._deadline_exceeded,
                "tiers": tiers,
            }
