"""Batch request/result types, per-request seeds and shopper-fair submission order."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.result import AcquisitionResult
from repro.exceptions import ReproError
from repro.marketplace.shopper import AcquisitionRequest
from repro.search.chains import chain_seed


def request_seed(service_seed: int, index: int) -> int:
    """The deterministic MCMC base seed of batch request ``index``.

    The same recipe as MCMC chain seeds (:func:`repro.search.chains.chain_seed`):
    request 0 keeps the service seed — so a single ``acquire()`` call and a
    batch of one are the same walk — and later requests hash
    ``(service seed, index)`` through blake2b, stable across processes and
    python versions.  Chain seeds then derive from the request seed, giving
    every (request, chain) pair an independent, reproducible stream.
    """
    return chain_seed(service_seed, index)


def fair_order(shoppers: Sequence[str | None]) -> list[int]:
    """Round-robin submission order of a batch across its shoppers.

    Groups the batch indices by shopper (``None`` is one group of its own,
    covering anonymous requests) and interleaves the groups round-robin,
    preserving each shopper's internal order, so one shopper's 50-request
    burst cannot starve another shopper's 2 requests behind it.  Groups
    rotate in order of first appearance, so the result is a pure function of
    the input:

    >>> fair_order(["a", "a", "a", "b", "b"])
    [0, 3, 1, 4, 2]

    A batch with at most one distinct shopper keeps its original order.
    Fairness only permutes *submission* order: seeds and result positions
    follow the original request index, so the batch outcome stays
    bit-identical.
    """
    groups: dict[str | None, deque[int]] = {}
    for index, shopper in enumerate(shoppers):
        groups.setdefault(shopper, deque()).append(index)
    if len(groups) <= 1:
        return list(range(len(shoppers)))
    order: list[int] = []
    queues = list(groups.values())
    while queues:
        remaining = []
        for queue in queues:
            order.append(queue.popleft())
            if queue:
                remaining.append(queue)
        queues = remaining
    return order


@dataclass
class ServedRequest:
    """One request's outcome inside a batch (or a single served call).

    Exactly one of ``result`` / ``error`` is set.  ``error`` holds the
    :class:`~repro.exceptions.ReproError` the search raised (typically
    ``InfeasibleAcquisitionError`` — the service does not buy more samples
    mid-batch; see :meth:`AcquisitionService.acquire_batch`).
    """

    index: int
    request: AcquisitionRequest
    seed: int
    result: AcquisitionResult | None = None
    error: ReproError | None = None
    elapsed_seconds: float = 0.0
    queued_seconds: float = 0.0
    execution_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None

    def require_result(self) -> AcquisitionResult:
        if self.result is not None:
            return self.result
        if self.error is None:
            raise ReproError(f"request {self.index} produced no result")
        # Never re-raise the stored exception object: raising mutates its
        # __traceback__, so two callers across threads would race on one
        # shared traceback chain.  Raise a fresh instance of the same
        # ReproError subclass (callers keep catching the specific type),
        # chained to the stored original.
        try:
            fresh = type(self.error)(str(self.error))
        except TypeError:
            fresh = ReproError(str(self.error))
        retry_after = getattr(self.error, "retry_after", None)
        if retry_after is not None and hasattr(fresh, "retry_after"):
            fresh.retry_after = retry_after
        raise fresh from self.error

    def summary(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "index": self.index,
            "seed": self.seed,
            "ok": self.ok,
            "elapsed_seconds": self.elapsed_seconds,
            "queued_seconds": self.queued_seconds,
            "execution_seconds": self.execution_seconds,
        }
        if self.request.shopper is not None:
            payload["shopper"] = self.request.shopper
        if self.request.tier is not None:
            payload["tier"] = self.request.tier
        if self.result is not None:
            payload["result"] = self.result.summary()
        if self.error is not None:
            # Typed, message-only error surface: the class name routes client
            # handling (and the HTTP status mapping in repro.service.server);
            # no traceback ever leaves the process.
            payload["error"] = str(self.error)
            payload["error_type"] = type(self.error).__name__
        return payload


@dataclass
class BatchResult:
    """Outcomes of one batch, in request order (never completion order)."""

    items: list[ServedRequest] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[ServedRequest]:
        return iter(self.items)

    def __getitem__(self, index: int) -> ServedRequest:
        return self.items[index]

    @property
    def ok(self) -> bool:
        """Whether every request in the batch produced a result."""
        return all(item.ok for item in self.items)

    def results(self) -> list[AcquisitionResult | None]:
        """Per-request results, ``None`` where the search failed."""
        return [item.result for item in self.items]

    def errors(self) -> list[ServedRequest]:
        return [item for item in self.items if not item.ok]

    def summary(self) -> list[dict[str, object]]:
        return [item.summary() for item in self.items]
