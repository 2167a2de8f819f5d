"""Exception hierarchy for the DANCE reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch a single base class at the public API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or an attribute reference is invalid."""


class UnknownAttributeError(SchemaError):
    """An attribute name was requested that does not exist in the schema."""

    def __init__(self, attribute: str, available: tuple[str, ...] = ()) -> None:
        self.attribute = attribute
        self.available = tuple(available)
        message = f"unknown attribute {attribute!r}"
        if available:
            message += f" (available: {', '.join(available)})"
        super().__init__(message)


class JoinError(ReproError):
    """A join cannot be performed (for example, no shared join attributes)."""


class SamplingError(ReproError):
    """Invalid sampling parameters (rates outside (0, 1], negative thresholds)."""


class PricingError(ReproError):
    """Invalid pricing configuration or an attempt to price unknown data."""


class BudgetExceededError(PricingError):
    """A purchase would exceed the shopper's remaining budget."""

    def __init__(self, price: float, budget: float) -> None:
        self.price = price
        self.budget = budget
        super().__init__(f"price {price:.4f} exceeds remaining budget {budget:.4f}")


class MarketplaceError(ReproError):
    """The marketplace cannot satisfy a request (unknown dataset, bad query)."""


class GraphConstructionError(ReproError):
    """The join graph cannot be constructed from the given samples."""


class AdmissionRejectedError(ReproError):
    """The service's bounded admission queue is full and the policy is ``reject``.

    ``retry_after`` optionally carries the service's backoff hint in seconds
    (derived from the current queue depth and recent execution time); the HTTP
    tier surfaces it as the ``Retry-After`` header of the 503 response.
    """

    def __init__(
        self, message: str = "admission queue is full", retry_after: float | None = None
    ) -> None:
        self.retry_after = retry_after
        super().__init__(message)


class RateLimitedError(ReproError):
    """A shopper exceeded its SLA tier's token-bucket rate limit.

    Raised at submission time by :class:`repro.service.qos.QosScheduler` —
    the request never reaches a worker.  ``retry_after`` is the seconds until
    the shopper's bucket refills one token (the HTTP tier maps this error to
    429 with a ``Retry-After`` header).
    """

    def __init__(
        self, message: str = "rate limit exceeded", retry_after: float | None = None
    ) -> None:
        self.retry_after = retry_after
        super().__init__(message)


class DeadlineExceededError(ReproError):
    """A request could no longer meet its deadline when it reached the front
    of the QoS queue, so it was shed instead of burning a worker.

    The HTTP tier maps this error to 504.  Shedding happens at dequeue time
    only — a request granted a slot always runs to completion.
    """


class StorageError(ReproError):
    """A catalog storage backend cannot open, read, or write a catalog.

    Every storage failure — a missing catalog file, a corrupt or
    foreign-format database, a schema-version mismatch, an undecodable blob —
    surfaces as this type (never as a raw ``sqlite3`` exception),
    so callers of :meth:`repro.marketplace.market.Marketplace.open` can handle
    storage problems at one boundary.
    """


class BrokenChainPoolError(ReproError):
    """A worker process of a multi-chain process pool died mid-search.

    The search that meets the broken pool fails with this error.  An
    :class:`~repro.service.AcquisitionService` then disposes the pool and
    its next request builds a fresh one, so the HTTP tier answers 503: a
    retry is served.
    """


class SearchError(ReproError):
    """The online search cannot run with the provided request."""


class InfeasibleAcquisitionError(SearchError):
    """No target graph satisfies the quality / informativeness / budget constraints."""


class QualityError(ReproError):
    """Invalid functional dependency or quality computation input."""


class MeasureError(ReproError, ValueError):
    """Invalid input to an information-theoretic measure (entropy, CE, JI).

    Dual-inherits from :class:`ValueError` because the measure functions are
    also used as plain numeric library code whose callers legitimately write
    ``except ValueError`` — both contracts hold: the HTTP tier classifies it
    as a 400-family :class:`ReproError`, numeric callers still catch it.
    """


class WorkloadError(ReproError, ValueError):
    """Invalid workload-generation parameters (sizes, rates, seeds)."""


class UnknownWorkloadError(ReproError, KeyError):
    """A named workload query / dataset does not exist.

    Dual-inherits from :class:`KeyError` so registry-style callers that treat
    the lookup as a mapping access keep working.  ``str()`` is overridden
    because ``KeyError`` quotes its lone argument (``str(KeyError("x")) ==
    "'x'"``), which would garble the HTTP error body.
    """

    def __init__(self, message: str) -> None:
        self.message = message
        super().__init__(message)

    def __str__(self) -> str:
        return self.message
