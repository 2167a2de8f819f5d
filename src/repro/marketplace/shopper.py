"""The data shopper and the acquisition request it submits to DANCE."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import SearchError
from repro.marketplace.market import Marketplace, ProjectionQuery, PurchaseReceipt
from repro.pricing.budget import Budget
from repro.pricing.sla import SlaTier, resolve_tier
from repro.relational.table import Table


@dataclass(frozen=True)
class AcquisitionRequest:
    """The shopper's request to DANCE (Section 2.1 / 2.5 of the paper).

    Attributes
    ----------
    source_attributes:
        ``A_S`` — attributes the shopper already owns (may be empty when the
        shopper only cares about the correlation of marketplace attributes).
    target_attributes:
        ``A_T`` — attributes to purchase from the marketplace.
    budget:
        ``B`` — maximum total price of the purchased projections.
    max_join_informativeness:
        ``alpha`` — upper bound on the total JI weight of the target graph.
    min_quality:
        ``beta`` — lower bound on the quality of the joined result.
    shopper:
        Optional identity of the submitting shopper.  The acquisition
        service's batch API uses it for round-robin admission fairness (one
        shopper's burst cannot starve another's requests); it never affects
        the search itself.
    tier:
        Optional SLA tier *name* the request is served under
        (:mod:`repro.pricing.sla`).  The QoS scheduler resolves the name
        against its own tier table for the weight/rate/burst — the request
        never carries scheduling parameters, so a shopper cannot self-assign
        a weight.  Like ``shopper``, it never affects the search itself.
    deadline:
        Optional deadline in seconds from submission.  A request that can no
        longer meet it when the QoS scheduler would grant it a slot is shed
        with :class:`~repro.exceptions.DeadlineExceededError` instead of
        burning a worker.  Ignored when QoS is off.
    """

    source_attributes: tuple[str, ...]
    target_attributes: tuple[str, ...]
    budget: float
    max_join_informativeness: float = float("inf")
    min_quality: float = 0.0
    shopper: str | None = None
    tier: str | None = None
    deadline: float | None = None

    def __init__(
        self,
        source_attributes: Sequence[str],
        target_attributes: Sequence[str],
        budget: float,
        max_join_informativeness: float = float("inf"),
        min_quality: float = 0.0,
        shopper: str | None = None,
        tier: str | None = None,
        deadline: float | None = None,
    ) -> None:
        if not target_attributes:
            raise SearchError("an acquisition request needs at least one target attribute")
        # NaN compares false with everything, so each bound is checked for it
        # explicitly; infinity stays a valid "no limit".
        if math.isnan(budget) or budget < 0:
            raise SearchError(f"budget must be non-negative, got {budget}")
        if not 0.0 <= min_quality <= 1.0:
            raise SearchError(f"min_quality must be in [0, 1], got {min_quality}")
        if math.isnan(max_join_informativeness) or max_join_informativeness < 0:
            raise SearchError(
                "max_join_informativeness must be non-negative, "
                f"got {max_join_informativeness}"
            )
        if deadline is not None and (math.isnan(deadline) or deadline < 0):
            raise SearchError(f"deadline must be non-negative, got {deadline}")
        object.__setattr__(self, "source_attributes", tuple(source_attributes))
        object.__setattr__(self, "target_attributes", tuple(target_attributes))
        object.__setattr__(self, "budget", float(budget))
        object.__setattr__(self, "max_join_informativeness", float(max_join_informativeness))
        object.__setattr__(self, "min_quality", float(min_quality))
        object.__setattr__(self, "shopper", shopper)
        object.__setattr__(self, "tier", tier)
        object.__setattr__(self, "deadline", float(deadline) if deadline is not None else None)

    def with_budget(self, budget: float) -> "AcquisitionRequest":
        """The same request under a different budget (used by budget-ratio sweeps)."""
        return AcquisitionRequest(
            self.source_attributes,
            self.target_attributes,
            budget,
            self.max_join_informativeness,
            self.min_quality,
            self.shopper,
            self.tier,
            self.deadline,
        )


@dataclass
class DataShopper:
    """A shopper with local source instances and a budget.

    The shopper never talks to the marketplace's raw data directly: it submits
    an :class:`AcquisitionRequest` to DANCE, receives a set of projection
    queries, and then buys those queries from the marketplace.

    A shopper may :meth:`subscribe` to an SLA tier
    (:mod:`repro.pricing.sla`): its requests are then stamped with the tier
    name (the QoS scheduler weighs them accordingly) and its purchases are
    charged at the tier's price multiplier — better service is a product,
    not a configuration knob.
    """

    name: str
    source_tables: list[Table] = field(default_factory=list)
    budget: Budget = field(default_factory=lambda: Budget(total=0.0))
    purchased: list[PurchaseReceipt] = field(default_factory=list)
    tier: SlaTier | None = None

    def subscribe(self, tier: SlaTier | str) -> SlaTier:
        """Subscribe the shopper to an SLA tier (object or default-table name)."""
        self.tier = resolve_tier(tier)
        return self.tier

    def source_attribute_names(self) -> tuple[str, ...]:
        """All attribute names available in the shopper's local instances."""
        names: list[str] = []
        for table in self.source_tables:
            for attribute in table.schema.names:
                if attribute not in names:
                    names.append(attribute)
        return tuple(names)

    def owns_attribute(self, attribute: str) -> bool:
        return attribute in self.source_attribute_names()

    def make_request(
        self,
        target_attributes: Sequence[str],
        *,
        source_attributes: Sequence[str] | None = None,
        max_join_informativeness: float = float("inf"),
        min_quality: float = 0.0,
        deadline: float | None = None,
    ) -> AcquisitionRequest:
        """Build an acquisition request using the shopper's remaining budget."""
        sources = (
            tuple(source_attributes)
            if source_attributes is not None
            else self.source_attribute_names()
        )
        return AcquisitionRequest(
            source_attributes=sources,
            target_attributes=tuple(target_attributes),
            budget=self.budget.remaining,
            max_join_informativeness=max_join_informativeness,
            min_quality=min_quality,
            shopper=self.name,
            tier=self.tier.name if self.tier is not None else None,
            deadline=deadline,
        )

    def purchase(
        self, marketplace: Marketplace, queries: Sequence[ProjectionQuery]
    ) -> list[PurchaseReceipt]:
        """Buy the projection queries recommended by DANCE, charging the budget.

        A subscribed shopper pays the tier-multiplied price: the premium that
        funds its scheduling weight (:class:`~repro.pricing.sla.SlaTier`).
        """
        receipts: list[PurchaseReceipt] = []
        for query in queries:
            price = marketplace.price_query(query)
            if self.tier is not None:
                price = self.tier.charge(price)
            self.budget.charge(price)
            receipts.append(marketplace.execute(query))
        self.purchased.extend(receipts)
        return receipts

    def purchased_tables(self) -> list[Table]:
        return [receipt.result for receipt in self.purchased]

    def total_spent(self) -> float:
        return self.budget.spent
