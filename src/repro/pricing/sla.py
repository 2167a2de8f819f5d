"""Priced SLA tiers: service levels as first-class marketplace products.

The marketplace already prices *data* (query-based entropy pricing,
:mod:`repro.pricing.models`); this module prices *service*.  An
:class:`SlaTier` bundles the scheduling parameters the QoS layer consumes —
WFQ weight, token-bucket rate and burst (:mod:`repro.service.qos`) — with a
price multiplier applied to every data purchase the subscribed shopper makes,
so better service is bought, not configured ad hoc.

:class:`TieredPricingModel` plugs the multiplier into the existing
:class:`~repro.pricing.models.PricingModel` machinery.  A non-negative
multiplier preserves monotonicity and subadditivity of the wrapped model, so
tiered prices stay arbitrage-free whenever the base prices are
(``tests/pricing/test_sla.py`` checks this through
:func:`repro.pricing.arbitrage.verify_arbitrage_free`).

:class:`~repro.marketplace.shopper.DataShopper.subscribe` attaches a tier to
a shopper: its requests are stamped with the tier name (the scheduler reads
the weight/rate/burst from its own tier table — the request carries only the
name, never the parameters, so a shopper cannot self-assign a weight), and
its purchases are charged at the tier's multiplier.

:class:`QosConfig` is that tier table as the service's scheduler reads it
(``ServiceConfig(qos=...)``), plus the default tier and the execution cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import PricingError, ReproError
from repro.pricing.models import PricingModel
from repro.relational.table import Table


@dataclass(frozen=True)
class SlaTier:
    """One purchasable service level.

    Attributes
    ----------
    name:
        The tier's identity; requests are stamped with it
        (``AcquisitionRequest(tier=...)``).
    weight:
        WFQ weight of the tier's shoppers — a weight-4 shopper receives 4x
        the scheduling share of a weight-1 shopper under contention.
    rate:
        Token-bucket refill rate in requests/second.  ``None`` (or ``inf``)
        disables rate limiting for the tier.
    burst:
        Token-bucket capacity — the largest back-to-back burst the tier
        admits before :class:`~repro.exceptions.RateLimitedError`.
    price_multiplier:
        Factor applied to every data purchase of a subscribed shopper
        (:class:`TieredPricingModel`); the premium that pays for the weight.
    """

    name: str
    weight: float = 1.0
    rate: float | None = None
    burst: int = 8
    price_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise PricingError("an SLA tier needs a non-empty name")
        if not self.weight > 0 or not math.isfinite(self.weight):
            raise PricingError(f"tier weight must be finite and > 0, got {self.weight}")
        if self.rate is not None and self.rate < 0:
            raise PricingError(f"tier rate must be >= 0 or None, got {self.rate}")
        if self.burst < 1:
            raise PricingError(f"tier burst must be >= 1, got {self.burst}")
        if self.price_multiplier < 0:
            raise PricingError(
                f"tier price_multiplier must be >= 0, got {self.price_multiplier}"
            )

    def charge(self, base_price: float) -> float:
        """The tiered price of a purchase priced ``base_price`` untiered."""
        return base_price * self.price_multiplier


#: The default tier ladder.  Bronze is the implicit tier of anonymous and
#: unsubscribed traffic: weight 1, generous-but-bounded bucket, no premium.
DEFAULT_TIERS: Mapping[str, SlaTier] = {
    "bronze": SlaTier("bronze", weight=1.0, rate=None, burst=8, price_multiplier=1.0),
    "silver": SlaTier("silver", weight=2.0, rate=None, burst=16, price_multiplier=1.5),
    "gold": SlaTier("gold", weight=4.0, rate=None, burst=32, price_multiplier=2.5),
}

#: Tier of requests that name no tier at all.
DEFAULT_TIER_NAME = "bronze"


def resolve_tier(
    tier: SlaTier | str | None,
    tiers: Mapping[str, SlaTier] | None = None,
    *,
    default: str = DEFAULT_TIER_NAME,
) -> SlaTier:
    """The :class:`SlaTier` behind a tier spelling (object, name, or ``None``).

    ``None`` resolves to ``default``; unknown names raise
    :class:`~repro.exceptions.PricingError` listing the known tiers.
    """
    table = DEFAULT_TIERS if tiers is None else tiers
    if isinstance(tier, SlaTier):
        return tier
    name = default if tier is None else tier
    resolved = table.get(name)
    if resolved is None:
        raise PricingError(
            f"unknown SLA tier {name!r} (expected one of {sorted(table)})"
        )
    return resolved


@dataclass
class QosConfig:
    """The service scheduler's tier table (``ServiceConfig(qos=...)``).

    Attributes
    ----------
    tiers:
        The SLA tier table (name -> :class:`SlaTier`).  Requests carry only a
        tier *name*; the scheduler reads weight, rate and burst from this
        table, so shoppers cannot self-assign weights.
    default_tier:
        Tier of requests that name none (anonymous traffic).
    slots:
        Concurrent executions the scheduler grants.  ``None`` (the default)
        grants every request at once, so the weights never delay one; ``1``
        serializes execution in WFQ order, the strongest fairness shaping.
    """

    tiers: Mapping[str, SlaTier] = field(default_factory=lambda: dict(DEFAULT_TIERS))
    default_tier: str = DEFAULT_TIER_NAME
    slots: int | None = None

    def __post_init__(self) -> None:
        self.tiers = dict(self.tiers)
        for name, tier in self.tiers.items():
            if not isinstance(tier, SlaTier):
                raise PricingError(f"tier {name!r} is not an SlaTier: {tier!r}")
            if tier.name != name:
                raise PricingError(
                    f"tier table key {name!r} does not match tier name {tier.name!r}"
                )
        if not self.tiers:
            raise PricingError("QosConfig needs at least one tier")
        if self.default_tier not in self.tiers:
            raise PricingError(
                f"default_tier {self.default_tier!r} is not in the tier table "
                f"{sorted(self.tiers)}"
            )
        if self.slots is not None and self.slots < 1:
            raise ReproError(f"slots must be >= 1 or None, got {self.slots}")

    def tier_of(self, name: str | None) -> SlaTier:
        """The tier a request naming ``name`` is served under (HTTP 400 if unknown)."""
        return resolve_tier(name, self.tiers, default=self.default_tier)


class TieredPricingModel(PricingModel):
    """A base pricing model scaled by an SLA tier's price multiplier.

    Multiplying by a non-negative constant preserves monotonicity and
    subadditivity over attribute sets, so the tiered model is arbitrage-free
    whenever the base model is.
    """

    def __init__(self, base: PricingModel, tier: SlaTier) -> None:
        self.base = base
        self.tier = tier

    def price(self, table: Table, attributes: Sequence[str]) -> float:
        return self.tier.charge(self.base.price(table, attributes))
