"""Query-based data pricing for the marketplace.

The paper follows the query-based pricing model of Balazinska/Koutris et al.:
the shopper pays for the result of SQL projection queries rather than for
whole datasets, and prices are assigned by an entropy-based pricing function
(Section 6.1 uses the entropy-based model of Koutris et al. [16]).

``models``
    Pricing functions: entropy-based, per-cell, and flat per-attribute pricing,
    all exposed behind the :class:`PricingModel` interface and all defined over
    attribute *sets* of an instance (i.e. AS-lattice vertices).
``arbitrage``
    Checks that a pricing assignment is arbitrage-free (monotone and
    subadditive over attribute sets).
``budget``
    Budget bookkeeping: lower/upper bounds over candidate target graphs and the
    paper's "budget ratio" parameterisation.
``sla``
    Priced service levels: :class:`SlaTier` (WFQ weight, token-bucket rate and
    burst, price multiplier), :class:`QosConfig` (the tier table the service
    schedules by) and :class:`TieredPricingModel`, which scales any base
    model by a tier's multiplier while staying arbitrage-free.
"""

from repro.pricing.models import (
    EntropyPricingModel,
    FlatAttributePricingModel,
    PerCellPricingModel,
    PricingModel,
)
from repro.pricing.arbitrage import is_monotone, is_subadditive, verify_arbitrage_free
from repro.pricing.budget import Budget, budget_from_ratio, price_bounds
from repro.pricing.sla import (
    DEFAULT_TIER_NAME,
    DEFAULT_TIERS,
    QosConfig,
    SlaTier,
    TieredPricingModel,
    resolve_tier,
)

__all__ = [
    "PricingModel",
    "EntropyPricingModel",
    "FlatAttributePricingModel",
    "PerCellPricingModel",
    "is_monotone",
    "is_subadditive",
    "verify_arbitrage_free",
    "Budget",
    "budget_from_ratio",
    "price_bounds",
    "QosConfig",
    "SlaTier",
    "TieredPricingModel",
    "resolve_tier",
    "DEFAULT_TIERS",
    "DEFAULT_TIER_NAME",
]
