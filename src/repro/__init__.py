"""DANCE: cost-efficient data acquisition on online data marketplaces for correlation analysis.

This library is a from-scratch reproduction of the system described in
"Cost-efficient Data Acquisition on Online Data Marketplaces for Correlation
Analysis" (Li, Sun, Dong, Wang; VLDB 2018).  It provides:

* a small relational substrate (:mod:`repro.relational`),
* FD-based data-quality measurement and dirty-data injection (:mod:`repro.quality`),
* entropy-based correlation and join informativeness (:mod:`repro.infotheory`),
* correlated sampling / re-sampling estimators (:mod:`repro.sampling`),
* arbitrage-free query-based pricing (:mod:`repro.pricing`),
* an in-process data marketplace (:mod:`repro.marketplace`),
* the two-layer join graph (:mod:`repro.graph`),
* the two-step heuristic search plus the LP/GP baselines (:mod:`repro.search`),
* the DANCE middleware facade (:mod:`repro.core`),
* TPC-H-like / TPC-E-like synthetic workloads (:mod:`repro.workloads`), and
* drivers regenerating every table and figure of the evaluation
  (:mod:`repro.experiments`).

Quickstart::

    from repro import DANCE, Marketplace, AcquisitionRequest
    from repro.workloads import tpch_workload

    workload = tpch_workload(scale=0.1)
    market = Marketplace(workload.all_tables())
    dance = DANCE(market)
    dance.build_offline()
    request = AcquisitionRequest(
        source_attributes=["totalprice"],
        target_attributes=["rname"],
        budget=100.0,
    )
    result = dance.acquire(request)
    print(result.sql())

A fuller quickstart lives in ``README.md``; the layer map and hot-path design
are documented in ``docs/ARCHITECTURE.md``.

Performance architecture
------------------------

The online search is dominated by repeated joins and entropies over the same
sample tables, so the hot path is layered over pure-python columnar kernels
and three caches:

* **Dictionary encoding** — :class:`~repro.relational.table.Table` lazily
  encodes each column (and each multi-column key) into integer codes with a
  code→value dictionary, cached on the table.  Joins match per distinct key
  code and gather result *columns* from index vectors (no row tuples), and all
  entropy kernels reduce integer-code histograms instead of hashing raw
  values row by row (:mod:`repro.infotheory.entropy`).
* **Histogram-based join informativeness** — JI over the full outer join is a
  pure function of the two join-key histograms, so
  :func:`~repro.infotheory.join_informativeness.join_informativeness` never
  materialises the outer join; per-edge JI weights are computed once, when
  the :class:`~repro.graph.join_graph.JoinGraph` is built, and every
  candidate evaluation on its samples reads them from the graph
  (:meth:`~repro.graph.join_graph.JoinGraph.ji_cache_for`), so a search
  computes none.
* **MCMC evaluation memoisation** — the Metropolis walk revisits candidate
  target graphs constantly, so :func:`~repro.search.mcmc.mcmc_search`
  memoises :meth:`~repro.graph.target.TargetGraph.evaluate` results by a
  canonical graph signature and reports the hit rate in
  :class:`~repro.search.mcmc.MCMCResult`.

``perfbench/run.py`` measures the resulting throughput and latency, end to
end and per layer, on three workloads.
"""

from repro.core.config import DanceConfig
from repro.core.dance import DANCE, build_dance
from repro.core.result import AcquisitionResult
from repro.exceptions import (
    BudgetExceededError,
    InfeasibleAcquisitionError,
    MarketplaceError,
    ReproError,
)
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace, ProjectionQuery
from repro.marketplace.shopper import AcquisitionRequest, DataShopper
from repro.quality.fd import FunctionalDependency
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import Table
from repro.service import AcquisitionService, BatchResult, ServedRequest, request_seed

__version__ = "1.0.0"

__all__ = [
    "DANCE",
    "build_dance",
    "DanceConfig",
    "AcquisitionService",
    "BatchResult",
    "ServedRequest",
    "request_seed",
    "AcquisitionResult",
    "AcquisitionRequest",
    "DataShopper",
    "Marketplace",
    "MarketplaceDataset",
    "ProjectionQuery",
    "FunctionalDependency",
    "Table",
    "Schema",
    "Attribute",
    "AttributeType",
    "ReproError",
    "MarketplaceError",
    "BudgetExceededError",
    "InfeasibleAcquisitionError",
    "__version__",
]
