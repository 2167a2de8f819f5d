"""Shared experiment plumbing: marketplace setup, query runners, timing helpers.

Every figure/table driver needs the same scaffolding: generate a workload,
host it on a marketplace (dirty variants preferred), register the query's
source instance with the shopper, build the join graph from samples, and run
the heuristic / LP / GP searches.  :func:`prepare_setup` builds that state once
and the drivers reuse it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.exceptions import UnknownWorkloadError
from repro.graph.join_graph import JoinGraph
from repro.graph.landmarks import derive_landmark_seed
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.pricing.models import EntropyPricingModel, PricingModel
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.sampling.correlated import CorrelatedSampler
from repro.search.acquisition import HeuristicResult, heuristic_acquisition
from repro.search.brute_force import BruteForceResult, global_optimal, local_optimal
from repro.search.mcmc import MCMCConfig
from repro.workloads.queries import AcquisitionQuery, queries_for
from repro.workloads.schema_spec import GeneratedWorkload
from repro.workloads.tpce import tpce_workload
from repro.workloads.tpch import tpch_workload


def load_workload(
    name: str, *, scale: float | None = None, seed: int = 0
) -> GeneratedWorkload:
    """Generate the named workload at benchmark scale."""
    if name == "tpch":
        return tpch_workload(scale=scale if scale is not None else 0.2, seed=seed)
    if name == "tpce":
        return tpce_workload(scale=scale if scale is not None else 0.15, seed=seed)
    raise UnknownWorkloadError(f"unknown workload {name!r} (expected 'tpch' or 'tpce')")


@dataclass
class ExperimentSetup:
    """Everything one experiment run needs, prepared once."""

    workload: GeneratedWorkload
    query: AcquisitionQuery
    marketplace: Marketplace
    join_graph: JoinGraph
    samples: dict[str, Table]
    full_tables: dict[str, Table]
    fds: list[FunctionalDependency]
    pricing: PricingModel
    sampling_rate: float
    mcmc_config: MCMCConfig = field(default_factory=MCMCConfig)

    # ----------------------------------------------------------------- budgets
    def candidate_option_prices(
        self, *, max_paths: int = 200, on_full_data: bool = False
    ) -> list[float]:
        """Prices of candidate target graphs (used to derive LB/UB for budget ratios).

        ``on_full_data`` prices the candidates on the full marketplace
        instances instead of the samples; the GP baseline evaluates (and is
        therefore budget-constrained) on the full data, so its budget ratio
        must be derived from the same price scale.
        """
        from repro.search.candidates import enumerate_target_graphs

        tables = self.full_tables if on_full_data else self.samples
        prices: list[float] = []
        for candidate in enumerate_target_graphs(
            self.join_graph,
            self.query.source_attributes,
            self.query.target_attributes,
            max_paths=max_paths,
            max_graphs_per_path=20,
        ):
            prices.append(candidate.price(tables, self.pricing))
            if len(prices) >= max_paths:
                break
        return prices or [1.0]

    def budget_for_ratio(self, ratio: float, *, on_full_data: bool = False) -> float:
        prices = self.candidate_option_prices(on_full_data=on_full_data)
        return ratio * max(prices)

    # ----------------------------------------------------------------- runners
    def run_heuristic(
        self,
        *,
        budget: float,
        max_weight: float = float("inf"),
        min_quality: float = 0.0,
        intermediate_hook=None,
    ) -> HeuristicResult:
        return heuristic_acquisition(
            self.join_graph,
            self.query.source_attributes,
            self.query.target_attributes,
            self.fds,
            budget=budget,
            max_weight=max_weight,
            min_quality=min_quality,
            max_igraphs=4,
            mcmc_config=self.mcmc_config,
            # The same landmark-seed derivation as DANCE._search_once, so the
            # experiment harness and the middleware pick identical landmarks
            # (and the landmark stream never replays the proposal stream).
            landmark_seed=derive_landmark_seed(self.mcmc_config.seed),
            intermediate_hook=intermediate_hook,
        )

    def run_local_optimal(
        self, *, budget: float, max_weight: float = float("inf"), min_quality: float = 0.0
    ) -> BruteForceResult:
        return local_optimal(
            self.join_graph,
            self.query.source_attributes,
            self.query.target_attributes,
            self.fds,
            budget=budget,
            max_weight=max_weight,
            min_quality=min_quality,
        )

    def run_global_optimal(
        self, *, budget: float, max_weight: float = float("inf"), min_quality: float = 0.0
    ) -> BruteForceResult:
        return global_optimal(
            self.join_graph,
            self.full_tables,
            self.query.source_attributes,
            self.query.target_attributes,
            self.fds,
            budget=budget,
            max_weight=max_weight,
            min_quality=min_quality,
        )

    def true_correlation(self, target_graph) -> float:
        """The *real* correlation of a target graph measured on the full data."""
        if target_graph is None:
            return 0.0
        evaluation = target_graph.evaluate(
            self.full_tables,
            self.query.source_attributes,
            self.query.target_attributes,
            self.fds,
            self.pricing,
        )
        return evaluation.correlation


def prepare_setup(
    workload_name: str,
    query_name: str,
    *,
    scale: float | None = None,
    sampling_rate: float = 0.4,
    num_instances: int | None = None,
    mcmc_iterations: int = 120,
    seed: int = 0,
    workload: GeneratedWorkload | None = None,
) -> ExperimentSetup:
    """Prepare one experiment: workload, marketplace, samples, join graph, FDs.

    ``num_instances`` restricts the marketplace to the first ``n`` instances of
    the workload (always keeping the instances the query needs), which is how
    the #instances sweeps of Figures 4 and 5 are produced.
    """
    workload = workload or load_workload(workload_name, scale=scale, seed=seed)
    query = queries_for(workload)[query_name]

    table_names = list(workload.tables)
    if num_instances is not None and num_instances < len(table_names):
        required = _required_instances(workload, query)
        chosen: list[str] = list(required)
        for name in table_names:
            if len(chosen) >= num_instances:
                break
            if name not in chosen:
                chosen.append(name)
        workload = workload.subset(chosen)

    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    full_tables: dict[str, Table] = {}
    for name in workload.tables:
        table = workload.dirty_or_clean(name)
        full_tables[name] = table
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))

    sampler = CorrelatedSampler(rate=sampling_rate, seed=seed)
    samples, _cost = marketplace.sell_samples(
        sampler, join_attributes_by_dataset=marketplace.shared_attribute_map()
    )

    join_graph = JoinGraph(
        samples,
        pricing=pricing,
        max_join_attribute_size=2,
        source_instances=(query.source_instance,),
    )
    fds = workload.all_fds()

    return ExperimentSetup(
        workload=workload,
        query=query,
        marketplace=marketplace,
        join_graph=join_graph,
        samples=samples,
        full_tables=full_tables,
        fds=fds,
        pricing=pricing,
        sampling_rate=sampling_rate,
        mcmc_config=MCMCConfig(iterations=mcmc_iterations, seed=seed),
    )


def _required_instances(workload: GeneratedWorkload, query: AcquisitionQuery) -> list[str]:
    """The instances a query cannot do without: its source instance and any
    instance carrying a target attribute, plus every table on the natural
    foreign-key chain between them (so the join path stays connected when the
    marketplace is restricted)."""
    required = [query.source_instance]
    for attribute in query.target_attributes:
        for name, table in workload.tables.items():
            if attribute in table.schema and name not in required:
                required.append(name)
    # grow via shared attributes until source connects to all targets (BFS on
    # the schema-overlap graph restricted to a shortest connecting set)
    import networkx as nx

    graph = nx.Graph()
    names = list(workload.tables)
    graph.add_nodes_from(names)
    for i, left in enumerate(names):
        for right in names[i + 1 :]:
            shared = set(workload.tables[left].schema.names) & set(
                workload.tables[right].schema.names
            )
            if shared:
                graph.add_edge(left, right)
    connected = set(required)
    source = query.source_instance
    for terminal in required:
        if terminal == source:
            continue
        try:
            path = nx.shortest_path(graph, source, terminal)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            continue
        connected.update(path)
    return [name for name in names if name in connected]


def timed(callable_, *args, **kwargs) -> tuple[object, float]:
    """Run ``callable_`` and return (result, elapsed_seconds).

    Garbage left by earlier work is collected before the clock starts, so a
    full collection it would trigger is not charged to ``callable_``.
    """
    gc.collect()
    start = time.perf_counter()
    result = callable_(*args, **kwargs)
    return result, time.perf_counter() - start


def correlation_difference(optimal: float, heuristic: float) -> float:
    """The paper's CD metric: ``(X_opt - X) / X_opt`` (0 when the optimum is 0)."""
    if optimal <= 0:
        return 0.0
    return max(0.0, (optimal - heuristic) / optimal)


def summarize_rows(rows: Sequence[Mapping[str, object]], keys: Sequence[str]) -> str:
    """Small fixed-width text table used when printing experiment results."""
    header = " | ".join(f"{key:>18}" for key in keys)
    lines = [header, "-" * len(header)]
    for row in rows:
        formatted = []
        for key in keys:
            value = row.get(key, "")
            if isinstance(value, float):
                formatted.append(f"{value:>18.4f}")
            else:
                formatted.append(f"{str(value):>18}")
        lines.append(" | ".join(formatted))
    return "\n".join(lines)
