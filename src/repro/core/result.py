"""The acquisition result DANCE returns to the shopper."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.graph.target import TargetGraph, TargetGraphEvaluation
from repro.marketplace.market import ProjectionQuery


@dataclass
class AcquisitionResult:
    """What DANCE recommends for one acquisition request.

    Attributes
    ----------
    target_graph:
        The chosen target graph (instances, join attributes, projections).
    evaluation:
        Estimated correlation, quality, total join informativeness and price of
        the recommendation (estimated on the samples DANCE holds).
    queries:
        The SQL projection queries the shopper should send to the marketplace;
        instances owned by the shopper are excluded.
    sample_cost:
        How much DANCE spent on purchasing samples to serve this request
        (passed on to the shopper per the paper's service model).
    igraph_size:
        Size of the minimal-weight I-graph found by Step 1.
    igraph_index:
        The winner's position in Step 1's candidate list.
    refinement_rounds:
        How many times DANCE had to buy more samples before it found a feasible
        recommendation.
    mcmc_cache_hit_rate:
        Fraction of MCMC candidate evaluations served from the walk's memo
        table, across all chains (see :class:`repro.search.mcmc.MCMCResult`
        and :class:`repro.search.chains.MultiChainResult`).
    mcmc_chains / mcmc_executor:
        How many Metropolis chains Step 2 ran and under which executor
        (``serial`` / ``process``); ``1`` / ``"serial"`` for the paper's
        single-chain walk.
    mcmc_best_chain:
        Index of the chain that produced the recommended target graph
        (always 0 for a single-chain run).
    mcmc_chain_correlations:
        Best correlation found by each chain (``None`` for chains that found
        no feasible candidate) — the spread is a cheap convergence
        diagnostic for multi-modal AS-layers.
    """

    target_graph: TargetGraph
    evaluation: TargetGraphEvaluation
    queries: list[ProjectionQuery] = field(default_factory=list)
    sample_cost: float = 0.0
    igraph_size: int = 0
    igraph_index: int = 0
    refinement_rounds: int = 0
    mcmc_cache_hit_rate: float = 0.0
    mcmc_chains: int = 1
    mcmc_executor: str = "serial"
    mcmc_best_chain: int = 0
    mcmc_chain_correlations: list[float | None] = field(default_factory=list)

    @property
    def estimated_correlation(self) -> float:
        return self.evaluation.correlation

    @property
    def estimated_quality(self) -> float:
        return self.evaluation.quality

    @property
    def estimated_join_informativeness(self) -> float:
        return self.evaluation.weight

    @property
    def estimated_price(self) -> float:
        return self.evaluation.price

    @property
    def purchased_instances(self) -> list[str]:
        return self.target_graph.purchased_instances()

    def sql(self) -> list[str]:
        """The SQL text of all recommended queries."""
        return [query.to_sql() for query in self.queries]

    def copy(self) -> "AcquisitionResult":
        """An equal result whose target graph, queries and chain list a
        caller may mutate without touching this one (the evaluation and the
        queries themselves are immutable).

        Every answer the acquisition service serves is a copy, so this one
        copies the fields directly: a copy through ``__init__`` costs about
        7 µs, a fifth of serving a held answer.
        """
        result = object.__new__(AcquisitionResult)
        result.__dict__.update(self.__dict__)
        result.target_graph = self.target_graph.copy()
        result.queries = list(self.queries)
        result.mcmc_chain_correlations = list(self.mcmc_chain_correlations)
        return result

    def summary(self) -> dict[str, object]:
        """A plain-dict summary used by examples and the experiment harness."""
        return {
            "instances": list(self.target_graph.nodes),
            "purchased_instances": self.purchased_instances,
            "projections": {
                name: sorted(attrs) for name, attrs in self.target_graph.projections.items()
            },
            "join_attributes": [sorted(edge) for edge in self.target_graph.edges],
            "estimated_correlation": self.estimated_correlation,
            "estimated_quality": self.estimated_quality,
            "estimated_join_informativeness": self.estimated_join_informativeness,
            "estimated_price": self.estimated_price,
            "sample_cost": self.sample_cost,
            "igraph_size": self.igraph_size,
            "igraph_index": self.igraph_index,
            "refinement_rounds": self.refinement_rounds,
            "mcmc_cache_hit_rate": self.mcmc_cache_hit_rate,
            "mcmc_chains": self.mcmc_chains,
            "mcmc_executor": self.mcmc_executor,
            "mcmc_best_chain": self.mcmc_best_chain,
            "mcmc_chain_correlations": list(self.mcmc_chain_correlations),
            "queries": self.sql(),
        }


def queries_for_target_graph(
    target_graph: TargetGraph, *, exclude: Sequence[str] = ()
) -> list[ProjectionQuery]:
    """Projection queries for every purchased instance of a target graph."""
    excluded = set(exclude) | set(target_graph.source_instances)
    queries: list[ProjectionQuery] = []
    for name in target_graph.nodes:
        if name in excluded:
            continue
        attributes = sorted(target_graph.projections[name])
        if attributes:
            queries.append(ProjectionQuery(name, attributes))
    return queries
