"""Top-k acquisition: recommend several alternative purchase options.

The paper's conclusion sketches this extension: instead of a single best
acquisition scheme, DANCE may return the k best options ranked by a *score*
that combines correlation, data quality, join informativeness and price, so
the shopper can trade the criteria off themselves.  This module implements
that extension on top of the existing search machinery:

* :class:`ScoreWeights` defines the (linear) scoring function.  Correlation and
  quality contribute positively; join informativeness (weight) and price
  contribute negatively after being normalised by the shopper's α and B so the
  terms are commensurable.
* :func:`top_k_acquisition` runs the Step-1/Step-2 pipeline but keeps *every*
  distinct feasible target graph seen during the MCMC walk (plus the walk of a
  few restarts), scores them, and returns the k best, de-duplicated by the set
  of purchased AS-vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import InfeasibleAcquisitionError
from repro.graph.join_graph import JoinGraph
from repro.graph.steiner import minimal_weight_igraph
from repro.graph.target import TargetGraph, TargetGraphEvaluation
from repro.quality.fd import FunctionalDependency
from repro.search.candidates import build_initial_target_graph, terminal_instances
from repro.search.mcmc import MCMCConfig, mcmc_search


@dataclass(frozen=True)
class ScoreWeights:
    """Linear weights of the top-k score.

    The score of a feasible candidate with evaluation ``e`` is::

        score = correlation_weight * e.correlation
              + quality_weight     * e.quality
              - weight_penalty     * (e.weight / max(alpha, 1))
              - price_penalty      * (e.price  / max(budget, 1))

    so the penalties are expressed relative to the shopper's own limits.
    """

    correlation_weight: float = 1.0
    quality_weight: float = 1.0
    weight_penalty: float = 0.5
    price_penalty: float = 0.5

    def score(
        self,
        evaluation: TargetGraphEvaluation,
        *,
        budget: float,
        max_weight: float,
    ) -> float:
        weight_scale = max_weight if max_weight not in (0.0, float("inf")) else 1.0
        price_scale = budget if budget > 0 else 1.0
        return (
            self.correlation_weight * evaluation.correlation
            + self.quality_weight * evaluation.quality
            - self.weight_penalty * (evaluation.weight / weight_scale)
            - self.price_penalty * (evaluation.price / price_scale)
        )


@dataclass(frozen=True)
class RankedOption:
    """One entry of the top-k recommendation list."""

    rank: int
    score: float
    target_graph: TargetGraph
    evaluation: TargetGraphEvaluation

    def summary(self) -> dict[str, object]:
        return {
            "rank": self.rank,
            "score": round(self.score, 6),
            "instances": list(self.target_graph.nodes),
            "projections": {
                name: sorted(attrs)
                for name, attrs in self.target_graph.projections.items()
            },
            "correlation": self.evaluation.correlation,
            "quality": self.evaluation.quality,
            "join_informativeness": self.evaluation.weight,
            "price": self.evaluation.price,
        }


def _purchase_signature(graph: TargetGraph) -> frozenset[tuple[str, frozenset[str]]]:
    """Two candidates are duplicates when they buy exactly the same AS-vertices."""
    return frozenset(
        (name, graph.projections[name]) for name in graph.purchased_instances()
    )


def top_k_acquisition(
    join_graph: JoinGraph,
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
    fds: Sequence[FunctionalDependency],
    *,
    k: int = 3,
    budget: float,
    max_weight: float = float("inf"),
    min_quality: float = 0.0,
    weights: ScoreWeights | None = None,
    mcmc_config: MCMCConfig | None = None,
    restarts: int = 3,
    landmark_seed: int | None = None,
) -> list[RankedOption]:
    """Return up to ``k`` feasible acquisition options ranked by score.

    The candidate pool is gathered by running the Step-2 MCMC walk ``restarts``
    times with different seeds on the Step-1 minimal-weight I-graph; every
    feasible candidate encountered by any walk is scored.  Candidates that buy
    the identical set of AS-vertices are de-duplicated (best score kept).
    ``landmark_seed`` seeds Step 1's landmark draw (see
    :func:`~repro.graph.steiner.minimal_weight_igraphs`).  Every candidate is
    evaluated on the join graph's samples, with the graph's JI weights.
    """
    if k < 1:
        raise InfeasibleAcquisitionError("top-k acquisition requires k >= 1")
    weights = weights or ScoreWeights()
    mcmc_config = mcmc_config or MCMCConfig()

    sources, targets = terminal_instances(join_graph, source_attributes, target_attributes)
    terminals = list(dict.fromkeys(sources + targets))
    igraph = minimal_weight_igraph(
        join_graph, terminals, max_weight=max_weight, landmark_seed=landmark_seed
    )
    initial = build_initial_target_graph(
        join_graph, igraph, source_attributes, target_attributes
    )
    tables = {name: join_graph.sample(name) for name in igraph.nodes}
    ji_cache = join_graph.ji_cache_for(tables)

    pricing = join_graph.pricing
    wanted = frozenset(source_attributes) | frozenset(target_attributes)
    best_by_signature: dict[frozenset, tuple[float, TargetGraph, TargetGraphEvaluation]] = {}

    def consider(graph: TargetGraph) -> None:
        evaluation = graph.evaluate(
            tables, source_attributes, target_attributes, fds, pricing, ji_cache=ji_cache
        )
        if not evaluation.satisfies(
            max_weight=max_weight, min_quality=min_quality, budget=budget
        ):
            return
        score = weights.score(evaluation, budget=budget, max_weight=max_weight)
        signature = _purchase_signature(graph)
        current = best_by_signature.get(signature)
        if current is None or score > current[0]:
            best_by_signature[signature] = (score, graph, evaluation)

    consider(initial)
    for restart in range(restarts):
        config = MCMCConfig(
            iterations=mcmc_config.iterations,
            seed=mcmc_config.seed + restart,
            projection_flip_probability=max(
                mcmc_config.projection_flip_probability, 0.25
            ),
        )
        result = mcmc_search(
            join_graph,
            initial,
            tables,
            source_attributes,
            target_attributes,
            fds,
            budget=budget,
            max_weight=max_weight,
            min_quality=min_quality,
            config=config,
        )
        if result.best_graph is not None:
            consider(result.best_graph)
        # Also sample sibling candidates by re-running single edge swaps from
        # the best graph, so near-optimal alternatives enter the pool.
        seed_graph = result.best_graph or initial
        for edge_index in range(len(seed_graph.edges)):
            parent = seed_graph.nodes[seed_graph.parents[edge_index]]
            child = seed_graph.nodes[edge_index + 1]
            if not join_graph.has_edge(parent, child):
                continue
            for attrs in join_graph.edge(parent, child).join_attribute_choices():
                if attrs != seed_graph.edges[edge_index]:
                    consider(seed_graph.replace_edge(edge_index, attrs, keep=wanted))

    ranked = sorted(best_by_signature.values(), key=lambda item: item[0], reverse=True)
    return [
        RankedOption(rank=index + 1, score=score, target_graph=graph, evaluation=evaluation)
        for index, (score, graph, evaluation) in enumerate(ranked[:k])
    ]
