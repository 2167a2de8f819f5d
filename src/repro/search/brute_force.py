"""Exhaustive baselines: LP (local optimal) and GP (global optimal).

Both baselines enumerate every candidate target graph (every covering I-layer
path and every join-attribute combination) and return the feasible candidate
with the highest correlation.  They differ only in the data the candidates are
evaluated on:

* **LP** evaluates candidates on the correlated *samples* held by DANCE — the
  best result achievable with the information DANCE actually has;
* **GP** evaluates candidates on the *full* marketplace instances — the true
  optimum a shopper with unlimited access could find.

The evaluation section compares the heuristic's result quality and runtime
against both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import InfeasibleAcquisitionError, ReproError
from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraph, TargetGraphEvaluation
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.search.candidates import enumerate_target_graphs


@dataclass
class BruteForceResult:
    """The optimum found by exhaustive enumeration."""

    best_graph: TargetGraph | None
    best_evaluation: TargetGraphEvaluation | None
    candidates_evaluated: int = 0
    feasible_candidates: int = 0

    @property
    def feasible(self) -> bool:
        return self.best_graph is not None

    def require_feasible(self) -> tuple[TargetGraph, TargetGraphEvaluation]:
        if self.best_graph is None or self.best_evaluation is None:
            raise InfeasibleAcquisitionError(
                "exhaustive search found no target graph satisfying the constraints"
            )
        return self.best_graph, self.best_evaluation


def _exhaustive_search(
    join_graph: JoinGraph,
    tables: Mapping[str, Table],
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
    fds: Sequence[FunctionalDependency],
    *,
    budget: float,
    max_weight: float,
    min_quality: float,
    max_path_length: int,
    max_paths: int,
    max_graphs_per_path: int,
) -> BruteForceResult:
    pricing = join_graph.pricing
    result = BruteForceResult(best_graph=None, best_evaluation=None)
    # Candidates overlap heavily in their edges, so per-edge JI terms come
    # from one cache for the whole enumeration: LP's samples read the join
    # graph's own weights, GP's full tables fill a private cache.
    ji_cache = join_graph.ji_cache_for(tables)
    for candidate in enumerate_target_graphs(
        join_graph,
        source_attributes,
        target_attributes,
        max_path_length=max_path_length,
        max_paths=max_paths,
        max_graphs_per_path=max_graphs_per_path,
    ):
        result.candidates_evaluated += 1
        try:
            evaluation = candidate.evaluate(
                tables, source_attributes, target_attributes, fds, pricing, ji_cache=ji_cache
            )
        except ReproError:
            # A candidate may be un-joinable on the evaluation tables (e.g. a
            # projected sample no longer carries the join attribute, raising
            # JoinError / MeasureError); such candidates are simply not
            # acquirable and are skipped.  Anything outside the typed
            # hierarchy is a genuine bug and propagates.
            continue
        if not evaluation.satisfies(
            max_weight=max_weight, min_quality=min_quality, budget=budget
        ):
            continue
        result.feasible_candidates += 1
        if (
            result.best_evaluation is None
            or evaluation.correlation > result.best_evaluation.correlation
        ):
            result.best_graph = candidate
            result.best_evaluation = evaluation
    return result


def local_optimal(
    join_graph: JoinGraph,
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
    fds: Sequence[FunctionalDependency],
    *,
    budget: float,
    max_weight: float = float("inf"),
    min_quality: float = 0.0,
    max_path_length: int = 8,
    max_paths: int = 500,
    max_graphs_per_path: int = 200,
) -> BruteForceResult:
    """LP: exhaustive search evaluated on the samples inside the join graph."""
    tables = {name: join_graph.sample(name) for name in join_graph.instance_names}
    return _exhaustive_search(
        join_graph,
        tables,
        source_attributes,
        target_attributes,
        fds,
        budget=budget,
        max_weight=max_weight,
        min_quality=min_quality,
        max_path_length=max_path_length,
        max_paths=max_paths,
        max_graphs_per_path=max_graphs_per_path,
    )


def global_optimal(
    join_graph: JoinGraph,
    full_tables: Mapping[str, Table],
    source_attributes: Sequence[str],
    target_attributes: Sequence[str],
    fds: Sequence[FunctionalDependency],
    *,
    budget: float,
    max_weight: float = float("inf"),
    min_quality: float = 0.0,
    max_path_length: int = 8,
    max_paths: int = 500,
    max_graphs_per_path: int = 200,
) -> BruteForceResult:
    """GP: exhaustive search evaluated on the full marketplace instances.

    The candidate space is still generated from the join graph structure (the
    schema-level connectivity is identical for samples and full data), but each
    candidate is priced and scored on the full instances in ``full_tables``.
    """
    missing = [name for name in join_graph.instance_names if name not in full_tables]
    if missing:
        raise InfeasibleAcquisitionError(
            f"global_optimal needs the full data of every instance; missing: {missing}"
        )
    return _exhaustive_search(
        join_graph,
        full_tables,
        source_attributes,
        target_attributes,
        fds,
        budget=budget,
        max_weight=max_weight,
        min_quality=min_quality,
        max_path_length=max_path_length,
        max_paths=max_paths,
        max_graphs_per_path=max_graphs_per_path,
    )
