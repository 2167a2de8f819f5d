"""Source/target vertex sets and the target graph (Definitions 4.3 and 4.4).

A *target graph* is a connected subgraph of the join graph that covers all
source and target attributes.  In this implementation a target graph is a tree
over instance names: the instances are listed in a join order, and every
instance after the first attaches to one *earlier* instance (its parent) through
a chosen join attribute set.  A path-shaped join is the special case where each
instance attaches to its immediate predecessor.

Per instance, the target graph also records the projection attribute set — the
AS-vertex that will actually be purchased.  The class knows how to evaluate
itself against a set of instance tables (samples or full data): correlation
between the source and target attribute sets on the join result, join quality,
total join-informativeness weight, and total price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

from repro.exceptions import GraphConstructionError, SearchError
from repro.infotheory.correlation import attribute_set_correlation
from repro.infotheory.join_informativeness import join_informativeness
from repro.quality.fd import FunctionalDependency
from repro.quality.measure import join_quality
from repro.relational.joins import JoinLineage, inner_join, inner_join_origins
from repro.relational.table import Table


@dataclass(frozen=True)
class TargetGraphEvaluation:
    """The four quantities the optimisation problem cares about (Eq. 9)."""

    correlation: float
    quality: float
    weight: float
    price: float
    join_rows: int = 0

    def satisfies(
        self,
        *,
        max_weight: float = float("inf"),
        min_quality: float = 0.0,
        budget: float = float("inf"),
    ) -> bool:
        """Check the α (weight), β (quality) and B (price) constraints."""
        return (
            self.weight <= max_weight + 1e-12
            and self.quality >= min_quality - 1e-12
            and self.price <= budget + 1e-9
        )


@dataclass
class TargetGraph:
    """A candidate acquisition: instances, join attributes per edge, projections per node.

    Attributes
    ----------
    nodes:
        Instance names in join order.
    edges:
        One entry per instance after the first: ``edges[i]`` is the join
        attribute set used to attach ``nodes[i + 1]`` to its parent.
    parents:
        ``parents[i]`` is the index (into ``nodes``) of the instance that
        ``nodes[i + 1]`` attaches to; it must be ``<= i``.  When omitted the
        graph is a path (each instance attaches to its predecessor).
    projections:
        Per-instance attribute set to purchase.  Every projection must contain
        the join attributes the instance participates in (otherwise the join
        cannot be executed on the purchased data).
    source_instances:
        Instances owned by the shopper (their projections are free).

    The fields are never mutated after construction: every change of a
    graph (:meth:`replace_edge`, :meth:`with_projection`) builds a new one,
    so an instance caches its :meth:`signature` and
    :attr:`required_join_attributes`.
    """

    nodes: list[str]
    edges: list[frozenset[str]]
    parents: list[int] = field(default_factory=list)
    projections: dict[str, frozenset[str]] = field(default_factory=dict)
    source_instances: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.nodes:
            raise GraphConstructionError("a target graph needs at least one instance")
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphConstructionError(f"duplicate instances in target graph: {self.nodes}")
        if len(self.edges) != max(0, len(self.nodes) - 1):
            raise GraphConstructionError(
                f"a target graph of {len(self.nodes)} instances needs "
                f"{len(self.nodes) - 1} edges, got {len(self.edges)}"
            )
        if not self.parents:
            self.parents = list(range(len(self.nodes) - 1))
        if len(self.parents) != len(self.edges):
            raise GraphConstructionError(
                f"parents must have one entry per edge: {len(self.parents)} vs {len(self.edges)}"
            )
        for index, parent in enumerate(self.parents):
            if not 0 <= parent <= index:
                raise GraphConstructionError(
                    f"parent of node {index + 1} must be an earlier node, got {parent}"
                )
        self.edges = [frozenset(edge) for edge in self.edges]
        self.source_instances = frozenset(self.source_instances)
        required = self.required_join_attributes
        for node_index, name in enumerate(self.nodes):
            if name in self.projections:
                self.projections[name] = frozenset(self.projections[name])
            else:
                self.projections[name] = required[node_index]
        self._validate_projections()

    # ----------------------------------------------------------------- helpers
    @cached_property
    def required_join_attributes(self) -> tuple[frozenset[str], ...]:
        """Per node, the join attributes of every edge it is an endpoint of."""
        return incident_join_attributes(len(self.nodes), self.edges, self.parents)

    def _validate_projections(self) -> None:
        for name, required in zip(self.nodes, self.required_join_attributes):
            missing = required - self.projections[name]
            if missing:
                raise GraphConstructionError(
                    f"projection of {name!r} is missing join attributes {sorted(missing)}"
                )

    # ------------------------------------------------------------------ access
    @property
    def length(self) -> int:
        """Number of instances in the target graph (the join-path length)."""
        return len(self.nodes)

    def edge_pairs(self) -> list[tuple[str, str, frozenset[str]]]:
        """(parent instance, child instance, join attributes) per edge."""
        return [
            (self.nodes[self.parents[i]], self.nodes[i + 1], self.edges[i])
            for i in range(len(self.edges))
        ]

    def signature(self) -> tuple:
        """A canonical, hashable identity: nodes, edges, parents, projections.

        Two graphs with the same signature evaluate identically on the same
        tables, so the signature keys evaluation memos.  It is purely
        structural and never contains table data or (possibly array-backed,
        unhashable) encodings, so a memo keyed on it is valid under both
        columnar backends, which evaluate bit-identically.  It is computed
        once per instance.
        """
        return self._signature

    @cached_property
    def _signature(self) -> tuple:
        return (
            tuple(self.nodes),
            tuple(tuple(sorted(edge)) for edge in self.edges),
            tuple(self.parents),
            tuple(tuple(sorted(self.projections[name])) for name in self.nodes),
        )

    def purchased_instances(self) -> list[str]:
        """Instances that must actually be bought (everything not owned)."""
        return [name for name in self.nodes if name not in self.source_instances]

    def replace_edge(self, index: int, join_attributes: Iterable[str]) -> "TargetGraph":
        """A copy with edge ``index`` switched to a different join attribute set.

        Projections are re-derived so they still cover all join attributes
        while keeping any extra (non-join) attributes they already carried.
        """
        if not 0 <= index < len(self.edges):
            raise SearchError(f"edge index {index} out of range for {len(self.edges)} edges")
        edges = list(self.edges)
        edges[index] = frozenset(join_attributes)
        old_required = self.required_join_attributes
        new_required = incident_join_attributes(len(self.nodes), edges, self.parents)
        projections = {
            name: new_required[i] | (self.projections[name] - old_required[i])
            for i, name in enumerate(self.nodes)
        }
        return TargetGraph(
            nodes=list(self.nodes),
            edges=edges,
            parents=list(self.parents),
            projections=projections,
            source_instances=self.source_instances,
        )

    def with_projection(self, name: str, attributes: Iterable[str]) -> "TargetGraph":
        """A copy with the projection of instance ``name`` replaced."""
        if name not in self.nodes:
            raise SearchError(f"instance {name!r} is not part of this target graph")
        projections = dict(self.projections)
        projections[name] = frozenset(attributes)
        return TargetGraph(
            nodes=list(self.nodes),
            edges=list(self.edges),
            parents=list(self.parents),
            projections=projections,
            source_instances=self.source_instances,
        )

    # -------------------------------------------------------------- evaluation
    def _projected_tables(self, tables: Mapping[str, Table]) -> list[Table]:
        projected: list[Table] = []
        for name in self.nodes:
            if name not in tables:
                raise SearchError(f"no table supplied for instance {name!r}")
            table = tables[name]
            keep = [a for a in table.schema.names if a in self.projections[name]]
            projected.append(table.project(keep) if keep else table)
        return projected

    def _join_attributes(self, edge_index: int, joined: Table, right: Table) -> list[str]:
        # sorted so the key-encoding cache key is canonical for the attr set
        join_attrs = sorted(
            a for a in self.edges[edge_index] if a in joined.schema and a in right.schema
        )
        if not join_attrs:
            parent = self.nodes[self.parents[edge_index]]
            raise SearchError(
                f"join attributes {sorted(self.edges[edge_index])} are not present on both "
                f"sides of the join between {parent!r} and {self.nodes[edge_index + 1]!r}"
            )
        return join_attrs

    def _sampled_join(
        self, tables: Mapping[str, Table], intermediate_hook, lineage: JoinLineage | None
    ) -> tuple[Table, JoinLineage | None]:
        """The join along the tree with every intermediate re-sampled by the hook.

        Returns the final join and, when the hook fired, its
        :class:`~repro.relational.joins.JoinLineage`.  Given that lineage
        (built on the same tables), no join runs: the hook's draws are
        replayed down the lineage instead.  Otherwise the chain is joined
        unsampled, recording origins from the first level the hook fires on,
        and the draws are replayed down the fresh lineage, so either way the
        hook sees the same calls as re-sampling while joining.
        """
        if lineage is not None:
            return lineage.sample(intermediate_hook), lineage
        projected = self._projected_tables(tables)
        joined = projected[0]
        first_keep = None
        for edge_index, right in enumerate(projected[1:]):
            join_attrs = self._join_attributes(edge_index, joined, right)
            # Levels up to the first firing are never sampled, so only the
            # levels after it need to know which row each row came from.
            if lineage is None:
                joined = inner_join(joined, right, join_attrs)
                if intermediate_hook is not None:
                    first_keep = intermediate_hook.draw(len(joined))
                    if first_keep is not None:
                        lineage = JoinLineage(len(joined))
            else:
                joined, origins = inner_join_origins(joined, right, join_attrs)
                lineage.add_level(origins)
        if lineage is None:
            return joined, None
        lineage.joined = joined
        return lineage.sample(intermediate_hook, first_keep), lineage

    def joined_table(self, tables: Mapping[str, Table], *, intermediate_hook=None) -> Table:
        """Join the (projected) instances along the tree.

        ``intermediate_hook`` re-samples each intermediate join result (see
        :meth:`evaluate`).
        """
        return self._sampled_join(tables, intermediate_hook, None)[0]

    def price(self, tables: Mapping[str, Table], pricing) -> float:
        """Total purchase price: Σ over non-owned instances of the projection price."""
        total = 0.0
        for name in self.purchased_instances():
            table = tables[name]
            attributes = [a for a in table.schema.names if a in self.projections[name]]
            if attributes:
                total += pricing.price(table, attributes)
        return total

    def weight(
        self,
        tables: Mapping[str, Table],
        *,
        ji_cache: dict[tuple, float] | None = None,
    ) -> float:
        """Total join-informativeness weight: Σ JI over the edges (on the given tables).

        ``ji_cache`` (keyed by ``(left, right, attrs)`` with the instance pair
        sorted) memoises per-edge JI across repeated evaluations against the
        same tables — the MCMC walk shares one cache for the whole search.
        """
        total = 0.0
        for left_name, right_name, join_attrs in self.edge_pairs():
            left, right = tables[left_name], tables[right_name]
            usable = sorted(a for a in join_attrs if a in left.schema and a in right.schema)
            if not usable or len(left) == 0 or len(right) == 0:
                total += 1.0
                continue
            if ji_cache is None:
                total += join_informativeness(left, right, usable)
                continue
            first, second = sorted((left_name, right_name))
            key = (first, second, frozenset(usable))
            cached = ji_cache.get(key)
            if cached is None:
                cached = join_informativeness(left, right, usable)
                ji_cache[key] = cached
            total += cached
        return total

    def evaluate(
        self,
        tables: Mapping[str, Table],
        source_attributes: Sequence[str],
        target_attributes: Sequence[str],
        fds: Sequence[FunctionalDependency],
        pricing,
        *,
        intermediate_hook=None,
        ji_cache: dict[tuple, float] | None = None,
        lineages: dict[tuple, JoinLineage] | None = None,
    ) -> TargetGraphEvaluation:
        """Correlation, quality, weight and price of this target graph on ``tables``.

        ``intermediate_hook`` is a correlated re-sampler of the intermediate
        join results, such as
        :class:`~repro.sampling.resampling.ResamplingPolicy`: its
        ``draw(num_rows)`` returns the ascending row positions to keep, or
        ``None`` to keep them all, and whether it keeps all must depend on
        ``num_rows`` alone.  ``lineages`` memoises, by :meth:`signature`, the
        join lineage of every graph on which the hook fired, so a later
        evaluation of the same graph on the same ``tables`` re-samples
        without joining; graphs on which it never fired get no entry.
        """
        key = None if lineages is None else self.signature()
        lineage = None if key is None else lineages.get(key)
        joined, lineage = self._sampled_join(tables, intermediate_hook, lineage)
        if key is not None and lineage is not None:
            lineages[key] = lineage
        correlation = attribute_set_correlation(joined, source_attributes, target_attributes)
        quality = join_quality(joined, fds)
        return TargetGraphEvaluation(
            correlation=correlation,
            quality=quality,
            weight=self.weight(tables, ji_cache=ji_cache),
            price=self.price(tables, pricing),
            join_rows=len(joined),
        )

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:
        path = " ⋈ ".join(self.nodes)
        return f"TargetGraph({path})"


def incident_join_attributes(
    size: int, edges: Sequence[frozenset[str]], parents: Sequence[int]
) -> tuple[frozenset[str], ...]:
    """Per node of a ``size``-node tree, the union of its incident edges' attributes.

    Edge ``i`` joins node ``i + 1`` to node ``parents[i]``, as in
    :class:`TargetGraph`; one pass over the edges serves every node.
    """
    required: list[frozenset[str]] = [frozenset()] * size
    for child, (parent, edge) in enumerate(zip(parents, edges), start=1):
        required[child] |= edge
        required[parent] |= edge
    return tuple(required)


def enumerate_covering_sets(
    attribute_to_instances: Mapping[str, Sequence[str]],
    *,
    max_sets: int = 10_000,
) -> list[frozenset[str]]:
    """Enumerate instance sets that cover all requested attributes (Def. 4.3 / Example 4.1).

    ``attribute_to_instances`` maps each requested attribute to the instances
    that contain it; the result is the de-duplicated list of instance
    combinations obtained by picking one instance per attribute.  The
    enumeration is cut off at ``max_sets`` distinct sets to stay safe on
    marketplaces where popular attributes appear in many instances.
    """
    attributes = sorted(attribute_to_instances)
    for attribute in attributes:
        if not attribute_to_instances[attribute]:
            raise SearchError(f"attribute {attribute!r} is not available in any instance")
    seen: set[frozenset[str]] = set()
    results: list[frozenset[str]] = []
    for choice in product(*(attribute_to_instances[a] for a in attributes)):
        covering = frozenset(choice)
        if covering not in seen:
            seen.add(covering)
            results.append(covering)
            if len(results) >= max_sets:
                break
    return results
