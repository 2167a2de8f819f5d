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

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, product
from typing import Iterable, Mapping, MutableMapping, Sequence

from repro.exceptions import GraphConstructionError, SearchError
from repro.infotheory.correlation import (
    SortedGroups,
    attribute_set_correlation,
    grouped_correlation,
)
from repro.infotheory.cumulative import finite_floats
from repro.infotheory.join_informativeness import join_informativeness
from repro.memo import Memo
from repro.quality.fd import FunctionalDependency
from repro.quality.measure import grouped_join_quality, join_quality
from repro.relational.joins import JoinLineage, inner_join, inner_join_origins
from repro.relational.partitions import distinct_rows
from repro.relational.schema import AttributeType
from repro.relational.table import Table, mask_rows


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
        structural and never contains table data or encodings.  It is
        computed once per instance.
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

    def replace_edge(
        self,
        index: int,
        join_attributes: Iterable[str],
        keep: frozenset[str] = frozenset(),
    ) -> "TargetGraph":
        """A copy with edge ``index`` switched to a different join attribute set.

        Projections are re-derived so they still cover all join attributes
        while keeping any extra (non-join) attributes they already carried,
        and every attribute of ``keep`` they already held.  A search passes
        its requested attributes as ``keep``: an attribute that is both
        requested and joined on would otherwise leave the projection when
        the edge swaps away from it, and the graph would no longer cover the
        request.
        """
        if not 0 <= index < len(self.edges):
            raise SearchError(f"edge index {index} out of range for {len(self.edges)} edges")
        edges = list(self.edges)
        edges[index] = frozenset(join_attributes)
        old_required = self.required_join_attributes
        new_required = incident_join_attributes(len(self.nodes), edges, self.parents)
        projections = {}
        for i, name in enumerate(self.nodes):
            projection = self.projections[name]
            projections[name] = (
                new_required[i] | (projection - old_required[i]) | (projection & keep)
            )
        return TargetGraph(
            nodes=list(self.nodes),
            edges=edges,
            parents=list(self.parents),
            projections=projections,
            source_instances=self.source_instances,
        )

    def copy(self) -> "TargetGraph":
        """An equal graph whose fields a caller may mutate without touching this one."""
        return TargetGraph(
            nodes=list(self.nodes),
            edges=list(self.edges),
            parents=list(self.parents),
            projections=dict(self.projections),
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

    def _join(
        self, tables: Mapping[str, Table], intermediate_hook
    ) -> tuple[Table, JoinLineage | None, bytes | None]:
        """The unsampled join along the tree, and its lineage if the hook fired.

        The chain is joined unsampled, recording origins from the first level
        the hook fires on; the third value is that first draw.  Replaying the
        draws down the lineage (:meth:`JoinLineage.kept_mask`) then gives the
        hook the same calls as re-sampling while joining.
        """
        projected = self._projected_tables(tables)
        joined = projected[0]
        lineage = first_mask = None
        for edge_index, right in enumerate(projected[1:]):
            join_attrs = self._join_attributes(edge_index, joined, right)
            # Levels up to the first firing are never sampled, so only the
            # levels after it need to know which row each row came from.
            if lineage is None:
                joined = inner_join(joined, right, join_attrs)
                if intermediate_hook is not None:
                    first_mask = intermediate_hook.draw(len(joined))
                    if first_mask is not None:
                        lineage = JoinLineage(len(joined))
            else:
                joined, origins = inner_join_origins(joined, right, join_attrs)
                lineage.add_level(origins)
        if lineage is not None:
            lineage.joined = joined
        return joined, lineage, first_mask

    def joined_table(self, tables: Mapping[str, Table], *, intermediate_hook=None) -> Table:
        """Join the (projected) instances along the tree.

        ``intermediate_hook`` re-samples each intermediate join result (see
        :meth:`evaluate`).
        """
        joined, lineage, first_mask = self._join(tables, intermediate_hook)
        return joined if lineage is None else lineage.sample(intermediate_hook, first_mask)

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
        same tables; on the join graph's own samples a search passes the
        graph's weights (:meth:`JoinGraph.ji_cache_for
        <repro.graph.join_graph.JoinGraph.ji_cache_for>`) and computes none.
        JI is not bitwise symmetric, so every term is computed in that
        sorted orientation, as :meth:`JoinGraph.edge_weight
        <repro.graph.join_graph.JoinGraph.edge_weight>` computes it: a
        cached weight never depends on which caller missed first.
        """
        total = 0.0
        for left_name, right_name, join_attrs in self.edge_pairs():
            first, second = sorted((left_name, right_name))
            left, right = tables[first], tables[second]
            usable = sorted(a for a in join_attrs if a in left.schema and a in right.schema)
            if not usable or len(left) == 0 or len(right) == 0:
                total += 1.0
                continue
            if ji_cache is None:
                total += join_informativeness(left, right, usable)
                continue
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
        ``draw(num_rows)`` returns a byte mask over the ``num_rows`` rows (1
        for a row to keep, 0 for one to drop), or ``None`` to keep them all,
        and whether it keeps all must depend on ``num_rows`` alone.
        ``lineages`` memoises, by :meth:`signature`, the join lineage of every
        graph on which the hook fired, so a later evaluation of the same graph
        on the same ``tables`` re-samples without joining; graphs on which it
        never fired get no entry.  A memoised lineage also keeps a
        :class:`_LineageSummary` of its final join, and every evaluation of it
        measures the rows its mask keeps from that summary without gathering
        them.  An evaluation without a hook neither reads nor writes
        ``lineages``: it has nothing to replay.
        """
        key = None if lineages is None or intermediate_hook is None else self.signature()
        lineage = None if key is None else lineages.get(key)
        if lineage is not None:
            mask = lineage.kept_mask(intermediate_hook)
        else:
            joined, lineage, first_mask = self._join(tables, intermediate_hook)
            if lineage is None or key is None:
                # Nothing to memoise: measure the (sampled) join row by row.
                if lineage is not None:
                    joined = lineage.sample(intermediate_hook, first_mask)
                return TargetGraphEvaluation(
                    correlation=attribute_set_correlation(
                        joined, source_attributes, target_attributes
                    ),
                    quality=join_quality(joined, fds),
                    weight=self.weight(tables, ji_cache=ji_cache),
                    price=self.price(tables, pricing),
                    join_rows=len(joined),
                )
            lineages[key] = lineage
            mask = lineage.kept_mask(intermediate_hook, first_mask)
        request = (tuple(source_attributes), tuple(target_attributes), tuple(fds))
        summary = lineage.summary
        if summary is None or summary.request != request:
            summary = lineage.summary = _LineageSummary(
                lineage.joined,
                request,
                weight=self.weight(tables, ji_cache=ji_cache),
                price=self.price(tables, pricing),
            )
        return summary.evaluate(mask)

    # ------------------------------------------------------------------ dunder
    def __repr__(self) -> str:
        path = " ⋈ ".join(self.nodes)
        return f"TargetGraph({path})"


def prune_memos(
    evaluation_caches: Iterable[MutableMapping[tuple, TargetGraphEvaluation]],
    changed: Iterable[str],
    fds_before: Iterable[FunctionalDependency],
    fds_after: Iterable[FunctionalDependency],
    lineage_memo: Memo | None = None,
) -> None:
    """Drop the memo entries a one-step write may have changed; keep the rest.

    ``evaluation_caches`` map :meth:`TargetGraph.signature` to evaluations,
    ``changed`` names the instances the write added or replaced, the FD
    lists are those in force before and after it, and ``lineage_memo`` maps
    signatures to join lineages.  An evaluation reads the tables of
    its nodes (correlation, JI weight, price) and the FDs whose attributes
    all lie in its join's schema (quality), so an entry is dropped only when

    * one of its nodes changed, or
    * some FD in the symmetric difference of the before and after
      ``(lhs, rhs)`` sets has every attribute among the names the graph's
      join can carry: its projections, plus ``<instance>.<attr>`` for the
      colliding columns a join renames.  FD order does not matter, because
      quality intersects per-FD correct sets.

    A lineage is dropped only when one of its nodes changed: it holds the
    join of its nodes' tables and no FD.  A kept entry is exactly what
    re-evaluation would return.  The caches need ``keys()`` and
    ``pop(key, default)``.  JI weights are the join graph's, which
    :meth:`~repro.graph.join_graph.JoinGraph.add_instance` prunes itself.
    """
    changed = frozenset(changed)
    # Built when the first entry passes the node test, which most writes'
    # entries do not reach.
    fd_delta: list[frozenset[str]] | None = None
    renames = False
    for cache in evaluation_caches:
        stale = []
        for signature in cache.keys():
            if changed.isdisjoint(signature[0]):
                if fd_delta is None:
                    before = {(fd.lhs, fd.rhs) for fd in fds_before}
                    after = {(fd.lhs, fd.rhs) for fd in fds_after}
                    fd_delta = [frozenset((*lhs, rhs)) for lhs, rhs in before ^ after]
                    # Only an FD naming a dotted attribute can need the
                    # renamed columns.
                    renames = any("." in name for names in fd_delta for name in names)
                if not fd_delta or not _carries_any(signature, fd_delta, renames):
                    continue
            stale.append(signature)
        for signature in stale:
            cache.pop(signature, None)
    if lineage_memo is not None:
        for signature in lineage_memo.keys():
            if not changed.isdisjoint(signature[0]):
                lineage_memo.pop(signature, None)


def _carries_any(signature: tuple, fd_delta: list[frozenset[str]], renames: bool) -> bool:
    """Whether the join of ``signature``'s graph can carry every attribute of
    some FD in ``fd_delta``: its projections, plus (with ``renames``) the
    ``<instance>.<attr>`` names a join gives colliding columns."""
    nodes, _, _, projections = signature
    names = set().union(*projections)
    if renames:
        names.update(
            f"{node}.{attribute}"
            for node, projection in zip(nodes, projections)
            for attribute in projection
        )
    return any(names.issuperset(attributes) for attributes in fd_delta)


#: The value types a numerical source's summary takes: two of them that
#: compare equal convert to the same float.  Other types may equal a plain
#: number (``Decimal(1) == 1``) yet fail the per-row estimator's cleaning.
_PLAIN_NUMBERS = frozenset({int, float, bool, type(None)})


class _LineageSummary:
    """A lineage's final join as its distinct rows, for one evaluation request.

    ``request`` is ``(source attributes, target attributes, FDs)``.  The
    final join's rows are grouped on every column the request reads
    (:func:`~repro.relational.partitions.distinct_rows`), and per group the
    summary keeps its target key code, each present source's code
    (categorical) or float (numerical), and the LHS and RHS codes of every
    applicable FD that some row violates on the final join (an FD that holds
    there holds on every sample of it).  Weight and price depend only on the
    graph and the tables, so those of the lineage's first evaluation serve
    every later one.  The summary lives as long as its lineage, which a
    :func:`~repro.relational.joins.lineage_memo` may keep for many walks and
    requests; an evaluation for another request replaces it.

    A numerical source whose column holds a value the run-length kernel
    cannot take (see :func:`~repro.infotheory.cumulative.finite_floats`)
    sends the lineage down the per-row route: each evaluation gathers its
    kept rows and measures them with the per-row kernels.
    """

    __slots__ = (
        "request", "joined", "weight", "price", "group_of", "targets", "sources", "fd_keys"
    )

    def __init__(self, joined: Table, request: tuple, *, weight: float, price: float):
        self.request = request
        self.joined = joined
        self.weight = weight
        self.price = price
        source_attributes, target_attributes, fds = request
        schema = joined.schema
        present_targets = [a for a in target_attributes if a in schema]
        # Without a present target CORR is 0 and reads no source.
        present_sources = [a for a in source_attributes if a in schema and present_targets]
        applicable = [fd for fd in fds if fd.applies_to(joined)]
        fd_attributes = [a for fd in applicable for a in fd.attributes]
        read = dict.fromkeys(present_sources + present_targets + fd_attributes)
        group_of, groups = distinct_rows(joined, list(read))
        self.group_of: list[int] | None = group_of
        self.targets = groups.encoded_key(present_targets).codes
        self.sources: list[tuple[AttributeType, list[int] | SortedGroups]] = []
        self.fd_keys: list[tuple[list[int], list[int]]] = []
        for attribute in present_sources:
            x_type = schema.type_of(attribute)
            if x_type is not AttributeType.NUMERICAL:
                self.sources.append((x_type, groups.encoded(attribute).codes))
                continue
            values = None
            if set(map(type, joined.column(attribute))) <= _PLAIN_NUMBERS:
                values = finite_floats(groups.column(attribute))
            if values is None:
                self.group_of = None  # the per-row route
                return
            self.sources.append((x_type, SortedGroups.build(values, self.targets)))
        for fd in applicable:
            lhs = groups.encoded_key(fd.lhs).codes
            rhs = groups.encoded(fd.rhs).codes
            if len(set(zip(lhs, rhs))) != len(set(lhs)):
                self.fd_keys.append((lhs, rhs))

    def evaluate(self, mask: bytes) -> TargetGraphEvaluation:
        """The evaluation of the final join's rows that the byte ``mask``
        keeps (one byte per row, 1 for kept).

        Kept rows are counted per group in row order, so the groups come in
        the order of their first kept row, as the per-row kernels count them.
        """
        if self.group_of is None:
            sources, targets, fds = self.request
            sample = self.joined.take(mask_rows(mask))
            correlation = attribute_set_correlation(sample, sources, targets)
            quality = join_quality(sample, fds)
        else:
            counts = Counter(compress(self.group_of, mask))
            correlation = grouped_correlation(counts, self.targets, self.sources)
            quality = grouped_join_quality(counts, self.fd_keys)
        return TargetGraphEvaluation(
            correlation=correlation,
            quality=quality,
            weight=self.weight,
            price=self.price,
            join_rows=mask.count(1),
        )


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
