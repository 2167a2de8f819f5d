"""The two-layer join graph (Definition 4.2 of the paper).

The instance layer (I-layer) has one vertex per sampled marketplace instance
and an I-edge between two instances whose schemas share at least one attribute.
The attribute-set layer (AS-layer) is the union of the per-instance AS-lattices
with AS-edges between attribute sets of different instances that share
attributes; each AS-edge carries ``(J, w)`` where ``J`` is the shared join
attribute set and ``w`` the join informativeness of the two instances on ``J``.

Property 4.1 lets us avoid materialising the exponential AS-layer: all AS-edges
between the same instance pair with the same join attribute set have the same
weight, so the graph only needs, per I-edge, the map
``join attribute set -> JI weight``; the I-edge weight is the minimum of those
weights.  AS-vertex prices are computed lazily from the pricing model through
the per-instance AS-lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import networkx as nx

from repro.exceptions import GraphConstructionError
from repro.graph.lattice import AttributeSetLattice
from repro.infotheory.join_informativeness import join_informativeness
from repro.pricing.models import EntropyPricingModel, PricingModel
from repro.relational.joins import shared_join_attributes
from repro.relational.table import Table


@dataclass(frozen=True)
class IEdge:
    """An I-layer edge between two instances, with its join-attribute weight map."""

    left: str
    right: str
    weights: Mapping[frozenset[str], float] = field(default_factory=dict)

    @property
    def weight(self) -> float:
        """The I-edge weight: the minimum AS-edge weight over all join attribute sets."""
        if not self.weights:
            return float("inf")
        return min(self.weights.values())

    @property
    def best_join_attributes(self) -> frozenset[str]:
        """The join attribute set achieving the minimum weight."""
        if not self.weights:
            raise GraphConstructionError(f"I-edge {self.left}–{self.right} has no join attributes")
        return min(self.weights, key=lambda attrs: (self.weights[attrs], sorted(attrs)))

    def join_attribute_choices(self) -> tuple[frozenset[str], ...]:
        """All candidate join attribute sets, cheapest (lowest JI) first."""
        return self._choices

    @cached_property
    def _choices(self) -> tuple[frozenset[str], ...]:
        # The weight map never changes after construction, so the order is
        # sorted once, on the first proposal that asks for it.
        weights = self.weights
        return tuple(sorted(weights, key=lambda attrs: (weights[attrs], sorted(attrs))))


class JoinGraph:
    """The two-layer join graph built from instance samples.

    Parameters
    ----------
    samples:
        The correlated samples of the marketplace instances, one per I-vertex
        (keyed by instance name).  Full instances may be passed instead of
        samples; the structure is identical (the GP baseline does exactly that).
    pricing:
        The pricing model used to price AS-vertices (attribute-set purchases).
    max_join_attribute_size:
        Upper bound on the size of the join attribute sets enumerated per
        instance pair.  Join informativeness is not monotone in the attribute
        set, so the graph enumerates subsets of the shared attributes up to
        this size (Property 4.1 keeps this exponential only in the number of
        *shared* attributes, which is small in practice).
    source_instances:
        Names of instances owned by the shopper (price 0; they appear in the
        graph so that join paths can start from them).
    reuse_cache_from:
        A previously built :class:`JoinGraph` whose cached JI weights are
        carried over for every instance pair whose sample objects are *the
        same objects* in both graphs (identity, not equality — the
        conservative check that can never resurrect a stale weight).  Used by
        the incremental refresh paths: rebuilding after a source-table
        replacement only recomputes the edges that touch replaced instances,
        and a refinement-round rebuild still reuses the source–source edges
        (shopper tables do not change when DANCE buys more samples).
    preload_ji:
        JI weights to seed the cache with before building, keyed like
        ``_ji_cache`` (``(left, right, frozenset(attrs))`` with the pair
        sorted).  This is the cross-*process* analogue of
        ``reuse_cache_from``: identity cannot survive a restart, so the
        storage layer validates persisted weights against per-sample content
        fingerprints (:func:`repro.storage.serialize.ji_weights_from_spec`)
        and passes only the still-valid ones here.  A fully warm preload
        makes ``_build`` compute zero JI values.

    The counters ``ji_computations`` (join-informativeness values actually
    computed, i.e. JI-cache misses) and ``edge_recomputes`` (I-edges whose
    weight map needed at least one fresh JI computation) start at zero per
    graph and make cache reuse assertable in tests and observable in
    :meth:`describe`.
    """

    def __init__(
        self,
        samples: Mapping[str, Table] | Sequence[Table],
        *,
        pricing: PricingModel | None = None,
        max_join_attribute_size: int = 2,
        source_instances: Iterable[str] = (),
        reuse_cache_from: "JoinGraph | None" = None,
        preload_ji: Mapping[tuple[str, str, frozenset[str]], float] | None = None,
    ) -> None:
        if not isinstance(samples, Mapping):
            samples = {table.name: table for table in samples}
        if not samples:
            raise GraphConstructionError("a join graph needs at least one instance sample")
        self._samples: dict[str, Table] = dict(samples)
        self.pricing = pricing or EntropyPricingModel()
        self.max_join_attribute_size = max_join_attribute_size
        self.source_instances: set[str] = set(source_instances)
        unknown_sources = self.source_instances - set(self._samples)
        if unknown_sources:
            raise GraphConstructionError(
                f"source instances not present in the samples: {sorted(unknown_sources)}"
            )

        self._graph = nx.Graph()
        self._edges: dict[tuple[str, str], IEdge] = {}
        self._lattices: dict[str, AttributeSetLattice] = {}
        # Per-edge join-informativeness weights, keyed by (left, right, attrs)
        # with the instance pair in sorted order.  JI on the samples is a pure
        # function of that key, so the cache survives across searches and is
        # only invalidated when an instance's sample is replaced.  The key is
        # purely structural (names and attribute sets).
        self._ji_cache: dict[tuple[str, str, frozenset[str]], float] = {}
        self.ji_computations = 0
        self.edge_recomputes = 0
        # Bumped by every in-place structural mutation (add_instance), so
        # holders of a pickled copy (persistent process-pool workers) can
        # detect that object identity alone no longer proves equivalence.
        self.revision = 0
        # Per node, its single-source shortest-path tree on the I-layer,
        # built on first use (see shortest_paths) and dropped with every
        # revision bump.
        self._paths: dict[str, dict[str, list[str]]] = {}
        if preload_ji:
            for (left, right, attrs), weight in preload_ji.items():
                if left in self._samples and right in self._samples:
                    self._ji_cache[(left, right, frozenset(attrs))] = float(weight)
        if reuse_cache_from is not None:
            self._seed_cache_from(reuse_cache_from)
        self._build()

    def _seed_cache_from(self, prior: "JoinGraph") -> None:
        """Adopt ``prior``'s JI weights for pairs whose samples are unchanged.

        A cached weight is a pure function of the two endpoint samples and the
        attribute set, so it stays valid exactly when both endpoint tables are
        the same objects in both graphs (tables are immutable by convention).
        """
        for (left, right, attrs), weight in prior._ji_cache.items():
            mine_left, mine_right = self._samples.get(left), self._samples.get(right)
            if mine_left is None or mine_right is None:
                continue
            theirs_left = prior._samples.get(left)
            theirs_right = prior._samples.get(right)
            if mine_left is theirs_left and mine_right is theirs_right:
                self._ji_cache[(left, right, attrs)] = weight

    # ------------------------------------------------------------------- build
    def _build(self) -> None:
        for name, table in self._samples.items():
            self._graph.add_node(name, num_rows=len(table), attributes=table.schema.names)
            self._lattices[name] = AttributeSetLattice(name, table.schema.names)

        for left_name, right_name in combinations(sorted(self._samples), 2):
            left, right = self._samples[left_name], self._samples[right_name]
            shared = shared_join_attributes(left, right)
            if not shared:
                continue
            weights = self._edge_weights(left, right, shared)
            edge = IEdge(left_name, right_name, weights)
            self._edges[(left_name, right_name)] = edge
            self._graph.add_edge(left_name, right_name, weight=edge.weight)

    def _edge_weights(
        self, left: Table, right: Table, shared: Sequence[str]
    ) -> dict[frozenset[str], float]:
        """JI weight per candidate join attribute set (Property 4.1 weight sharing)."""
        weights: dict[frozenset[str], float] = {}
        limit = min(self.max_join_attribute_size, len(shared))
        computed_before = self.ji_computations
        for size in range(1, limit + 1):
            for attrs in combinations(shared, size):
                weights[frozenset(attrs)] = self.edge_weight(left.name, right.name, attrs)
        if self.ji_computations != computed_before:
            self.edge_recomputes += 1
        return weights

    def edge_weight(self, left: str, right: str, attrs: Iterable[str]) -> float:
        """JI of instances ``left`` and ``right`` on ``attrs`` (cached on the graph).

        Empty samples weigh 1.0 (an uninformative join), matching the
        pessimistic default used during target-graph evaluation.  JI is
        computed with the pair in the cache key's sorted orientation, as
        :meth:`TargetGraph.weight <repro.graph.target.TargetGraph.weight>`
        does: it is not bitwise symmetric, and a weight must not depend on
        the order the caller names the pair in.
        """
        attr_set = frozenset(attrs)
        first, second = sorted((left, right))
        key = (first, second, attr_set)
        cached = self._ji_cache.get(key)
        if cached is None:
            self.ji_computations += 1
            left_table, right_table = self.sample(first), self.sample(second)
            if len(left_table) == 0 or len(right_table) == 0:
                cached = 1.0
            else:
                cached = join_informativeness(left_table, right_table, sorted(attr_set))
            self._ji_cache[key] = cached
        return cached

    # ------------------------------------------------------------------ access
    @property
    def instance_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._samples))

    @property
    def igraph(self) -> nx.Graph:
        """The I-layer as a networkx graph (edge attribute ``weight`` = I-edge weight)."""
        return self._graph

    def shortest_paths(self, source: str) -> Mapping[str, list[str]]:
        """Shortest weighted I-layer paths from ``source`` to every vertex it reaches.

        ``paths[v]`` runs from ``source`` to ``v``; an unreachable vertex
        has no entry.  The tree is one ``nx.single_source_dijkstra`` run,
        made on the first call per node and kept until :meth:`add_instance`
        bumps :attr:`revision`.  Its path to ``v`` is the one
        ``nx.dijkstra_path(igraph, source, v)`` returns: that search is the
        same run stopped when it pops ``v``, it pushes exactly what the full
        run pushes up to then, and a popped vertex's path never changes.
        These are the landmark trees of Gubichev et al., computed once ahead
        of the queries rather than per search.  Callers must not mutate the
        returned mapping or its paths.
        """
        paths = self._paths.get(source)
        if paths is None:
            self.sample(source)
            paths = self._paths[source] = nx.single_source_dijkstra(
                self._graph, source, weight="weight"
            )[1]
        return paths

    def __getstate__(self) -> dict[str, object]:
        # The trees are rebuilt on demand from the graph; a pickled copy
        # (a process chain's payload) leaves them behind.
        state = dict(self.__dict__)
        state["_paths"] = {}
        return state

    def __contains__(self, name: object) -> bool:
        return name in self._samples

    def __len__(self) -> int:
        return len(self._samples)

    def sample(self, name: str) -> Table:
        try:
            return self._samples[name]
        except KeyError:
            raise GraphConstructionError(
                f"unknown instance {name!r}; known: {sorted(self._samples)}"
            ) from None

    def samples(self, names: Sequence[str]) -> list[Table]:
        return [self.sample(name) for name in names]

    def instance_tables(self) -> dict[str, Table]:
        """Snapshot of every instance's sample table, keyed by name."""
        return dict(self._samples)

    def ji_weights(self) -> dict[tuple[str, str, frozenset[str]], float]:
        """Snapshot of the JI cache (``(left, right, attrs) -> weight``).

        The keys are purely structural, so the snapshot can be shipped across
        process boundaries and preloaded into another graph
        (``JoinGraph(preload_ji=...)`` / ``add_instance(preload_ji=...)``) to
        make its edge recomputation hit the cache instead of re-measuring."""
        return dict(self._ji_cache)

    def lattice(self, name: str) -> AttributeSetLattice:
        self.sample(name)
        return self._lattices[name]

    def edge(self, left: str, right: str) -> IEdge:
        key = (left, right) if (left, right) in self._edges else (right, left)
        try:
            return self._edges[key]
        except KeyError:
            raise GraphConstructionError(f"no I-edge between {left!r} and {right!r}") from None

    def has_edge(self, left: str, right: str) -> bool:
        return (left, right) in self._edges or (right, left) in self._edges

    def edges(self) -> list[IEdge]:
        return list(self._edges.values())

    def neighbors(self, name: str) -> tuple[str, ...]:
        self.sample(name)
        return tuple(sorted(self._graph.neighbors(name)))

    # ---------------------------------------------------------------- vertices
    def num_as_vertices(self) -> int:
        """Total AS-layer size: ``Σ_i (2^{m_i} - m_i - 1)`` (reported, never materialised)."""
        total = 0
        for lattice in self._lattices.values():
            m = lattice.num_attributes
            total += 2**m - m - 1
        return total

    def instances_with_attribute(self, attribute: str) -> tuple[str, ...]:
        """Instances whose schema contains ``attribute`` (Def. 4.3 covering vertices)."""
        return tuple(
            sorted(
                name for name, table in self._samples.items() if attribute in table.schema
            )
        )

    def price_of(self, name: str, attributes: Sequence[str]) -> float:
        """Price of the AS-vertex ``(name, attributes)``; source instances are free."""
        if name in self.source_instances:
            return 0.0
        table = self.sample(name)
        return self.pricing.price(table, attributes)

    # ---------------------------------------------------------------- mutation
    def add_instance(
        self,
        table: Table,
        *,
        is_source: bool = False,
        preload_ji: Mapping[tuple[str, str, frozenset[str]], float] | None = None,
    ) -> None:
        """Add (or replace) one instance sample and update the affected edges.

        Used by the online phase's iterative refinement: when no feasible
        target graph exists, DANCE purchases more samples and updates the graph.

        ``preload_ji`` seeds the JI cache *after* the stale entries of a
        replaced instance are dropped, so a caller that already knows the new
        edge weights (a shared-memory worker applying a versioned delta, see
        :mod:`repro.search.shm`) turns the recomputation into pure cache hits.
        """
        name = table.name
        replacing = name in self._samples
        self.revision += 1
        self._paths = {}
        self._samples[name] = table
        if is_source:
            self.source_instances.add(name)
        if replacing:
            stale = [key for key in self._edges if name in key]
            for key in stale:
                del self._edges[key]
            stale_ji = [key for key in self._ji_cache if name in key[:2]]
            for key in stale_ji:
                del self._ji_cache[key]
            if self._graph.has_node(name):
                self._graph.remove_node(name)
        if preload_ji:
            for (left, right, attrs), weight in preload_ji.items():
                if left in self._samples and right in self._samples:
                    self._ji_cache[(left, right, frozenset(attrs))] = float(weight)
        self._graph.add_node(name, num_rows=len(table), attributes=table.schema.names)
        self._lattices[name] = AttributeSetLattice(name, table.schema.names)
        for other_name, other in self._samples.items():
            if other_name == name:
                continue
            shared = shared_join_attributes(table, other)
            if not shared:
                continue
            weights = self._edge_weights(table, other, shared)
            key = tuple(sorted((name, other_name)))
            edge = IEdge(key[0], key[1], weights)
            self._edges[(key[0], key[1])] = edge
            self._graph.add_edge(key[0], key[1], weight=edge.weight)

    # --------------------------------------------------------------- summaries
    def describe(self) -> dict[str, object]:
        return {
            "num_instances": len(self._samples),
            "num_i_edges": len(self._edges),
            "num_as_vertices": self.num_as_vertices(),
            "source_instances": sorted(self.source_instances),
            "instances": {name: len(table) for name, table in self._samples.items()},
            "ji_computations": self.ji_computations,
            "edge_recomputes": self.edge_recomputes,
        }
