"""Tests for target graphs (Definition 4.4): structure, evaluation, constraints."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.exceptions import GraphConstructionError, SearchError
from repro.graph.target import (
    TargetGraph,
    TargetGraphEvaluation,
    enumerate_covering_sets,
    prune_memos,
)
from repro.graph.join_graph import JoinGraph
from repro.memo import Memo
from repro.pricing.models import FlatAttributePricingModel
from repro.quality.fd import FunctionalDependency
from repro.relational.joins import JoinLineage, lineage_memo
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy


@pytest.fixture
def tables() -> dict[str, Table]:
    orders = Table.from_rows(
        "orders", ["custkey", "totalprice"], [(i % 5, float(i % 5) * 100 + i % 2) for i in range(40)]
    )
    customers = Table.from_rows(
        "customers",
        ["custkey", "nationkey", "segment"],
        [(i, i % 3, f"s{i % 3}") for i in range(5)],
    )
    nations = Table.from_rows("nations", ["nationkey", "nname"], [(i, f"n{i}") for i in range(3)])
    return {"orders": orders, "customers": customers, "nations": nations}


@pytest.fixture
def path_graph() -> TargetGraph:
    return TargetGraph(
        nodes=["orders", "customers", "nations"],
        edges=[frozenset({"custkey"}), frozenset({"nationkey"})],
        projections={
            "orders": {"custkey", "totalprice"},
            "customers": {"custkey", "nationkey"},
            "nations": {"nationkey", "nname"},
        },
        source_instances={"orders"},
    )


class TestConstruction:
    def test_default_parents_form_a_path(self, path_graph):
        assert path_graph.parents == [0, 1]
        assert path_graph.length == 3

    def test_default_projections_cover_join_attributes(self):
        graph = TargetGraph(
            nodes=["a", "b"],
            edges=[frozenset({"k"})],
        )
        assert graph.projections["a"] == frozenset({"k"})
        assert graph.projections["b"] == frozenset({"k"})

    def test_tree_shaped_parents(self):
        graph = TargetGraph(
            nodes=["hub", "left", "right"],
            edges=[frozenset({"x"}), frozenset({"y"})],
            parents=[0, 0],
        )
        pairs = graph.edge_pairs()
        assert pairs[0][:2] == ("hub", "left")
        assert pairs[1][:2] == ("hub", "right")

    def test_projection_missing_join_attribute_rejected(self):
        with pytest.raises(GraphConstructionError):
            TargetGraph(
                nodes=["a", "b"],
                edges=[frozenset({"k"})],
                projections={"a": {"other"}, "b": {"k"}},
            )

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(GraphConstructionError):
            TargetGraph(nodes=["a", "b"], edges=[])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(GraphConstructionError):
            TargetGraph(nodes=["a", "a"], edges=[frozenset({"k"})])

    def test_invalid_parent_rejected(self):
        with pytest.raises(GraphConstructionError):
            TargetGraph(nodes=["a", "b"], edges=[frozenset({"k"})], parents=[5])

    def test_empty_nodes_rejected(self):
        with pytest.raises(GraphConstructionError):
            TargetGraph(nodes=[], edges=[])

    def test_purchased_instances_exclude_sources(self, path_graph):
        assert path_graph.purchased_instances() == ["customers", "nations"]


class TestMutation:
    def test_replace_edge_rederives_projections(self, path_graph):
        replaced = path_graph.replace_edge(0, {"custkey"})
        assert replaced.edges[0] == frozenset({"custkey"})
        # non-join extras (totalprice, nname) survive the re-derivation
        assert "totalprice" in replaced.projections["orders"]
        assert "nname" in replaced.projections["nations"]

    def test_an_edge_swap_keeps_a_requested_join_attribute(self):
        """Requesting ``a -> v`` over ``t0(k, a) ⋈ t1(k, a, v)``, joined on
        ``k``: ``a`` is requested and also a join attribute choice.  Swapping
        the edge to ``a`` and back to ``k`` must return the start graph, with
        ``a`` in both projections, not a graph that no longer covers the
        request (CORR 0)."""
        tables = {
            "t0": Table.from_rows("t0", ["k", "a"], [(i, f"a{i % 3}") for i in range(12)]),
            "t1": Table.from_rows(
                "t1", ["k", "a", "v"], [(i, f"a{i % 4}", f"v{i % 3 == 0}") for i in range(12)]
            ),
        }
        start = TargetGraph(
            nodes=["t0", "t1"],
            edges=[frozenset({"k"})],
            projections={"t0": {"k", "a"}, "t1": {"k", "a", "v"}},
        )
        wanted = frozenset({"a", "v"})
        back = start.replace_edge(0, {"a"}, keep=wanted).replace_edge(0, {"k"}, keep=wanted)
        assert back.projections == start.projections
        assert back.signature() == start.signature()

        def evaluate(graph):
            return graph.evaluate(tables, ["a"], ["v"], [], FlatAttributePricingModel())

        assert evaluate(start).correlation > 0.0
        assert evaluate(back) == evaluate(start)

    def test_replace_edge_out_of_range(self, path_graph):
        with pytest.raises(SearchError):
            path_graph.replace_edge(5, {"custkey"})

    def test_with_projection(self, path_graph):
        updated = path_graph.with_projection("customers", {"custkey", "nationkey", "segment"})
        assert "segment" in updated.projections["customers"]

    def test_with_projection_unknown_instance(self, path_graph):
        with pytest.raises(SearchError):
            path_graph.with_projection("nope", {"x"})


class TestEvaluation:
    def test_joined_table_schema(self, path_graph, tables):
        joined = path_graph.joined_table(tables)
        assert {"totalprice", "nname"} <= set(joined.schema.names)
        assert len(joined) == 40

    def test_missing_table_raises(self, path_graph):
        with pytest.raises(SearchError):
            path_graph.joined_table({"orders": Table.empty("orders", ["custkey", "totalprice"])})

    def test_price_excludes_source_instances(self, path_graph, tables):
        pricing = FlatAttributePricingModel(1.0)
        # customers buys 2 attrs, nations buys 2 attrs; orders is owned
        assert path_graph.price(tables, pricing) == 4.0

    def test_weight_sums_edge_ji(self, path_graph, tables):
        weight = path_graph.weight(tables)
        assert 0.0 <= weight <= 2.0

    def test_evaluate_returns_all_metrics(self, path_graph, tables):
        fds = [FunctionalDependency("nationkey", "nname")]
        evaluation = path_graph.evaluate(
            tables, ["totalprice"], ["nname"], fds, FlatAttributePricingModel(1.0)
        )
        assert isinstance(evaluation, TargetGraphEvaluation)
        assert evaluation.correlation > 0.0
        assert evaluation.quality == 1.0
        assert evaluation.price == 4.0
        assert evaluation.join_rows == 40

    def test_satisfies_constraints(self):
        evaluation = TargetGraphEvaluation(
            correlation=2.0, quality=0.8, weight=1.0, price=10.0
        )
        assert evaluation.satisfies(max_weight=1.5, min_quality=0.5, budget=10.0)
        assert not evaluation.satisfies(max_weight=0.5)
        assert not evaluation.satisfies(min_quality=0.9)
        assert not evaluation.satisfies(budget=9.0)

    def test_intermediate_hook_applied(self, path_graph, tables):
        calls = []

        def draw(num_rows):
            calls.append(num_rows)
            return None

        path_graph.joined_table(tables, intermediate_hook=SimpleNamespace(draw=draw))
        assert len(calls) == 2

    def test_a_hookless_evaluation_neither_reads_nor_writes_the_lineages(
        self, path_graph, tables
    ):
        """Lineages a hooked evaluation left can hold a graph an evaluation
        without a hook then meets: that evaluation measures the unsampled
        join and leaves the lineages as they were."""
        args = (tables, ["totalprice"], ["nname"], [], FlatAttributePricingModel(1.0))
        lineages: dict = {}
        path_graph.evaluate(
            *args, intermediate_hook=ResamplingPolicy(threshold=4, rate=0.5), lineages=lineages
        )
        assert list(lineages) == [path_graph.signature()]
        unsampled = path_graph.evaluate(*args, lineages=lineages)
        assert unsampled == path_graph.evaluate(*args)
        assert unsampled.join_rows == 40
        assert list(lineages) == [path_graph.signature()]
        untouched: dict = {}
        path_graph.evaluate(*args, lineages=untouched)
        assert untouched == {}


class TestPruneMemos:
    """The one rule that decides which memo entries outlive a one-step write."""

    ORDERS_CUSTOMERS = TargetGraph(
        nodes=["orders", "customers"],
        edges=[frozenset({"custkey"})],
        projections={
            "orders": {"custkey", "totalprice"},
            "customers": {"custkey", "nationkey"},
        },
    ).signature()
    CUSTOMERS_NATIONS = TargetGraph(
        nodes=["customers", "nations"],
        edges=[frozenset({"nationkey"})],
        projections={"customers": {"nationkey", "segment"}, "nations": {"nationkey", "nname"}},
    ).signature()
    NATIONS = TargetGraph(
        nodes=["nations"], edges=[], projections={"nations": {"nationkey", "nname"}}
    ).signature()

    def kept(self, changed, fds_before=(), fds_after=(), *, caches=dict):
        """The signatures that survive a write of ``changed`` under the FD change."""
        evaluations = caches()
        for signature in (self.ORDERS_CUSTOMERS, self.CUSTOMERS_NATIONS, self.NATIONS):
            evaluations[signature] = TargetGraphEvaluation(1.0, 1.0, 1.0, 1.0)
        prune_memos([evaluations], changed, fds_before, fds_after)
        return set(evaluations.keys())

    def test_drops_the_entries_of_changed_instances(self):
        assert self.kept({"orders"}) == {self.CUSTOMERS_NATIONS, self.NATIONS}

    def test_an_added_fd_drops_untouched_graphs_whose_join_carries_it(self):
        fd = FunctionalDependency("custkey", "nationkey")
        # Only orders-customers carries both custkey and nationkey.
        assert self.kept({"shop"}, [], [fd]) == {self.CUSTOMERS_NATIONS, self.NATIONS}

    def test_a_removed_fd_counts_like_an_added_one(self):
        fd = FunctionalDependency("nname", "nationkey")
        assert self.kept({"shop"}, [fd], []) == {self.ORDERS_CUSTOMERS}

    def test_fd_order_does_not_matter(self):
        fds = [
            FunctionalDependency("nname", "nationkey"),
            FunctionalDependency("custkey", "nationkey"),
        ]
        assert len(self.kept({"shop"}, fds, list(reversed(fds)))) == 3

    def test_prunes_memos_alike(self):
        kept = self.kept({"orders"}, caches=lambda: Memo(8))
        assert kept == {self.CUSTOMERS_NATIONS, self.NATIONS}

    def test_lineages_drop_only_with_a_changed_node(self):
        """A lineage holds its nodes' join and no FD: an FD change keeps it."""
        memo = lineage_memo()
        for signature in (self.ORDERS_CUSTOMERS, self.CUSTOMERS_NATIONS, self.NATIONS):
            lineage = JoinLineage(1)
            lineage.joined = Table.from_rows("joined", ["k"], [(0,)])
            memo[signature] = lineage
        fd = FunctionalDependency("custkey", "nationkey")
        prune_memos([], {"nations"}, [], [fd], lineage_memo=memo)
        assert memo.keys() == [self.ORDERS_CUSTOMERS]
        assert memo.units == 1

    def test_ji_entries_drop_only_with_a_changed_endpoint(self):
        """A one-step write prunes the JI weights in the join graph, the only
        JI store (``prune_memos`` takes none): a replaced instance's weights
        are recomputed, every other weight is kept as it was."""
        orders = Table.from_rows(
            "orders", ["custkey", "amount"], [(i % 5, i) for i in range(9)]
        )
        customers = Table.from_rows(
            "customers", ["custkey", "nationkey"], [(i, i % 3) for i in range(5)]
        )
        nations = Table.from_rows(
            "nations", ["nationkey", "nname"], [(i, f"n{i}") for i in range(3)]
        )
        graph = JoinGraph([orders, customers, nations])
        before = graph.ji_weights()
        kept = ("customers", "nations", frozenset({"nationkey"}))
        replaced = ("customers", "orders", frozenset({"custkey"}))
        assert kept in before and replaced in before
        computed = graph.ji_computations
        graph.add_instance(Table.from_rows("orders", ["custkey", "amount"], [(0, 1), (9, 2)]))
        after = graph.ji_weights()
        assert after[kept] == before[kept]
        assert after[replaced] != before[replaced]
        assert graph.ji_computations == computed + 1

    def test_every_column_of_the_join_counts_as_carried(self):
        """An FD on any two columns of the actual join, renamed ones included,
        drops the entry; an FD naming another instance's column keeps it."""
        left = Table.from_rows("left", ["k", "x"], [(i % 3, i) for i in range(6)])
        right = Table.from_rows("right", ["k", "x", "y"], [(i, -i, i % 2) for i in range(3)])
        graph = TargetGraph(
            nodes=["left", "right"],
            edges=[frozenset({"k"})],
            projections={"left": {"k", "x"}, "right": {"k", "x", "y"}},
        )

        def survives(fd: FunctionalDependency) -> bool:
            cache = {graph.signature(): None}
            prune_memos([cache], {"shop"}, [], [fd])
            return bool(cache)

        names = graph.joined_table({"left": left, "right": right}).schema.names
        assert "right.x" in names
        for lhs in names:
            for rhs in names:
                if lhs != rhs:
                    assert not survives(FunctionalDependency(lhs, rhs))
        assert survives(FunctionalDependency("shop.x", "y"))


class TestEnumerateCoveringSets:
    def test_example_4_1_style_enumeration(self):
        covering = enumerate_covering_sets(
            {"A": ["v1", "v4"], "B": ["v1", "v5"], "C": ["v5", "v6"]}
        )
        assert frozenset({"v1", "v5"}) in covering
        assert all(isinstance(s, frozenset) for s in covering)
        # all sets must cover each attribute through at least one chosen instance
        assert len(covering) == len(set(covering))

    def test_missing_attribute_raises(self):
        with pytest.raises(SearchError):
            enumerate_covering_sets({"A": []})

    def test_max_sets_cap(self):
        covering = enumerate_covering_sets(
            {"A": [f"a{i}" for i in range(20)], "B": [f"b{i}" for i in range(20)]},
            max_sets=10,
        )
        assert len(covering) == 10
