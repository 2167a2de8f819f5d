"""Incremental join-graph refresh: recompute only edges touching changed instances.

The contract: JI weights are pure functions of the endpoint samples, so a
rebuild seeded with ``reuse_cache_from`` recomputes exactly the edges whose
endpoint samples changed (asserted through the ``edge_recomputes`` /
``ji_computations`` counters) and produces weights identical to a
from-scratch build.  AFDs follow the same identity rule: a refresh mines only
the instances whose tables changed (the ``afd_discoveries`` count) and leaves
``DANCE.fds`` identical to a fresh middleware's list.
"""

from __future__ import annotations

import pytest

from repro.core import dance as dance_module
from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.graph.join_graph import JoinGraph
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.pricing.models import EntropyPricingModel
from repro.quality.fd import FunctionalDependency
from repro.relational.table import Table
from repro.workloads.tpch import tpch_workload


def triangle_tables() -> list[Table]:
    """Three instances forming a join triangle (every pair shares a key)."""
    return [
        Table.from_rows("alpha", ["k1", "k2", "a"], [(i % 4, i % 3, i) for i in range(24)]),
        Table.from_rows("beta", ["k1", "k3", "b"], [(i % 4, i % 5, i * 2) for i in range(20)]),
        Table.from_rows("gamma", ["k2", "k3", "c"], [(i % 3, i % 5, i * 3) for i in range(15)]),
    ]


def edges_touching(graph: JoinGraph, name: str) -> list:
    return [edge for edge in graph.edges() if name in (edge.left, edge.right)]


def weight_maps(graph: JoinGraph) -> dict[tuple[str, str], dict]:
    return {
        (edge.left, edge.right): dict(edge.weights) for edge in graph.edges()
    }


class TestCounters:
    def test_fresh_build_recomputes_every_edge(self):
        graph = JoinGraph(triangle_tables())
        assert graph.edge_recomputes == len(graph.edges()) == 3
        assert graph.ji_computations == len(graph._ji_cache)

    def test_cached_edge_weight_does_not_count(self):
        graph = JoinGraph(triangle_tables())
        computed = graph.ji_computations
        graph.edge_weight("alpha", "beta", ["k1"])
        assert graph.ji_computations == computed

    def test_describe_exposes_counters(self):
        description = JoinGraph(triangle_tables()).describe()
        assert description["edge_recomputes"] == 3
        assert description["ji_computations"] >= 3


class TestReuseCacheFrom:
    def test_unchanged_samples_recompute_nothing(self):
        tables = triangle_tables()
        prior = JoinGraph(tables)
        rebuilt = JoinGraph(tables, reuse_cache_from=prior)
        assert rebuilt.edge_recomputes == 0
        assert rebuilt.ji_computations == 0
        assert weight_maps(rebuilt) == weight_maps(prior)

    def test_one_replaced_sample_recomputes_only_its_edges(self):
        tables = triangle_tables()
        prior = JoinGraph(tables)
        replacement = Table.from_rows(
            "beta", ["k1", "k3", "b"], [(i % 2, i % 5, i) for i in range(30)]
        )
        rebuilt = JoinGraph(
            [tables[0], replacement, tables[2]], reuse_cache_from=prior
        )
        assert rebuilt.edge_recomputes == len(edges_touching(rebuilt, "beta")) == 2
        # The untouched edge keeps the identical weights without recomputation.
        untouched = rebuilt.edge("alpha", "gamma")
        assert dict(untouched.weights) == dict(prior.edge("alpha", "gamma").weights)

    def test_reused_weights_match_a_full_rebuild(self):
        tables = triangle_tables()
        prior = JoinGraph(tables)
        replacement = Table.from_rows(
            "beta", ["k1", "k3", "b"], [(i % 2, i % 5, i) for i in range(30)]
        )
        new_tables = [tables[0], replacement, tables[2]]
        incremental = JoinGraph(new_tables, reuse_cache_from=prior)
        from_scratch = JoinGraph(new_tables)
        assert weight_maps(incremental) == weight_maps(from_scratch)
        assert from_scratch.edge_recomputes == 3

    def test_content_equal_but_distinct_objects_are_recomputed(self):
        """The identity check is conservative: equal copies do not reuse."""
        tables = triangle_tables()
        prior = JoinGraph(tables)
        copies = [
            Table.from_rows(t.name, t.schema, list(t.iter_rows())) for t in tables
        ]
        rebuilt = JoinGraph(copies, reuse_cache_from=prior)
        assert rebuilt.edge_recomputes == 3
        assert weight_maps(rebuilt) == weight_maps(prior)


@pytest.fixture
def mined(monkeypatch) -> list[str]:
    """Names of the tables DANCE mines AFDs on, in call order."""
    names: list[str] = []
    discover = dance_module.discover_afds

    def recording(table, **options):
        names.append(table.name)
        return discover(table, **options)

    monkeypatch.setattr(dance_module, "discover_afds", recording)
    return names


def triangle_marketplace() -> Marketplace:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for table in triangle_tables():
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))
    return marketplace


class TestDanceIncrementalRefresh:
    def build_dance(self, **options) -> DANCE:
        dance = DANCE(triangle_marketplace(), DanceConfig(sampling_rate=1.0), **options)
        dance.build_offline()
        return dance

    def test_adding_a_source_is_incremental(self):
        dance = self.build_dance()
        graph = dance.join_graph
        version = dance.graph_version
        source = Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)])
        summary = dance.register_source_tables([source])
        assert summary["mode"] == "incremental"
        assert summary["added"] == ["mine"] and summary["replaced"] == []
        assert dance.join_graph is graph
        assert dance.graph_version == version + 1
        assert summary["edge_recomputes"] == len(edges_touching(graph, "mine"))

    def test_replacing_a_source_rebuilds_only_its_edges(self):
        dance = self.build_dance()
        source = Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)])
        dance.register_source_tables([source])
        replacement = Table.from_rows(
            "mine", ["k1", "mine_x"], [(i % 2, i * 7) for i in range(12)]
        )
        summary = dance.register_source_tables([replacement])
        assert summary["mode"] == "rebuild"
        assert summary["replaced"] == ["mine"]
        rebuilt = dance.join_graph
        assert summary["edge_recomputes"] == len(edges_touching(rebuilt, "mine"))

    def test_rebuild_weights_match_from_scratch(self):
        dance = self.build_dance()
        source = Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)])
        dance.register_source_tables([source])
        replacement = Table.from_rows(
            "mine", ["k1", "mine_x"], [(i % 2, i * 7) for i in range(12)]
        )
        dance.register_source_tables([replacement])
        graph = dance.join_graph
        scratch = JoinGraph(
            {name: graph.sample(name) for name in graph.instance_names},
            pricing=graph.pricing,
            source_instances=tuple(graph.source_instances),
        )
        assert weight_maps(graph) == weight_maps(scratch)

    def test_refinement_rebuild_reuses_source_source_edges(self):
        """Re-buying samples changes hosted tables only; source pairs reuse."""
        dance = self.build_dance()
        sources = [
            Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)]),
            Table.from_rows("yours", ["k1", "yours_y"], [(i % 4, -i) for i in range(10)]),
        ]
        dance.register_source_tables(sources)
        total_edges = len(dance.join_graph.edges())
        source_pair_edges = [
            edge
            for edge in dance.join_graph.edges()
            if {edge.left, edge.right} <= {"mine", "yours"}
        ]
        dance.build_offline(sampling_rate=1.0)
        rebuilt = dance.join_graph
        assert len(rebuilt.edges()) == total_edges
        assert rebuilt.edge_recomputes == total_edges - len(source_pair_edges)

    def test_deferred_registration_before_offline(self):
        dance = DANCE(triangle_marketplace(), DanceConfig(sampling_rate=1.0))
        summary = dance.register_source_tables(
            [Table.from_rows("mine", ["k1", "x"], [(1, 2)])]
        )
        assert summary["mode"] == "deferred"
        assert summary["afd_discoveries"] == 0
        dance.build_offline()
        assert "mine" in dance.join_graph.instance_names

    # AFDs: a refresh mines only instances whose table object changed.
    def test_adding_a_source_mines_only_it(self, mined):
        dance = self.build_dance()
        mined.clear()
        source = Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)])
        summary = dance.register_source_tables([source])
        assert summary["afd_discoveries"] == 1
        assert mined == ["mine"]

    def test_replacing_a_source_mines_only_it(self, mined):
        dance = self.build_dance()
        dance.register_source_tables(
            [Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)])]
        )
        mined.clear()
        replacement = Table.from_rows(
            "mine", ["k1", "mine_x"], [(i % 2, i * 7) for i in range(12)]
        )
        summary = dance.register_source_tables([replacement])
        assert summary["mode"] == "rebuild"
        assert summary["afd_discoveries"] == 1
        assert mined == ["mine"]

    def test_reregistering_the_same_object_mines_nothing(self, mined):
        dance = self.build_dance()
        source = Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)])
        dance.register_source_tables([source])
        mined.clear()
        summary = dance.register_source_tables([source])
        assert summary["mode"] == "noop"
        assert summary["afd_discoveries"] == 0
        assert mined == []

    def test_refinement_round_mines_hosted_samples_only(self, mined):
        dance = self.build_dance()
        dance.register_source_tables(
            [
                Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)]),
                Table.from_rows("yours", ["k1", "yours_y"], [(i % 4, -i) for i in range(10)]),
            ]
        )
        mined.clear()
        dance.build_offline(sampling_rate=1.0)
        assert mined == ["alpha", "beta", "gamma"]

    def test_known_fds_instance_is_never_mined(self, mined):
        known = [FunctionalDependency("a", "k1")]
        dance = self.build_dance(known_fds={"alpha": known})
        replacement = Table.from_rows(
            "alpha", ["k1", "k2", "a"], [(i % 2, i % 3, i) for i in range(12)]
        )
        summary = dance.register_source_tables([replacement])
        dance.build_offline(sampling_rate=1.0)
        assert summary["afd_discoveries"] == 0
        assert "alpha" not in mined
        assert dance.fds[: len(known)] == known

    def test_instance_leaving_the_graph_drops_its_discovery(self):
        marketplace = triangle_marketplace()
        dance = DANCE(marketplace, DanceConfig(sampling_rate=1.0))
        dance.build_offline()
        marketplace.remove("gamma")
        dance.build_offline()
        assert "gamma" not in dance.join_graph.instance_names
        # the per-instance entry would keep the departed sample alive
        assert list(dance._discovered) == ["alpha", "beta"]

    def test_rebuilt_fds_equal_a_fresh_middlewares(self):
        dance = self.build_dance()
        dance.register_source_tables(
            [Table.from_rows("mine", ["k1", "mine_x"], [(i % 4, i) for i in range(10)])]
        )
        replacement = Table.from_rows(
            "mine", ["k1", "mine_x"], [(i % 4, i % 3) for i in range(12)]
        )
        dance.register_source_tables([replacement])
        fresh = DANCE(triangle_marketplace(), DanceConfig(sampling_rate=1.0))
        fresh.register_source_tables([replacement])
        fresh.build_offline()
        assert dance.fds == fresh.fds


class TestJoinInformativenessOrientation:
    """JI is not bitwise symmetric, so every weight is computed in the cache
    key's sorted orientation, whoever asks for it first."""

    def test_incremental_source_weights_equal_a_cold_graph_bit_for_bit(self):
        workload = tpch_workload(scale=0.2, seed=0)
        pricing = EntropyPricingModel()
        marketplace = Marketplace(default_pricing=pricing)
        for name in workload.tables:
            if name != "supplier":
                marketplace.host(
                    MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
                )
        dance = DANCE(marketplace, DanceConfig(sampling_rate=0.5))
        dance.build_offline()
        # "supplier" sorts after customer, nation and partsupp, its
        # neighbours; the incremental path meets each pair new-side first.
        summary = dance.register_source_tables([workload.table("supplier")])
        assert summary["mode"] == "incremental"
        graph = dance.join_graph
        cold = JoinGraph(
            {name: graph.sample(name) for name in graph.instance_names},
            pricing=graph.pricing,
            source_instances=tuple(graph.source_instances),
        )

        def hex_weights(join_graph: JoinGraph) -> dict:
            return {
                pair: {attrs: weight.hex() for attrs, weight in weights.items()}
                for pair, weights in weight_maps(join_graph).items()
            }

        assert any("supplier" in pair for pair in weight_maps(graph))
        assert hex_weights(graph) == hex_weights(cold)
