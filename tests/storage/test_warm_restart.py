"""Warm restarts: persisted offline state makes ``build_offline`` free.

``DANCE.persist`` stores the JI edge weights, each mined instance's FD list,
and per-instance content fingerprints; a process that reopens the catalog and
rebuilds the offline phase must adopt every weight (zero JI computations, zero
edge recomputes) and every FD list (zero AFD discoveries), and serve
acquisitions bit-identical to the cold run.  Adoption is fingerprint-guarded:
any change to an instance's data invalidates exactly the entries that touch
it, never correctness.
"""

from __future__ import annotations

from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.storage import NS_TABLES
from repro.storage import serialize as storage_serialize

from tests.storage.test_marketplace_persist import small_marketplace

REQUEST = AcquisitionRequest(
    source_attributes=["measure"], target_attributes=["label"], budget=1e9
)


def config() -> DanceConfig:
    return DanceConfig(sampling_rate=1.0, mcmc=MCMCConfig(iterations=40, seed=0))


def cold_dance() -> DANCE:
    dance = DANCE(small_marketplace(), config())
    dance.build_offline()
    return dance


def weight_map(graph) -> dict:
    return {(edge.left, edge.right): dict(edge.weights) for edge in graph.edges()}


class TestZeroRecomputeRestart:
    def test_warm_build_adopts_every_edge(self, tmp_path):
        cold = cold_dance()
        cold.persist(tmp_path / "cat")

        warm = DANCE(Marketplace.open(tmp_path / "cat"), config())
        warm.build_offline()
        assert warm.join_graph.ji_computations == 0
        assert warm.join_graph.edge_recomputes == 0
        assert weight_map(warm.join_graph) == weight_map(cold.join_graph)

    def test_fds_are_adopted_not_rediscovered(self, tmp_path):
        cold = cold_dance()
        cold.persist(tmp_path / "cat")
        warm = DANCE(Marketplace.open(tmp_path / "cat"), config())
        warm.build_offline()
        assert warm.fds == cold.fds
        assert warm.afd_discoveries == 0

    def test_replacement_after_restart_matches_a_cold_build(self, tmp_path):
        # The warm build seeds each unchanged instance's FD list from the
        # catalog, so this write mines only the replaced table.
        cold_dance().persist(tmp_path / "cat")
        replacement = Table.from_rows(
            "extra", ["bad_key", "bonus"], [(i % 3, float(i % 4)) for i in range(12)]
        )
        warm = DANCE(Marketplace.open(tmp_path / "cat"), config())
        warm.build_offline()
        assert warm.afd_discoveries == 0
        summary = warm.register_source_tables([replacement])
        assert summary["afd_discoveries"] == 1

        cold = DANCE(small_marketplace(), config())
        cold.register_source_tables([replacement])
        cold.build_offline()
        assert warm.fds == cold.fds

    def test_changed_afd_parameters_mine_every_table(self, tmp_path):
        cold_dance().persist(tmp_path / "cat")
        stricter = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=40, seed=0),
            afd_max_violation=0.0,
        )
        warm = DANCE(Marketplace.open(tmp_path / "cat"), stricter)
        warm.build_offline()
        fresh = DANCE(small_marketplace(), stricter)
        fresh.build_offline()
        assert warm.afd_discoveries == fresh.afd_discoveries > 0
        assert warm.fds == fresh.fds

    def test_acquisitions_are_bit_identical(self, tmp_path):
        cold = cold_dance()
        expected = cold.acquire(REQUEST)
        cold.persist(tmp_path / "cat")

        warm = DANCE(Marketplace.open(tmp_path / "cat"), config())
        warm.build_offline()
        served = warm.acquire(REQUEST)
        assert served.estimated_correlation == expected.estimated_correlation
        assert served.sql() == expected.sql()


class TestFingerprintGuard:
    def test_changed_instance_invalidates_only_its_edges(self, tmp_path):
        cold = cold_dance()
        total_edges = len(cold.join_graph.edges())
        touching_extra = sum(
            1 for edge in cold.join_graph.edges() if "extra" in (edge.left, edge.right)
        )
        cold.persist(tmp_path / "cat")

        # Overwrite one instance's payload behind the catalog's back: the
        # stored fingerprint no longer matches, so its JI entries must not
        # be adopted — but everything else still is.
        market = Marketplace.open(tmp_path / "cat")
        tampered = Table.from_rows(
            "extra", ["bad_key", "bonus"], [(i % 5, float(i * 3)) for i in range(9)]
        )
        market.storage.put(
            NS_TABLES, "extra", storage_serialize.table_to_blob(tampered)
        )
        market.storage.delete("encodings", "extra")
        market.dataset("extra")._entry["num_rows"] = len(tampered)

        warm = DANCE(market, config())
        warm.build_offline()
        assert 0 < warm.join_graph.edge_recomputes <= touching_extra
        assert len(warm.join_graph.edges()) == total_edges

    def test_offline_state_for_other_data_warms_nothing(self, tmp_path):
        cold_dance().persist(tmp_path / "cat")
        # A scratch-built marketplace with *different* tables attached to the
        # same catalog: every fingerprint misses, the build is simply cold.
        market = small_marketplace()
        market.remove("extra")
        market.host(
            Table.from_rows("extra", ["bad_key", "bonus"], [(1, 2.0), (2, 3.0)])
        )
        market.attach_storage(path=tmp_path / "cat")
        dance = DANCE(market, config())
        dance.build_offline()
        assert dance.join_graph.ji_computations > 0
