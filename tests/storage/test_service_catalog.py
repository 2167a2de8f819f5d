"""Service-level catalog persistence: warm restores, checkpoints, degradation.

A service configured with ``ServiceConfig(catalog_path=...)`` adopts the
catalog's offline state at startup (zero JI recomputes on the warm build, so
the join graph carries every JI weight) and checkpoints the refreshed state
on ``register_source_tables``.  No session memo is persisted, and the
session blob an older catalog carries is ignored.  Restoring is an
optimisation, never a correctness dependency: mismatched or unusable
catalogs degrade to a cold session with a warning.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.marketplace.shopper import AcquisitionRequest
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService

from tests.storage.test_marketplace_persist import small_marketplace

REQUEST = AcquisitionRequest(
    source_attributes=["measure"], target_attributes=["label"], budget=1e9
)

SOURCE = Table.from_rows(
    "mine", ["bad_key", "mine_x"], [(i % 3, i) for i in range(10)]
)


def config(catalog_path=None, **service_kwargs) -> DanceConfig:
    return DanceConfig(
        sampling_rate=1.0,
        mcmc=MCMCConfig(iterations=40, seed=0),
        service=ServiceConfig(
            catalog_path=None if catalog_path is None else str(catalog_path),
            **service_kwargs,
        ),
    )


class TestWarmServiceRestart:
    def test_restart_restores_offline_state_and_caches(self, tmp_path):
        catalog = tmp_path / "cat"
        with AcquisitionService(small_marketplace(), config(catalog)) as service:
            expected = service.acquire(REQUEST)
            service.persist()
        assert catalog.exists()

        # A brand-new process would rebuild the marketplace from scratch; the
        # catalog_path makes the offline state, JI weights included, visible
        # again.  Answers are not persisted, so the first request searches.
        with AcquisitionService(small_marketplace(), config(catalog)) as warm:
            assert warm.join_graph.ji_computations == 0
            assert warm.join_graph.edge_recomputes == 0
            served = warm.acquire(REQUEST)
            memo = warm.metrics()["answer_memo"]
        assert served.estimated_correlation == expected.estimated_correlation
        assert served.sql() == expected.sql()
        assert memo == {"entries": 1, "hits": 0, "misses": 1}

    def test_a_session_blob_carrying_ji_restores_and_serves_the_same_answers(
        self, tmp_path
    ):
        """An older catalog's session blob carries the Step-1 memo under
        ``"step1"`` and the session's JI cache under ``"ji"``.  The service
        ignores it without a warning: the weights are the join graph's, so
        even wrong ones change no answer, and no memo is restored.  The next
        checkpoint drops the blob."""
        from repro import storage
        from repro.storage import NS_SESSION
        from repro.storage import serialize

        catalog = tmp_path / "cat"
        with AcquisitionService(small_marketplace(), config(catalog)) as service:
            expected = service.acquire(REQUEST)
            weights = service.join_graph.ji_weights()
            service.persist()
        with storage.open_backend(catalog) as backend:
            assert backend.get(NS_SESSION, "caches") is None
            state = {
                "fingerprint": "0" * 32,
                "step1": {(("facts",), float("inf"), 4, 0, 0): ()},
                "ji": {key: weight + 1.0 for key, weight in weights.items()},
            }
            backend.put(NS_SESSION, "caches", serialize.dumps(state))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with AcquisitionService(small_marketplace(), config(catalog)) as warm:
                served = warm.acquire(REQUEST)
                memo = warm.metrics()["answer_memo"]
                warm.register_source_tables([SOURCE])
        assert served.estimated_join_informativeness == expected.estimated_join_informativeness
        assert served.estimated_correlation == expected.estimated_correlation
        assert served.sql() == expected.sql()
        assert memo == {"entries": 1, "hits": 0, "misses": 1}
        with storage.open_backend(catalog) as backend:
            assert backend.get(NS_SESSION, "caches") is None

    def test_restart_from_opened_marketplace(self, tmp_path):
        from repro.marketplace.market import Marketplace

        catalog = tmp_path / "cat"
        with AcquisitionService(small_marketplace(), config(catalog)) as service:
            expected = service.acquire(REQUEST)
            service.persist()
        with AcquisitionService(Marketplace.open(catalog), config(catalog)) as warm:
            assert warm.join_graph.ji_computations == 0
            served = warm.acquire(REQUEST)
        assert served.estimated_correlation == expected.estimated_correlation

    def test_missing_catalog_is_a_cold_start(self, tmp_path):
        with AcquisitionService(
            small_marketplace(), config(tmp_path / "absent")
        ) as service:
            assert service.join_graph.ji_computations > 0
            service.acquire(REQUEST)

    def test_catalog_for_different_data_serves_cold(self, tmp_path):
        catalog = tmp_path / "cat"
        with AcquisitionService(small_marketplace(), config(catalog)) as service:
            service.persist()

        market = small_marketplace()
        market.remove("extra")
        market.host(
            Table.from_rows("extra", ["bad_key", "bonus"], [(1, 2.0), (2, 3.0)])
        )
        with AcquisitionService(market, config(catalog)) as cold:
            assert cold.join_graph.ji_computations > 0  # fingerprints miss
            cold.acquire(REQUEST)

    def test_unreadable_catalog_degrades_with_a_warning(self, tmp_path):
        catalog = tmp_path / "cat"
        catalog.write_bytes(b"garbage, not a catalog")
        with pytest.warns(RuntimeWarning, match="catalog"):
            service = AcquisitionService(small_marketplace(), config(catalog))
        with service:
            assert service.join_graph.ji_computations > 0
            service.acquire(REQUEST)


class TestRegisterCheckpoints:
    def test_register_source_tables_checkpoints_the_catalog(self, tmp_path):
        catalog = tmp_path / "cat"
        with AcquisitionService(small_marketplace(), config(catalog)) as service:
            summary = service.register_source_tables([SOURCE])
            assert summary["checkpointed"] is True
            expected = service.acquire(REQUEST)
        assert catalog.exists()

        # Restarting with the same source tables adopts the checkpointed
        # post-delta graph wholesale: zero JI computations again.
        with AcquisitionService(
            small_marketplace(), config(catalog), source_tables=[SOURCE]
        ) as warm:
            assert warm.join_graph.ji_computations == 0
            served = warm.acquire(REQUEST)
        assert served.estimated_correlation == expected.estimated_correlation
        assert served.sql() == expected.sql()

    def test_no_catalog_means_no_checkpoint_key(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            summary = service.register_source_tables([SOURCE])
        assert "checkpointed" not in summary


class TestExplicitPersist:
    def test_persist_to_explicit_path(self, tmp_path):
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(REQUEST)
            service.persist(tmp_path / "cat")
        assert (tmp_path / "cat").exists()
        with AcquisitionService(
            small_marketplace(), config(tmp_path / "cat")
        ) as warm:
            assert warm.join_graph.ji_computations == 0

    def test_persist_without_a_target_checkpoints_in_memory(self):
        from repro.storage import NS_OFFLINE, NS_SESSION, InMemoryBackend

        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(REQUEST)
            backend = service.persist()
        assert isinstance(backend, InMemoryBackend)
        assert backend.get(NS_OFFLINE, "state") is not None
        assert backend.get(NS_SESSION, "caches") is None
