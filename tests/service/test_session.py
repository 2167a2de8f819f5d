"""Tests for the long-lived acquisition service (``repro.service``).

The contracts under test: a served request is bit-identical to a one-shot
``DANCE.acquire`` with the same seed; warm repeats are served from the
answer memo, and requests that differ only in their constraints from the
evaluation memo; session state is invalidated exactly when the join graph
changes; and failures stay per-request.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.core.dance import DANCE
from repro.exceptions import BrokenChainPoolError, InfeasibleAcquisitionError, ReproError
from repro.graph import target as target_module
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.quality import measure as measure_module
from repro.relational.joins import RowVectorJoin
from repro.relational.table import ColumnEncoding, Table
from repro.sampling.resampling import ResamplingPolicy
from repro.search.chains import chain_seed
from repro.search.mcmc import MCMCConfig
from repro.search.shm import live_segments
from repro.service import AcquisitionService, request_seed
from repro.storage.serialize import encodings_state, encodings_to_blob
from repro.workloads.queries import queries_for
from repro.workloads.tpce import tpce_workload


def small_marketplace() -> Marketplace:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    facts = Table.from_rows(
        "facts",
        ["good_key", "bad_key", "measure"],
        [(i % 10, i % 3, float(i % 8) * 10 + i % 3) for i in range(64)],
    )
    dims = Table.from_rows(
        "dims",
        ["good_key", "bad_key", "label"],
        [(i, i % 2, f"lbl{i}") for i in range(8)],
    )
    extra = Table.from_rows(
        "extra",
        ["bad_key", "bonus"],
        [(i % 3, float(i)) for i in range(12)],
    )
    for table in (facts, dims, extra):
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))
    return marketplace


def config(**service_kwargs) -> DanceConfig:
    return DanceConfig(
        sampling_rate=1.0,
        mcmc=MCMCConfig(iterations=40, seed=0),
        service=ServiceConfig(**service_kwargs),
    )


REQUEST = AcquisitionRequest(
    source_attributes=["measure"], target_attributes=["label"], budget=1e9
)


class TestRequestSeed:
    def test_request_zero_keeps_base_seed(self):
        assert request_seed(7, 0) == 7

    def test_same_recipe_as_chain_seeds(self):
        assert request_seed(7, 3) == chain_seed(7, 3)

    def test_distinct_across_indices(self):
        seeds = [request_seed(0, index) for index in range(32)]
        assert len(set(seeds)) == len(seeds)


class TestSingleRequest:
    def test_matches_one_shot_dance_with_same_seed(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            served = service.acquire(REQUEST)
        dance = DANCE(small_marketplace(), config())
        dance.build_offline()
        one_shot = dance.acquire(REQUEST)
        assert served.estimated_correlation == one_shot.estimated_correlation
        assert served.sql() == one_shot.sql()

    def test_warm_repeat_hits_the_shared_caches(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            cold = service.acquire(REQUEST)
            assert cold.mcmc_cache_hit_rate < 1.0
            warm = service.acquire(REQUEST)
            assert warm.summary() == cold.summary()
            assert service.metrics()["answer_memo"]["hits"] == 1
            # Another budget is another key, but its walks evaluate only
            # graphs the evaluation memo holds.
            other = service.acquire(REQUEST.with_budget(2e9))
            assert other.mcmc_cache_hit_rate == 1.0
            assert other.estimated_correlation == cold.estimated_correlation
            assert other.sql() == cold.sql()
            assert service.metrics()["answer_memo"]["misses"] == 2

    def test_seed_override_is_deterministic(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            other = service.acquire(REQUEST, seed=request_seed(0, 5))
            again = service.acquire(REQUEST, seed=request_seed(0, 5))
        assert other.estimated_correlation == again.estimated_correlation
        assert other.sql() == again.sql()


class TestBatch:
    def test_batch_results_in_request_order_with_derived_seeds(self):
        requests = [REQUEST, REQUEST.with_budget(1e8), REQUEST]
        with AcquisitionService(small_marketplace(), config()) as service:
            batch = service.acquire_batch(requests)
        assert [item.index for item in batch] == [0, 1, 2]
        assert [item.seed for item in batch] == [request_seed(0, i) for i in range(3)]
        assert batch.ok
        assert all(item.elapsed_seconds >= 0.0 for item in batch)

    def test_empty_batch(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            batch = service.acquire_batch([])
        assert len(batch) == 0
        assert batch.ok

    def test_failures_stay_per_request(self):
        bad = AcquisitionRequest(
            source_attributes=["measure"],
            target_attributes=["no_such_attribute"],
            budget=1e9,
        )
        with AcquisitionService(small_marketplace(), config()) as service:
            batch = service.acquire_batch([REQUEST, bad, REQUEST])
        assert batch[0].ok and batch[2].ok
        assert not batch[1].ok
        assert isinstance(batch[1].error, InfeasibleAcquisitionError)
        assert not batch.ok
        assert [item.index for item in batch.errors()] == [1]
        with pytest.raises(InfeasibleAcquisitionError):
            batch[1].require_result()

    def test_explicit_seeds_override_derivation(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            batch = service.acquire_batch([REQUEST, REQUEST], seeds=[11, 11])
            assert (
                batch[0].result.estimated_correlation
                == batch[1].result.estimated_correlation
            )
            with pytest.raises(ReproError):
                service.acquire_batch([REQUEST], seeds=[1, 2])

    def test_summary_is_json_friendly(self):
        import json

        with AcquisitionService(small_marketplace(), config()) as service:
            batch = service.acquire_batch([REQUEST])
        payload = json.dumps(batch.summary(), default=str)
        assert "estimated_correlation" in payload


class TestSessionLifecycle:
    def test_refinement_is_disabled_for_served_requests(self):
        """An infeasible request must error, not mutate the shared session."""
        impossible = AcquisitionRequest(
            source_attributes=["measure"], target_attributes=["label"], budget=0.0
        )
        marketplace = small_marketplace()
        with AcquisitionService(marketplace, config()) as service:
            cost_before = service.dance.sample_cost
            batch = service.acquire_batch([impossible])
            assert not batch[0].ok
            assert service.dance.sample_cost == cost_before

    def test_register_source_tables_refreshes_incrementally(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(REQUEST)
            graph = service.join_graph
            source = Table.from_rows(
                "myshop", ["bad_key", "score"], [(i % 3, i) for i in range(9)]
            )
            summary = service.register_source_tables([source])
            assert summary["mode"] == "incremental"
            assert service.join_graph is graph  # updated in place, not rebuilt
            touching = [
                edge
                for edge in service.join_graph.edges()
                if "myshop" in (edge.left, edge.right)
            ]
            assert summary["edge_recomputes"] == len(touching)
            # The new source participates in subsequent requests.
            widened = AcquisitionRequest(
                source_attributes=["score"], target_attributes=["label"], budget=1e9
            )
            assert service.acquire(widened).estimated_correlation is not None

    def test_graph_change_resets_session_caches(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(REQUEST)
            assert service.describe()["evaluation_cache_entries"] > 0
            service.rebuild_offline(sampling_rate=1.0)
            description = service.describe()
            assert description["evaluation_cache_entries"] == 0
            assert description["cache_resets"] == 1
            # And the service still serves correctly after the reset.
            assert service.acquire(REQUEST).mcmc_cache_hit_rate < 1.0

    def test_register_keeps_the_memo_entries_the_write_cannot_change(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(REQUEST)
            ((_, namespace),) = service._evaluation_caches.items()
            before = set(namespace.keys())
            touching = {signature for signature in before if "extra" in signature[0]}
            assert touching and touching != before
            ji_before = service.join_graph.ji_weights()
            extra = Table.from_rows(
                "extra", ["bad_key", "bonus"], [(i % 3, float(i) + 0.5) for i in range(12)]
            )
            summary = service.register_source_tables([extra])
            assert summary["mode"] == "rebuild"
            assert set(namespace.keys()) == before - touching
            assert (summary["memo_kept"], summary["memo_dropped"]) == (
                len(before - touching),
                len(touching),
            )
            # The join graph, the one JI store, keeps every weight between
            # unchanged instances.
            ji_after = service.join_graph.ji_weights()
            assert {key: ji_after[key] for key in ji_before if "extra" not in key[:2]} == {
                key: weight for key, weight in ji_before.items() if "extra" not in key[:2]
            }
            assert service.describe()["cache_resets"] == 0

    def test_close_is_idempotent_and_final(self):
        service = AcquisitionService(small_marketplace(), config())
        service.acquire(REQUEST)
        service.close()
        service.close()
        with pytest.raises(ReproError):
            service.acquire(REQUEST)
        with pytest.raises(ReproError):
            service.acquire_batch([REQUEST])

    def test_deferred_offline_phase_builds_on_first_request(self):
        service = AcquisitionService(
            small_marketplace(), config(), build_offline=False
        )
        try:
            result = service.acquire(REQUEST)
            assert result.estimated_correlation == pytest.approx(
                result.estimated_correlation
            )
        finally:
            service.close()

    def test_describe_counts_requests(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(REQUEST)
            service.acquire_batch([REQUEST, REQUEST])
            description = service.describe()
        assert description["requests_served"] == 3
        assert description["batches_served"] == 1
        assert description["errors"] == 0
        assert description["ji_cache_entries"] > 0


class TestRequireResultIsolation:
    def test_raises_fresh_exception_chained_to_original(self):
        bad = AcquisitionRequest(
            source_attributes=["measure"],
            target_attributes=["no_such_attribute"],
            budget=1e9,
        )
        with AcquisitionService(small_marketplace(), config()) as service:
            batch = service.acquire_batch([bad])
        item = batch[0]
        traceback_before = item.error.__traceback__
        raised = []
        for _ in range(2):
            with pytest.raises(InfeasibleAcquisitionError) as excinfo:
                item.require_result()
            raised.append(excinfo.value)
        # Fresh instance per call — never the stored object, whose traceback
        # two callers across threads would otherwise race on.
        assert raised[0] is not item.error
        assert raised[1] is not item.error
        assert raised[0] is not raised[1]
        assert raised[0].__cause__ is item.error
        assert str(raised[0]) == str(item.error)
        # The stored original's traceback is untouched by the re-raises.
        assert item.error.__traceback__ is traceback_before

    def test_no_result_no_error_still_repro_error(self):
        from repro.service import ServedRequest

        item = ServedRequest(index=3, request=REQUEST, seed=0)
        with pytest.raises(ReproError, match="request 3 produced no result"):
            item.require_result()


class TestInFlightGauge:
    def test_in_flight_visible_during_a_request(self):
        with AcquisitionService(small_marketplace(), config()) as service:
            seen: list[int] = []
            original = service._dance.acquire

            def spy(request, *, runtime=None):
                seen.append(service.describe()["in_flight"])
                return original(request, runtime=runtime)

            service._dance.acquire = spy
            service.acquire(REQUEST)
        assert seen == [1]
        assert service.describe()["in_flight"] == 0

    def test_in_flight_decrements_on_failure(self):
        bad = AcquisitionRequest(
            source_attributes=["measure"],
            target_attributes=["no_such_attribute"],
            budget=1e9,
        )
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire_batch([bad])
            assert service.describe()["in_flight"] == 0


class TestAnswerMemo:
    def count_searches(self, monkeypatch):
        import repro.core.dance as dance_module

        calls = []
        original = dance_module.heuristic_acquisition

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(dance_module, "heuristic_acquisition", counting)
        return calls

    def test_warm_request_skips_step1(self, monkeypatch):
        import repro.search.acquisition as acquisition_module

        step1 = []
        original = acquisition_module.minimal_weight_igraphs

        def counting(*args, **kwargs):
            step1.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(acquisition_module, "minimal_weight_igraphs", counting)
        calls = self.count_searches(monkeypatch)
        with AcquisitionService(small_marketplace(), config()) as service:
            cold = service.acquire(REQUEST)
            assert (len(calls), len(step1)) == (1, 1)
            warm = service.acquire(REQUEST)
            assert (len(calls), len(step1)) == (1, 1)  # no search ran at all
            assert warm.estimated_correlation == cold.estimated_correlation
            assert warm.sql() == cold.sql()
            memo = service.metrics()["answer_memo"]
            assert memo == {"entries": 1, "hits": 1, "misses": 1}

    def test_memo_invalidated_by_register_source_tables(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        with AcquisitionService(small_marketplace(), config()) as service:
            service.acquire(REQUEST)
            assert service.describe()["answer_memo_entries"] == 1
            source = Table.from_rows(
                "myshop", ["bad_key", "score"], [(i % 3, i) for i in range(9)]
            )
            summary = service.register_source_tables([source])
            assert summary["mode"] == "incremental"  # graph_version bumped
            assert service.describe()["answer_memo_entries"] == 0
            before_retry = len(calls)
            service.acquire(REQUEST)
            assert len(calls) == before_retry + 1  # memo was replaced: it searched
            assert service.metrics()["answer_memo"] == {"entries": 1, "hits": 0, "misses": 1}

    def test_memo_invalidated_by_rebuild_offline(self, monkeypatch):
        calls = self.count_searches(monkeypatch)
        with AcquisitionService(small_marketplace(), config()) as service:
            expected = service.acquire(REQUEST)
            assert service.describe()["answer_memo_entries"] == 1
            service.rebuild_offline(sampling_rate=1.0)
            assert service.describe()["answer_memo_entries"] == 0
            # And the service still serves identically-seeded requests, by
            # searching again.
            again = service.acquire(REQUEST)
            assert len(calls) == 2
            assert again.estimated_correlation == expected.estimated_correlation
            assert again.sql() == expected.sql()
            # The rebuild bought the samples again, and the answer says so.
            assert again.sample_cost == service.dance.sample_cost > expected.sample_cost


class TestServiceConfigValidation:
    def test_rejects_bad_batch_workers(self):
        with pytest.raises(ReproError):
            ServiceConfig(max_batch_workers=0)

    def test_rejects_bad_queue_depth(self):
        with pytest.raises(ReproError):
            ServiceConfig(max_queue_depth=0)

    def test_rejects_unknown_admission_policy(self):
        with pytest.raises(ReproError):
            ServiceConfig(admission="fifo")

    def test_service_seed_defaults_to_mcmc_seed(self):
        marketplace = small_marketplace()
        with AcquisitionService(
            marketplace, DanceConfig(sampling_rate=1.0, mcmc=MCMCConfig(seed=123))
        ) as service:
            assert service.seed == 123


class TestExecutionPlanPooling:
    """PR 8: the plan drives the session pool; shared-store pools survive
    catalog updates; a no-op refresh tears nothing down."""

    def plan_config(self, plan: str) -> DanceConfig:
        return DanceConfig(
            sampling_rate=1.0, mcmc=MCMCConfig(iterations=40, seed=0), plan=plan
        )

    def test_noop_refresh_keeps_pool_and_caches(self):
        source = Table.from_rows(
            "myshop", ["bad_key", "score"], [(i % 3, i) for i in range(9)]
        )
        with AcquisitionService(
            small_marketplace(),
            self.plan_config("executor=process,chains=2"),
            source_tables=[source],
        ) as service:
            service.acquire(REQUEST)
            pool = service._chain_pool
            assert pool is not None
            version = service.dance.graph_version
            entries = service.describe()["evaluation_cache_entries"]
            assert entries > 0
            summary = service.register_source_tables([source])
            assert summary["mode"] == "noop"
            assert summary["edge_recomputes"] == 0
            assert service.dance.graph_version == version
            assert service._chain_pool is pool
            assert service.describe()["evaluation_cache_entries"] == entries
            assert service.describe()["cache_resets"] == 0

    def test_shared_pool_survives_register_delta_with_zero_resyncs(self):
        plan = "executor=process,chains=3"
        source = Table.from_rows(
            "myshop", ["bad_key", "score"], [(i % 3, i) for i in range(9)]
        )
        outcomes = []
        for spec in ("executor=serial,chains=3", plan):
            with AcquisitionService(
                small_marketplace(), self.plan_config(spec)
            ) as service:
                first = service.acquire(REQUEST)
                pool = service._chain_pool
                summary = service.register_source_tables([source])
                assert summary["mode"] == "incremental"
                second = service.acquire(REQUEST)
                description = service.describe()
                outcomes.append((first, second))
                if spec == plan:
                    # The warm pool survived the delta: same executor object,
                    # one delta published, zero full resyncs anywhere.
                    assert service._chain_pool is pool
                    store = description["shared_store"]
                    assert store is not None
                    assert store["deltas_published"] == 1
                    assert store["rebases"] == 0
                    assert store["worker_resyncs"] == 0
        (serial_first, serial_second), (shm_first, shm_second) = outcomes
        assert shm_first.mcmc_chain_correlations == serial_first.mcmc_chain_correlations
        assert shm_second.mcmc_chain_correlations == serial_second.mcmc_chain_correlations
        assert shm_first.sql() == serial_first.sql()
        assert shm_second.sql() == serial_second.sql()

    def test_shared_store_segments_unlink_on_close(self):
        service = AcquisitionService(
            small_marketplace(), self.plan_config("executor=process,chains=2")
        )
        try:
            service.acquire(REQUEST)
            assert service.describe()["shared_store"] is not None
            assert live_segments() != []
        finally:
            service.close()
        assert live_segments() == []


def fingerprint(result) -> tuple:
    return (
        result.estimated_correlation,
        result.estimated_price,
        tuple(result.sql()),
        tuple(result.mcmc_chain_correlations),
    )


class TestWorkerDeath:
    """A chain worker killed mid-session breaks the service's process pool.

    The request that meets the broken pool fails with a typed
    ``BrokenChainPoolError`` and counts as an error; the session disposes
    the pool and unlinks its segments; the next request builds a fresh pool
    and serves the serial answer."""

    def plan_config(self, plan: str) -> DanceConfig:
        return DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=30, seed=0),
            plan=plan,
            service=ServiceConfig(max_batch_workers=1),
        )

    @staticmethod
    def kill_a_worker(service: AcquisitionService):
        """SIGKILL one worker and wait until the pool knows it is broken."""
        pool = service._chain_pool
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken
        return pool

    def test_a_dead_worker_fails_one_request_and_the_next_gets_a_fresh_pool(self):
        # A served answer is held, so every request that must meet the pool
        # comes at a seed the service has not answered.
        with AcquisitionService(
            small_marketplace(), self.plan_config("executor=serial,chains=2")
        ) as serial:
            expected = [fingerprint(serial.acquire(REQUEST, seed=seed)) for seed in range(4)]
        service = AcquisitionService(
            small_marketplace(), self.plan_config("executor=process,chains=2")
        )
        try:
            assert fingerprint(service.acquire(REQUEST, seed=0)) == expected[0]
            broken = self.kill_a_worker(service)
            with pytest.raises(BrokenChainPoolError):
                service.acquire(REQUEST, seed=1)
            described = service.describe()
            assert (described["requests_served"], described["errors"]) == (2, 1)
            assert described["chain_pool"] is None
            assert live_segments() == []

            assert fingerprint(service.acquire(REQUEST, seed=1)) == expected[1]
            assert service._chain_pool not in (None, broken)

            self.kill_a_worker(service)
            batch = service.acquire_batch([REQUEST, REQUEST], seeds=[2, 2])
            first, second = batch.items
            assert isinstance(first.error, BrokenChainPoolError)
            assert fingerprint(second.result) == expected[2]
            assert service.describe()["errors"] == 2
            assert fingerprint(service.acquire(REQUEST, seed=3)) == expected[3]
            assert fingerprint(service.acquire(REQUEST, seed=0)) == expected[0]
        finally:
            service.close()
        assert live_segments() == []


class TestServedJoinInformativeness:
    def test_served_reads_compute_no_ji(self, monkeypatch):
        """The join graph is the only JI store: reads at fresh seeds, warm
        reads, and reads after an incremental write and after a rebuild
        weigh every edge from it and compute no JI."""
        computed = []
        original = target_module.join_informativeness

        def counting(left, right, attributes):
            computed.append((left.name, right.name, tuple(attributes)))
            return original(left, right, attributes)

        monkeypatch.setattr(target_module, "join_informativeness", counting)
        requests = [REQUEST, AcquisitionRequest(["bonus"], ["label"], budget=1e9)]

        def read(service, seeds) -> None:
            for seed in seeds:
                for request in requests:
                    service.acquire(request, seed=seed)

        with AcquisitionService(small_marketplace(), config()) as service:
            read(service, range(3))
            read(service, range(3))
            mine = Table.from_rows(
                "mine", ["good_key", "note"], [(i, i % 2) for i in range(6)]
            )
            assert service.register_source_tables([mine])["mode"] == "incremental"
            read(service, range(2, 5))
            service.rebuild_offline(sampling_rate=0.8)
            read(service, range(4, 7))
            assert service.describe()["requests_served"] == 24
        assert computed == []

    def test_served_ji_does_not_depend_on_request_order(self):
        """Walks read the join graph's JI weights, each computed in the key's
        sorted orientation, so no request's order changes a served JI."""
        workload = tpce_workload(scale=0.5, seed=0)
        pricing = EntropyPricingModel()
        queries = queries_for(workload)
        requests = [(name, seed) for name in sorted(queries) for seed in (0, 1)]

        def served(order) -> dict:
            marketplace = Marketplace(default_pricing=pricing)
            for name in workload.tables:
                marketplace.host(
                    MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
                )
            settings = DanceConfig(
                sampling_rate=0.5,
                mcmc=MCMCConfig(seed=0),
                service=ServiceConfig(max_batch_workers=1),
            )
            answers = {}
            with AcquisitionService(marketplace, settings) as service:
                for name, seed in order:
                    query = queries[name]
                    request = AcquisitionRequest(
                        list(query.source_attributes),
                        list(query.target_attributes),
                        budget=1000.0,
                    )
                    result = service.acquire(request, seed=seed)
                    answers[name, seed] = result.estimated_join_informativeness.hex()
            return answers

        assert served(requests) == served(requests[::-1])


class TestServedJoinIndexes:
    def test_a_session_builds_each_sample_index_once(self, small_tpch, monkeypatch):
        """Every join a session runs probes the row index kept on a key
        encoding its join graph's build cached on a sample, so reads of
        three queries at fresh seeds, warm repeats included, get one index
        object per such encoding, and build no other."""
        probed: dict[int, tuple] = {}
        original = ColumnEncoding.row_index

        def recording(encoding):
            index = original(encoding)
            probed.setdefault(id(encoding), (encoding, []))[1].append(index)
            return index

        monkeypatch.setattr(ColumnEncoding, "row_index", recording)
        pricing = EntropyPricingModel()
        marketplace = Marketplace(default_pricing=pricing)
        for name in small_tpch.tables:
            marketplace.host(
                MarketplaceDataset(table=small_tpch.dirty_or_clean(name), pricing=pricing)
            )
        queries = queries_for(small_tpch)
        settings = DanceConfig(sampling_rate=0.5, mcmc=MCMCConfig(iterations=60, seed=0))
        with AcquisitionService(marketplace, settings) as service:
            for seed in (0, 1, 2, 0):
                for name in ("Q1", "Q2", "Q3"):
                    query = queries[name]
                    request = AcquisitionRequest(
                        list(query.source_attributes),
                        list(query.target_attributes),
                        budget=1000.0,
                    )
                    service.acquire(request, seed=seed)
            graph = service.dance.join_graph
            cached = {
                id(encoding)
                for name in graph.instance_names
                for encoding in graph.sample(name)._encodings.values()
            }
        assert len(probed) >= 2
        assert sum(len(indexes) for _, indexes in probed.values()) > len(probed)
        assert set(probed) <= cached
        for _, indexes in probed.values():
            assert all(index is indexes[0] for index in indexes)


class TestServedQualitySkips:
    def test_quality_masks_only_the_fds_a_join_can_violate(self, small_tpch, monkeypatch):
        """Served evaluations (Q1-Q3 at three seeds, at eta 16 so that one
        walk fires) build a correct-row mask only for the applicable FDs
        that no one input table reads and satisfies; each such exactness
        fact is computed once per sample's life, a write recomputes only
        the replaced sample's, and no fact reaches the encodings blob."""
        masks, facts, evaluations, fired = [], [], [], []
        correct_row_mask = measure_module.correct_row_mask
        correct_row_count = measure_module.correct_row_count
        join_quality = target_module.join_quality
        sample_rows = RowVectorJoin.sample_rows

        def masking(table, lhs, rhs):
            masks.append((tuple(lhs), tuple(rhs)))
            return correct_row_mask(table, lhs, rhs)

        def counting(table, lhs, rhs):
            facts.append((table, tuple(lhs) + tuple(rhs)))
            return correct_row_count(table, lhs, rhs)

        def measuring(join, fds):
            first = len(masks)
            quality = join_quality(join, fds)
            evaluations.append((join, list(fds), quality, masks[first:]))
            return quality

        def sampling(join, rate, rng):
            sample = sample_rows(join, rate, rng)
            fired.append(sample)
            return sample

        monkeypatch.setattr(measure_module, "correct_row_mask", masking)
        monkeypatch.setattr(measure_module, "correct_row_count", counting)
        monkeypatch.setattr(target_module, "join_quality", measuring)
        monkeypatch.setattr(RowVectorJoin, "sample_rows", sampling)
        pricing = EntropyPricingModel()
        marketplace = Marketplace(default_pricing=pricing)
        for name in small_tpch.tables:
            marketplace.host(
                MarketplaceDataset(table=small_tpch.dirty_or_clean(name), pricing=pricing)
            )
        queries = queries_for(small_tpch)
        settings = DanceConfig(
            sampling_rate=0.5,
            mcmc=MCMCConfig(iterations=60, seed=0),
            resampling=ResamplingPolicy(threshold=16),
        )

        def read(service) -> None:
            for seed in (0, 1, 2):
                for name in ("Q1", "Q2", "Q3"):
                    query = queries[name]
                    request = AcquisitionRequest(
                        list(query.source_attributes),
                        list(query.target_attributes),
                        budget=1000.0,
                    )
                    service.acquire(request, seed=seed)

        def held(join, fd) -> bool:
            supplied = join.input_supplying(fd.attributes)
            if supplied is None:
                return False
            table, attributes = supplied
            return correct_row_count(table, attributes[:-1], attributes[-1:]) == len(table)

        with AcquisitionService(marketplace, settings) as service:
            read(service)
            before = len(facts)
            summary = service.register_source_tables([small_tpch.tables["customer"]])
            assert summary["replaced"] == ["customer"]
            read(service)

        skipped = 0
        fired_through_a_join_attribute = 0
        fired_ids = {id(sample) for sample in fired}
        for join, fds, quality, made in evaluations:
            assert isinstance(join, RowVectorJoin)
            if len(join) == 0:
                assert made == []
                continue
            applicable = [fd for fd in fds if fd.attribute_set <= join.schema.name_set]
            kept = [(fd.lhs, (fd.rhs,)) for fd in applicable if not held(join, fd)]
            # The masks stop early once no row is correct.
            assert made == kept or (quality == 0.0 and made == kept[: len(made)])
            skipped += len(applicable) - len(kept)
            if id(join) in fired_ids and applicable and not kept:
                assert made == []
                # An FD whose one input reads some name only through a
                # probe's match: the re-sample kept the matches.
                fired_through_a_join_attribute += any(
                    join.input_supplying(fd.attributes)[0]
                    is not join.input_supplying([name])[0]
                    for fd in applicable
                    for name in fd.attributes
                )
        assert masks and skipped > len(masks)
        assert fired_through_a_join_attribute
        computed = [(id(table), attributes) for table, attributes in facts]
        assert facts and len(set(computed)) == len(computed)
        names_before = {(table.name, attributes) for table, attributes in facts[:before]}
        recomputed = {
            (table.name, attributes)
            for table, attributes in facts[before:]
            if (table.name, attributes) in names_before
        }
        assert recomputed and {name for name, _ in recomputed} == {"customer"}
        # The facts live in the table's statistics and never reach its blob.
        table = facts[0][0]
        blob, state = encodings_to_blob(table), encodings_state(table)
        for key in [key for key in table._stats if key[0] == "holds"]:
            del table._stats[key]
        assert (encodings_to_blob(table), encodings_state(table)) == (blob, state)
