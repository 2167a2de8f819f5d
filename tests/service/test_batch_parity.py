"""Cross-request determinism: batches are bit-identical to serial execution.

The acceptance contract of the service layer: a batch of N requests through
``AcquisitionService`` equals N serial ``DANCE.acquire()`` calls with the
same derived seeds — under every executor (serial / thread / process
multi-chain walks, concurrent and serial batch fan-out).
"""

from __future__ import annotations

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.core.dance import DANCE
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.relational.table import Table
from repro.search.acquisition import SearchRuntime
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService, request_seed


def build_marketplace() -> Marketplace:
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


REQUESTS = [
    AcquisitionRequest(
        source_attributes=["measure"], target_attributes=["label"], budget=1e9
    ),
    AcquisitionRequest(
        source_attributes=["measure"],
        target_attributes=["label", "bonus"],
        budget=1e9,
    ),
    AcquisitionRequest(
        source_attributes=["measure"], target_attributes=["label"], budget=1e8
    ),
]


def fingerprint(result) -> tuple:
    """Everything observable about a recommendation, bit-for-bit."""
    return (
        tuple(result.target_graph.nodes),
        tuple(tuple(sorted(edge)) for edge in result.target_graph.edges),
        result.estimated_correlation,
        result.estimated_quality,
        result.estimated_join_informativeness,
        result.estimated_price,
        tuple(result.sql()),
    )


def serial_reference(mcmc: MCMCConfig, seed_base: int) -> list[tuple]:
    """N one-at-a-time ``DANCE.acquire()`` calls with the derived seeds."""
    dance = DANCE(build_marketplace(), DanceConfig(sampling_rate=1.0, mcmc=mcmc))
    dance.build_offline()
    reference = []
    for index, request in enumerate(REQUESTS):
        runtime = SearchRuntime(mcmc_seed=request_seed(seed_base, index))
        reference.append(fingerprint(dance.acquire(request, runtime=runtime)))
    return reference


def batch_fingerprints(config: DanceConfig) -> list[tuple]:
    with AcquisitionService(build_marketplace(), config) as service:
        batch = service.acquire_batch(REQUESTS)
    assert batch.ok
    return [fingerprint(item.result) for item in batch]


class TestBatchEqualsSerial:
    @pytest.mark.parametrize("batch_workers", [1, 4])
    def test_single_chain(self, batch_workers):
        mcmc = MCMCConfig(iterations=40, seed=0)
        config = DanceConfig(
            sampling_rate=1.0,
            mcmc=mcmc,
            service=ServiceConfig(max_batch_workers=batch_workers),
        )
        assert batch_fingerprints(config) == serial_reference(mcmc, seed_base=0)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_multi_chain_executors(self, executor):
        mcmc = MCMCConfig(iterations=30, seed=0, chains=3, executor=executor)
        config = DanceConfig(
            sampling_rate=1.0,
            mcmc=mcmc,
            service=ServiceConfig(max_batch_workers=2),
        )
        assert batch_fingerprints(config) == serial_reference(mcmc, seed_base=0)

    def test_batch_equals_repeated_service_calls(self):
        """Concurrent batch == the same service serving one request at a time."""
        config = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=40, seed=0),
            service=ServiceConfig(max_batch_workers=4),
        )
        with AcquisitionService(build_marketplace(), config) as service:
            batch = service.acquire_batch(REQUESTS)
        with AcquisitionService(build_marketplace(), config) as service:
            one_at_a_time = [
                fingerprint(
                    service.acquire(request, seed=request_seed(0, index))
                )
                for index, request in enumerate(REQUESTS)
            ]
        assert [fingerprint(item.result) for item in batch] == one_at_a_time

    def test_nonzero_service_seed(self):
        mcmc = MCMCConfig(iterations=40, seed=0)
        config = DanceConfig(
            sampling_rate=1.0,
            mcmc=mcmc,
            service=ServiceConfig(seed=99, max_batch_workers=2),
        )
        assert batch_fingerprints(config) == serial_reference(mcmc, seed_base=99)

    def test_repeated_batches_are_stable(self):
        """A second identical batch (warm caches) is bit-identical to the first."""
        config = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=40, seed=0),
            service=ServiceConfig(max_batch_workers=4),
        )
        with AcquisitionService(build_marketplace(), config) as service:
            first = [fingerprint(i.result) for i in service.acquire_batch(REQUESTS)]
            second = [fingerprint(i.result) for i in service.acquire_batch(REQUESTS)]
        assert first == second
