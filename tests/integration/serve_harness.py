"""Reusable end-to-end harness for the HTTP serve tier.

Spins a *real* :class:`~repro.service.server.AcquisitionHTTPServer` on an
ephemeral loopback port and drives it with plain ``urllib`` clients, so a
test (or ``scripts/check_serve_parity.py``, which imports this module off
``tests/integration``) exercises the full stack: HTTP parsing → admission →
session → search → storage.

The harness is deliberately free of pytest imports; everything is context
managers and plain functions.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.config import DanceConfig, ServiceConfig
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.pricing.models import EntropyPricingModel
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService
from repro.service.server import AcquisitionHTTPServer
from repro.workloads.queries import queries_for
from repro.workloads.tpch import tpch_workload


# ------------------------------------------------------------------ http client
@dataclass
class HttpResponse:
    """One HTTP exchange's outcome; error statuses are values, not raises."""

    status: int
    headers: dict
    body: bytes

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")

    def json(self) -> object:
        return json.loads(self.body.decode("utf-8"))


def http_request(
    url: str, *, method: str = "GET", payload: object = None, timeout: float = 120.0
) -> HttpResponse:
    """One urllib exchange; 4xx/5xx come back as :class:`HttpResponse` too."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return HttpResponse(response.status, dict(response.headers), response.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        return HttpResponse(error.code, dict(error.headers), body)


# ------------------------------------------------------------------ marketplaces
def small_marketplace() -> Marketplace:
    """The three-table synthetic marketplace the service unit tests use.

    Small enough that a full offline phase plus a served request stays well
    under a second — the right scale for e2e tests that boot a server per
    test.
    """
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


def small_config(**service_kwargs) -> DanceConfig:
    """The configuration paired with :func:`small_marketplace`."""
    return DanceConfig(
        sampling_rate=1.0,
        mcmc=MCMCConfig(iterations=40, seed=0),
        service=ServiceConfig(**service_kwargs),
    )


SMALL_REQUEST_SPEC = {
    "source": ["measure"],
    "target": ["label"],
    "budget": 1e9,
}


def tpch_marketplace(scale: float = 0.2, seed: int = 0):
    """``(marketplace, workload)`` on the TPC-H scenario the parity scripts use."""
    workload = tpch_workload(scale=scale, seed=seed)
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload.tables:
        marketplace.host(
            MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
        )
    return marketplace, workload


# -------------------------------------------------------------------- harness
class ServeHarness:
    """A live server plus its hot service, torn down deterministically.

    >>> with ServeHarness() as harness:
    ...     response = harness.post("/acquire", SMALL_REQUEST_SPEC)

    Parameters mirror the ``serve`` CLI.  ``marketplace`` defaults to
    :func:`small_marketplace` and ``config`` to :func:`small_config` with the
    given admission knobs.  Exit performs the real graceful shutdown (drain →
    optional checkpoint → close) and then closes the service.
    """

    def __init__(
        self,
        *,
        marketplace: Marketplace | None = None,
        config: DanceConfig | None = None,
        queries: dict | None = None,
        queue_depth: int | None = None,
        admission: str = "block",
        batch_workers: int = 4,
        catalog_path: str | None = None,
        drain_timeout: float = 30.0,
    ) -> None:
        if config is None:
            config = small_config(
                seed=0,
                max_batch_workers=batch_workers,
                max_queue_depth=queue_depth,
                admission=admission,
                catalog_path=catalog_path,
            )
        self.config = config
        self.drain_timeout = drain_timeout
        marketplace = marketplace if marketplace is not None else small_marketplace()
        self.service = AcquisitionService(marketplace, config)
        self.server = AcquisitionHTTPServer(
            ("127.0.0.1", 0), self.service, queries=queries or {}
        )
        self._thread = None

    # --------------------------------------------------------------- lifecycle
    def __enter__(self) -> "ServeHarness":
        self._thread = self.server.serve_background()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> bool:
        """Graceful shutdown (idempotent); returns whether the drain completed."""
        drained = True
        if self._thread is not None:
            drained = self.server.graceful_shutdown(timeout=self.drain_timeout)
            self._thread.join(timeout=self.drain_timeout)
            self._thread = None
        self.service.close()
        return drained

    # ------------------------------------------------------------------ client
    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.port}"

    def get(self, path: str, *, timeout: float = 120.0) -> HttpResponse:
        return http_request(f"{self.url}{path}", timeout=timeout)

    def post(self, path: str, payload: object, *, timeout: float = 120.0) -> HttpResponse:
        return http_request(
            f"{self.url}{path}", method="POST", payload=payload, timeout=timeout
        )

    def acquire(self, spec: dict, *, timeout: float = 120.0) -> HttpResponse:
        return self.post("/acquire", spec, timeout=timeout)

    def acquire_concurrently(
        self, specs: list, *, clients: int | None = None, timeout: float = 120.0
    ) -> list[HttpResponse]:
        """Fire one /acquire per spec from concurrent urllib clients.

        Responses come back in *spec order* regardless of completion order,
        so callers can zip them against expectations.
        """
        workers = clients if clients is not None else max(1, len(specs))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(self.acquire, spec, timeout=timeout) for spec in specs]
            return [future.result() for future in futures]


def tpch_harness(
    *,
    scale: float = 0.2,
    sampling_rate: float = 0.5,
    iterations: int = 60,
    seed: int = 0,
    queue_depth: int | None = None,
    admission: str = "block",
    batch_workers: int = 3,
) -> ServeHarness:
    """A harness on the TPC-H parity scenario with named queries resolvable.

    The same scale / sampling-rate / iteration knobs as
    ``scripts/check_service_parity.py``, so served fingerprints line up with
    that script's reference numbers.
    """
    marketplace, workload = tpch_marketplace(scale=scale, seed=seed)
    config = DanceConfig(
        sampling_rate=sampling_rate,
        mcmc=MCMCConfig(iterations=iterations, seed=seed),
        service=ServiceConfig(
            seed=seed,
            max_batch_workers=batch_workers,
            max_queue_depth=queue_depth,
            admission=admission,
        ),
    )
    return ServeHarness(
        marketplace=marketplace,
        config=config,
        queries=dict(queries_for(workload)),
    )
