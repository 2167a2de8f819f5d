"""The library's only runtime dependency is networkx.

Importing the package, the CLI, the HTTP tier and the storage layer, serving
an acquisition and checkpointing it to a sqlite catalog must load neither
numpy nor duckdb, even where they are installed.  A fresh interpreter does
the work, so nothing the test runner imported counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

CHILD_SCRIPT = """
import json
import sys

import repro
import repro.cli
import repro.service.server
import repro.storage
from repro.core.config import DanceConfig, ServiceConfig
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService
from repro.workloads.tpch import tpch_workload

workload = tpch_workload(scale=0.05, seed=0)
pricing = EntropyPricingModel()
marketplace = Marketplace(default_pricing=pricing)
for name in workload.tables:
    marketplace.host(MarketplaceDataset(table=workload.table(name), pricing=pricing))
config = DanceConfig(
    mcmc=MCMCConfig(iterations=20, seed=0),
    service=ServiceConfig(catalog_path=sys.argv[1]),
)
request = AcquisitionRequest(
    source_attributes=["totalprice"], target_attributes=["rname"], budget=1000.0
)
with AcquisitionService(marketplace, config) as service:
    result = service.acquire(request)
    backend = service.persist()
print(json.dumps({
    "correlation": result.estimated_correlation,
    "kind": backend.kind,
    "numpy": "numpy" in sys.modules,
    "duckdb": "duckdb" in sys.modules,
}))
"""


def test_serving_and_checkpointing_import_neither_numpy_nor_duckdb(tmp_path):
    catalog = tmp_path / "catalog.sqlite"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(catalog)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["correlation"] is not None
    assert report["kind"] == "sqlite"
    assert catalog.exists()
    assert (report["numpy"], report["duckdb"]) == (False, False)
