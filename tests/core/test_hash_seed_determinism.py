"""Served answers do not depend on ``PYTHONHASHSEED``.

A fired estimate is one draw from the policy the hook derives for its
graph, seeded from blake2b of the policy seed and the graph's signature.
A seed derived through the salted ``hash()`` would differ between
interpreters, and so would every fired answer.  This test serves the
golden file's η = 16 requests (TPC-H 0.2, Q1-Q3, MCMC seed 0) one-shot
through :meth:`DANCE.acquire <repro.core.dance.DANCE.acquire>` in two
interpreters, under ``PYTHONHASHSEED=1`` and ``=2``, and compares their
answers as ``float.hex`` and SQL with each other and with the golden file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parents[1]
SRC_DIR = TESTS_DIR.parent / "src"
GOLDEN_PATH = TESTS_DIR / "service" / "data" / "golden_answers.json"

CHILD_SCRIPT = """
import json

from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.sampling.resampling import ResamplingPolicy
from repro.search.acquisition import SearchRuntime
from repro.search.mcmc import MCMCConfig
from repro.workloads.queries import queries_for
from repro.workloads.tpch import tpch_workload

workload = tpch_workload(scale=0.2, seed=0)
pricing = EntropyPricingModel()
marketplace = Marketplace(default_pricing=pricing)
for name in workload.tables:
    marketplace.host(MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing))
config = DanceConfig(
    sampling_rate=0.5,
    mcmc=MCMCConfig(seed=0),
    resampling=ResamplingPolicy(threshold=16, rate=0.5, seed=0),
)
dance = DANCE(marketplace, config)
dance.build_offline()
answers = []
for name, query in queries_for(workload).items():
    request = AcquisitionRequest(
        list(query.source_attributes), list(query.target_attributes), budget=1000.0
    )
    result = dance.acquire(request, runtime=SearchRuntime(mcmc_seed=0))
    answers.append({
        "label": f"{name} seed=0 eta=16",
        "correlation": float(result.estimated_correlation).hex(),
        "price": float(result.estimated_price).hex(),
        "quality": float(result.estimated_quality).hex(),
        "sql": list(result.sql()),
    })
print(json.dumps(answers))
"""


def serve(hash_seed: str) -> list[dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC_DIR))
    completed = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_fired_answers_are_the_same_under_two_hash_seeds():
    first, second = serve("1"), serve("2")
    assert first == second
    golden = {entry["label"]: entry for entry in json.loads(GOLDEN_PATH.read_text())}
    assert first == [golden[answer["label"]] for answer in first]
