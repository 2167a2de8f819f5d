"""Served answers pinned bit for bit against a golden file.

A small TPC-H 0.2 scenario is served serially through one
:class:`~repro.service.AcquisitionService`: Q1-Q3 at two MCMC seeds, the same
queries under a re-sampling threshold low enough to fire the hook (so fired
evaluations run), and one top-k call (so projection flips run).
TPC-E 0.3's Q1-Q3 follow at the same two seeds: their walks move over
spaces of several target graphs, which they stop walking once they have
evaluated every one.  Correlation, price and quality are compared as
``float.hex()``, with the SQL.

The TPC-H entries record the answers of the code as it was before the walk
served repeated proposals from its move table and transition memo, and the
TPC-E entries those of the code before a walk stopped once it had seen its
whole space.  The η = 16 entries record one draw per fired graph, seeded
from the policy seed and the graph's signature (a walk that re-drew a fired
graph on every revisit kept the best draw, and served 53.80, 39.44 and
24.55 where one draw serves 25.09, 24.41 and 16.82).  Only a change meant
to alter answers may regenerate the file, with::

    PYTHONPATH=src python tests/service/test_golden_answers.py \\
        > tests/service/data/golden_answers.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.config import DanceConfig, ServiceConfig
from repro.core.result import queries_for_target_graph
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.sampling.resampling import ResamplingPolicy
from repro.search.mcmc import MCMCConfig
from repro.search.topk import top_k_acquisition
from repro.service import AcquisitionService
from repro.workloads.queries import queries_for
from repro.workloads.tpce import tpce_workload
from repro.workloads.tpch import tpch_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_answers.json"

SEEDS = (0, 1)
FIRED_ETA = 16


def answer(label: str, correlation, price, quality, sql) -> dict:
    return {
        "label": label,
        "correlation": float(correlation).hex(),
        "price": float(price).hex(),
        "quality": float(quality).hex(),
        "sql": list(sql),
    }


def serving(workload, resampling: ResamplingPolicy) -> AcquisitionService:
    """A serial service over ``workload``'s hosted tables."""
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    for name in workload.tables:
        marketplace.host(
            MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
        )
    config = DanceConfig(
        sampling_rate=0.5,
        mcmc=MCMCConfig(seed=0),
        resampling=resampling,
        service=ServiceConfig(max_batch_workers=1),
    )
    return AcquisitionService(marketplace, config)


def serve_queries(service, queries, seeds, eta: int, prefix: str = "") -> list[dict]:
    """The answers to ``queries`` at each of ``seeds``, in that order."""
    requests = {
        name: AcquisitionRequest(
            list(query.source_attributes), list(query.target_attributes), budget=1000.0
        )
        for name, query in queries.items()
    }
    answers = []
    for seed in seeds:
        for name, request in requests.items():
            result = service.acquire(request, seed=seed)
            answers.append(
                answer(
                    f"{prefix}{name} seed={seed} eta={eta}",
                    result.estimated_correlation,
                    result.estimated_price,
                    result.estimated_quality,
                    result.sql(),
                )
            )
    return answers


def serve_answers() -> list[dict]:
    workload = tpch_workload(scale=0.2, seed=0)
    queries = queries_for(workload)
    answers: list[dict] = []
    for resampling, seeds in ((ResamplingPolicy(), SEEDS), (
        ResamplingPolicy(threshold=FIRED_ETA, rate=0.5, seed=0), SEEDS[:1]
    )):
        with serving(workload, resampling) as service:
            answers += serve_queries(service, queries, seeds, resampling.threshold)
            if resampling.threshold == FIRED_ETA:
                continue
            query = queries["Q3"]
            options = top_k_acquisition(
                service.join_graph,
                list(query.source_attributes),
                list(query.target_attributes),
                service.dance.fds,
                k=3,
                budget=1000.0,
                mcmc_config=MCMCConfig(iterations=100, seed=0),
                restarts=2,
                landmark_seed=0,
            )
            for option in options:
                answers.append(
                    answer(
                        f"Q3 top-k rank={option.rank}",
                        option.evaluation.correlation,
                        option.evaluation.price,
                        option.evaluation.quality,
                        [q.to_sql() for q in queries_for_target_graph(option.target_graph)],
                    )
                )
    tpce = tpce_workload(scale=0.3, seed=0)
    resampling = ResamplingPolicy()
    with serving(tpce, resampling) as service:
        answers += serve_queries(
            service, queries_for(tpce), SEEDS, resampling.threshold, prefix="TPC-E "
        )
    return answers


def test_served_answers_match_the_golden_file():
    assert serve_answers() == json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    json.dump(serve_answers(), sys.stdout, indent=1)
    sys.stdout.write("\n")
