#!/usr/bin/env python
"""Assert the HTTP serve tier returns the library's bits, byte for byte.

Boots a real :class:`~repro.service.server.AcquisitionHTTPServer` (via the
reusable e2e harness in ``tests/integration/serve_harness.py``) on the small
TPC-H scenario, replays the Q1/Q2/Q3 request file over HTTP with explicit
seeds, and byte-compares every served result against a direct
``AcquisitionService.acquire_batch()`` with the same seeds — the serve tier
must add transport, never change an answer.

The saturation scenario reruns the server with a bounded ``reject`` admission
queue: with the queue held full, ``POST /acquire`` must answer ``503`` with a
``Retry-After`` header and a typed ``AdmissionRejectedError`` body (no
traceback); once the queue drains, the identical request must serve ``200``
with the identical bytes.

Used by the CI ``serve-smoke`` job.  Run locally with::

    PYTHONPATH=src python scripts/check_serve_parity.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
_HARNESS_DIR = _REPO_ROOT / "tests" / "integration"
for _path in (str(_SRC), str(_HARNESS_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from serve_harness import ServeHarness, tpch_harness, tpch_marketplace

from repro.core.config import DanceConfig, ServiceConfig
from repro.marketplace.shopper import AcquisitionRequest
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService, request_seed
from repro.workloads.queries import queries_for

SCALE = 0.2
SAMPLING_RATE = 0.5
ITERATIONS = 60
BUDGET = 1000.0
BATCH_WORKERS = 3

#: The bits a client acts on; cache/executor diagnostics are session-shaped
#: and excluded on purpose (same scope as tests/integration/test_serve_e2e.py).
SERVED_KEYS = (
    "instances",
    "purchased_instances",
    "projections",
    "join_attributes",
    "estimated_correlation",
    "estimated_quality",
    "estimated_join_informativeness",
    "estimated_price",
    "igraph_size",
    "igraph_index",
    "queries",
)


def served_bytes(summary: dict) -> bytes:
    """Canonical byte encoding of a result summary's served bits."""
    return json.dumps(
        {key: summary[key] for key in SERVED_KEYS}, sort_keys=True
    ).encode("utf-8")


def request_file(workload) -> list[dict]:
    """The replayed request specs: every named workload query at BUDGET."""
    return [
        {"query": name, "budget": BUDGET, "seed": request_seed(0, index)}
        for index, name in enumerate(queries_for(workload))
    ]


def library_reference(specs: list[dict]) -> list[bytes]:
    """What a direct ``acquire_batch`` answers for the same seeds."""
    marketplace, workload = tpch_marketplace(scale=SCALE, seed=0)
    queries = queries_for(workload)
    requests = [
        AcquisitionRequest(
            source_attributes=list(queries[spec["query"]].source_attributes),
            target_attributes=list(queries[spec["query"]].target_attributes),
            budget=spec["budget"],
        )
        for spec in specs
    ]
    config = DanceConfig(
        sampling_rate=SAMPLING_RATE,
        mcmc=MCMCConfig(iterations=ITERATIONS, seed=0),
        service=ServiceConfig(seed=0, max_batch_workers=BATCH_WORKERS),
    )
    with AcquisitionService(marketplace, config) as service:
        batch = service.acquire_batch(requests, seeds=[spec["seed"] for spec in specs])
    if not batch.ok:
        raise RuntimeError(
            f"library reference batch failed: {[str(i.error) for i in batch.errors()]}"
        )
    return [served_bytes(item.result.summary()) for item in batch]


def replay_over_http(harness: ServeHarness, specs: list[dict]) -> list[bytes]:
    """One concurrent HTTP client per spec; responses in spec order."""
    responses = harness.acquire_concurrently(specs)
    payloads = []
    for spec, response in zip(specs, responses):
        if response.status != 200:
            raise RuntimeError(
                f"HTTP {response.status} replaying {spec['query']}: {response.text}"
            )
        payloads.append(served_bytes(response.json()["result"]))
    return payloads


def check_replay(specs: list[dict], reference: list[bytes]) -> int:
    with tpch_harness(
        scale=SCALE,
        sampling_rate=SAMPLING_RATE,
        iterations=ITERATIONS,
        batch_workers=BATCH_WORKERS,
    ) as harness:
        served = replay_over_http(harness, specs)
        drained = harness.shutdown()
    failures = 0
    for spec, mine, expected in zip(specs, served, reference):
        if mine != expected:
            failures += 1
            print(f"MISMATCH {spec['query']}: {mine} != {expected}")
    if not drained:
        failures += 1
        print("FAIL: server did not drain cleanly")
    if not failures:
        print("OK: serve replay byte-identical to acquire_batch")
    return failures


def check_saturated_reject(specs: list[dict], reference: list[bytes]) -> int:
    """Full reject queue -> 503 + Retry-After + typed body; then recover."""
    failures = 0
    with tpch_harness(
        scale=SCALE,
        sampling_rate=SAMPLING_RATE,
        iterations=ITERATIONS,
        batch_workers=BATCH_WORKERS,
        queue_depth=1,
        admission="reject",
    ) as harness:
        # Hold the only admission slot, as a long in-flight request would.
        harness.service._admission.admit()
        response = harness.acquire(specs[0])
        if response.status != 503:
            failures += 1
            print(f"FAIL: saturated queue answered {response.status}, wanted 503")
        if response.headers.get("Retry-After") != "1":
            failures += 1
            print("FAIL: 503 response missing Retry-After header")
        body = response.json()
        if body.get("error", {}).get("type") != "AdmissionRejectedError":
            failures += 1
            print(f"FAIL: 503 body not typed AdmissionRejectedError: {body}")
        if "Traceback" in response.text:
            failures += 1
            print("FAIL: 503 body leaked a traceback")

        # Recovery: drain the queue, the identical request serves the
        # identical bytes.
        harness.service._admission.release()
        recovered = harness.acquire(specs[0])
        if recovered.status != 200:
            failures += 1
            print(f"FAIL: recovery answered {recovered.status}, wanted 200")
        elif served_bytes(recovered.json()["result"]) != reference[0]:
            failures += 1
            print("MISMATCH: post-recovery bytes differ from the library reference")

        rejected = harness.service.metrics()["queue"]["rejected"]
        if rejected < 1:
            failures += 1
            print(f"FAIL: queue snapshot recorded {rejected} rejections, wanted >= 1")
    if not failures:
        print("OK: saturated reject queue answers 503/Retry-After and recovers")
    return failures


def main() -> int:
    from repro.workloads.tpch import tpch_workload

    workload = tpch_workload(scale=SCALE, seed=0)
    specs = request_file(workload)
    reference = library_reference(specs)

    failures = 0
    failures += check_replay(specs, reference)
    failures += check_saturated_reject(specs, reference)

    if failures:
        print(f"\n{failures} serve-parity failure(s)")
        return 1
    print(f"OK: serve tier byte-identical to the library on {len(specs)} requests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
