"""End-to-end serve-tier tests: real server, real sockets, real clients.

Every test boots an :class:`~repro.service.server.AcquisitionHTTPServer` on an
ephemeral port via :mod:`serve_harness` and talks to it with plain ``urllib``
clients.  The core claim under test is the serve tier's determinism contract:
the bits a client receives over HTTP are the bits a direct
``DANCE.acquire()`` call produces with the same seed — for single requests,
concurrent clients and batches alike.
"""

from __future__ import annotations

from serve_harness import SMALL_REQUEST_SPEC, ServeHarness, small_config, small_marketplace

from repro.core.dance import DANCE
from repro.marketplace.shopper import AcquisitionRequest
from repro.search.acquisition import SearchRuntime

# The served bits: everything a client acts on.  Cache/executor diagnostics
# (hit rates, chain pool kind) legitimately differ between a hot session and
# a cold direct run and are excluded on purpose.
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


def served_bits(summary: dict) -> dict:
    return {key: summary[key] for key in SERVED_KEYS}


def direct_reference(seed: int) -> dict:
    """What a cold, serial ``DANCE.acquire`` answers for the same request."""
    dance = DANCE(small_marketplace(), small_config(seed=0))
    request = AcquisitionRequest(
        source_attributes=SMALL_REQUEST_SPEC["source"],
        target_attributes=SMALL_REQUEST_SPEC["target"],
        budget=SMALL_REQUEST_SPEC["budget"],
    )
    result = dance.acquire(request, runtime=SearchRuntime(mcmc_seed=seed))
    return served_bits(result.summary())


def test_single_acquire_matches_direct_dance():
    with ServeHarness() as harness:
        response = harness.acquire({**SMALL_REQUEST_SPEC, "seed": 7})
        assert response.status == 200
        body = response.json()
        assert body["ok"] is True
        assert body["seed"] == 7
        assert served_bits(body["result"]) == direct_reference(7)


def test_concurrent_clients_receive_identical_bits():
    with ServeHarness(batch_workers=4) as harness:
        responses = harness.acquire_concurrently(
            [{**SMALL_REQUEST_SPEC, "seed": 7}] * 6, clients=6
        )
        assert [response.status for response in responses] == [200] * 6
        bodies = [served_bits(response.json()["result"]) for response in responses]
        reference = direct_reference(7)
        assert all(body == reference for body in bodies)


def test_batch_endpoint_matches_direct_dance():
    with ServeHarness() as harness:
        response = harness.post(
            "/acquire",
            {
                "requests": [SMALL_REQUEST_SPEC, SMALL_REQUEST_SPEC],
                "seeds": [3, 11],
            },
        )
        assert response.status == 200
        body = response.json()
        assert body["ok"] is True
        assert body["rejected"] == 0
        summaries = body["results"]
        assert [item["seed"] for item in summaries] == [3, 11]
        assert served_bits(summaries[0]["result"]) == direct_reference(3)
        assert served_bits(summaries[1]["result"]) == direct_reference(11)


def test_healthz_and_metrics_report_live_state():
    with ServeHarness() as harness:
        health = harness.get("/healthz")
        assert health.status == 200
        assert health.json() == {"status": "ok"}

        assert harness.acquire({**SMALL_REQUEST_SPEC, "seed": 1}).status == 200
        metrics = harness.get("/metrics")
        assert metrics.status == 200
        assert metrics.headers["Content-Type"].startswith("text/plain")
        assert "dance_requests_total 1" in metrics.text
        assert "dance_server_draining 0" in metrics.text


def test_unknown_routes_return_404():
    with ServeHarness() as harness:
        assert harness.get("/nope").status == 404
        assert harness.post("/nope", {}).status == 404
