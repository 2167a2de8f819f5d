"""Serve-tier unit tests: Prometheus rendering, error mapping, lifecycle.

The ``/metrics`` surface is pinned two ways: a golden file rendered from a
handcrafted deterministic payload (every field exercised with a distinct
value), and a coverage walk asserting every leaf of a *real* ``metrics()``
payload maps to a well-formed Prometheus metric in
:data:`repro.service.server.FIELD_METRICS` — so a new ServiceMetrics field
cannot silently vanish from the endpoint.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import struct
import threading
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.exceptions import (
    AdmissionRejectedError,
    BrokenChainPoolError,
    DeadlineExceededError,
    InfeasibleAcquisitionError,
    RateLimitedError,
    ReproError,
    SearchError,
    StorageError,
)
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.pricing.models import EntropyPricingModel
from repro.pricing.sla import DEFAULT_TIERS, QosConfig, SlaTier
from repro.relational.table import Table
from repro.search.mcmc import MCMCConfig
from repro.service import AcquisitionService
from repro.service.metrics import BUCKET_BOUNDS
from repro.service.server import (
    FIELD_METRICS,
    PROMETHEUS_CONTENT_TYPE,
    AcquisitionHTTPServer,
    error_body,
    error_status,
    render_prometheus,
    request_from_spec,
    retry_after_header,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "metrics_golden.prom"

#: Every field gets a distinct, float-exact value so a swapped pair of
#: metrics cannot render the same golden file.
GOLDEN_PAYLOAD = {
    "requests": 7,
    "errors": 1,
    "latency": {
        "count": 7,
        "mean_seconds": 0.5,
        "max_seconds": 2.0,
        "window_size": 6,
        "buckets": {
            label: count
            for label, count in zip(
                [f"<={bound:g}s" for bound in BUCKET_BOUNDS] + [">10s"],
                [1, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1],
            )
        },
        "p50_seconds": 0.25,
        "p95_seconds": 1.5,
        "p99_seconds": 1.75,
    },
    "queue_wait": {
        "count": 5,
        "mean_seconds": 0.1,
        "max_seconds": 0.75,
        "window_size": 4,
        "buckets": {
            label: count
            for label, count in zip(
                [f"<={bound:g}s" for bound in BUCKET_BOUNDS] + [">10s"],
                [2, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
            )
        },
        "p50_seconds": 0.05,
        "p95_seconds": 0.4,
        "p99_seconds": 0.45,
    },
    "execution": {
        "count": 6,
        "mean_seconds": 0.3,
        "max_seconds": 1.25,
        "window_size": 3,
        "buckets": {
            label: count
            for label, count in zip(
                [f"<={bound:g}s" for bound in BUCKET_BOUNDS] + [">10s"],
                [1, 0, 2, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0],
            )
        },
        "p50_seconds": 0.2,
        "p95_seconds": 1.0625,
        "p99_seconds": 1.125,
    },
    "cache_hit_rate": {
        "window_size": 5,
        "window_mean": 0.5,
        "older_half_mean": 0.25,
        "newer_half_mean": 0.75,
        "trend": 0.5,
    },
    "in_flight": 2,
    "queue": {
        "max_depth": 4,
        "policy": "reject",
        "depth": 1,
        "peak_depth": 3,
        "admitted": 9,
        "rejected": 2,
        "blocked_seconds": 0.125,
    },
    "qos": {
        "slots": 3,
        "rate_limited": 4,
        "deadline_exceeded": 2,
        "tiers": {
            "bronze": {
                "weight": 1.0,
                "requests": 5,
                "rate_limited": 3,
                "deadline_exceeded": 2,
                "queue_wait": {
                    "count": 5,
                    "mean_seconds": 0.2,
                    "max_seconds": 0.625,
                    "window_size": 5,
                    "buckets": {
                        label: count
                        for label, count in zip(
                            [f"<={bound:g}s" for bound in BUCKET_BOUNDS] + [">10s"],
                            [1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0],
                        )
                    },
                    "p50_seconds": 0.1,
                    "p95_seconds": 0.5625,
                    "p99_seconds": 0.59375,
                },
            },
            "gold": {
                "weight": 4.0,
                "requests": 2,
                "rate_limited": 1,
                "deadline_exceeded": 0,
                "queue_wait": {
                    "count": 2,
                    "mean_seconds": 0.015625,
                    "max_seconds": 0.03125,
                    "window_size": 2,
                    "buckets": {
                        label: count
                        for label, count in zip(
                            [f"<={bound:g}s" for bound in BUCKET_BOUNDS] + [">10s"],
                            [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                        )
                    },
                    "p50_seconds": 0.0234375,
                    "p95_seconds": 0.03,
                    "p99_seconds": 0.031,
                },
            },
        },
    },
    "answer_memo": {"entries": 3, "hits": 5, "misses": 4},
    "walk_space_memo": {"entries": 6, "graphs": 11, "hits": 9, "misses": 8},
}


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
    for table in (facts, dims):
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))
    return marketplace


def small_config(**service_kwargs) -> DanceConfig:
    return DanceConfig(
        sampling_rate=1.0,
        mcmc=MCMCConfig(iterations=40, seed=0),
        service=ServiceConfig(**service_kwargs),
    )


def flatten_paths(payload: dict, prefix: str = "") -> set[str]:
    """Dotted leaf paths of a metrics payload.

    Bucket dicts and the per-tier QoS map are one leaf each: buckets render
    as the ``le``-labelled samples of a single histogram family, tiers as
    ``tier``-labelled samples of the per-tier families.
    """
    paths: set[str] = set()
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and key not in ("buckets", "tiers"):
            paths |= flatten_paths(value, f"{path}.")
        else:
            paths.add(path)
    return paths


# --------------------------------------------------------------- /metrics text
def test_render_prometheus_matches_golden_file():
    rendered = render_prometheus(GOLDEN_PAYLOAD, extra={"server_draining": 0.0})
    assert rendered == GOLDEN_PATH.read_text()


def test_field_metrics_covers_every_real_payload_leaf():
    with AcquisitionService(small_marketplace(), small_config(seed=0)) as service:
        single_paths = flatten_paths(service.metrics())
    assert single_paths == set(FIELD_METRICS)


def test_field_metrics_names_are_valid_prometheus():
    name_pattern = re.compile(r"^[a-z][a-z0-9_]*$")
    rendered = render_prometheus(GOLDEN_PAYLOAD)
    declared_types = dict(
        re.findall(r"^# TYPE (\S+) (\S+)$", rendered, flags=re.MULTILINE)
    )
    for path, metric in FIELD_METRICS.items():
        assert name_pattern.match(metric), metric
        base = re.sub(r"_(bucket|sum|count)$", "", metric)
        assert base in declared_types, metric
        if metric.endswith("_total"):
            assert declared_types[base] == "counter", metric
        elif declared_types[base] != "histogram":
            assert declared_types[base] == "gauge", metric
        # Every mapped metric carries at least one sample line.
        assert re.search(rf"^{re.escape(metric)}[ {{]", rendered, flags=re.MULTILINE), metric


def test_histogram_buckets_are_cumulative_and_end_at_count():
    rendered = render_prometheus(GOLDEN_PAYLOAD)
    counts = [
        int(match)
        for match in re.findall(
            r'^dance_request_latency_seconds_bucket\{le="[^"]+"\} (\d+)$',
            rendered,
            flags=re.MULTILINE,
        )
    ]
    assert len(counts) == len(BUCKET_BOUNDS) + 1
    assert counts == sorted(counts)
    assert counts[-1] == GOLDEN_PAYLOAD["latency"]["count"]
    # _sum is mean * count, exactly.
    assert "dance_request_latency_seconds_sum 3.5" in rendered


def test_render_handles_empty_payload_with_nans():
    rendered = render_prometheus({})
    assert "dance_requests_total 0" in rendered
    assert "dance_request_latency_p50_seconds NaN" in rendered
    assert "dance_admission_max_depth NaN" in rendered


# --------------------------------------------------------------- error mapping
class _NarrowerInfeasibility(InfeasibleAcquisitionError):
    """A subclass maps like its base: error_status dispatches on isinstance."""


@pytest.mark.parametrize(
    ("error", "status"),
    [
        (AdmissionRejectedError("full"), 503),
        (RateLimitedError("paced out"), 429),
        (DeadlineExceededError("missed in queue"), 504),
        (SearchError("bad request shape"), 422),
        (InfeasibleAcquisitionError("no feasible acquisition"), 422),
        (_NarrowerInfeasibility("narrower"), 422),
        (StorageError("disk gone"), 500),
        (ReproError("generic library error"), 400),
        (RuntimeError("anything else"), 500),
        (BrokenChainPoolError("a chain worker died"), 503),
    ],
)
def test_error_status_mapping(error, status):
    assert error_status(error) == status


def test_error_body_is_typed_and_traceback_free():
    try:
        raise InfeasibleAcquisitionError("no feasible acquisition")
    except InfeasibleAcquisitionError as error:
        body = error_body(error)
    assert body == {
        "error": {
            "type": "InfeasibleAcquisitionError",
            "message": "no feasible acquisition",
        }
    }
    assert "Traceback" not in json.dumps(body)


def test_retry_after_header_rounds_up_computed_hints():
    # No hint (or a degenerate one) falls back to the old constant "1".
    assert retry_after_header(None) == "1"
    assert retry_after_header(0.0) == "1"
    assert retry_after_header(float("inf")) == "1"
    # Computed hints round up to whole seconds, never below 1.
    assert retry_after_header(0.25) == "1"
    assert retry_after_header(2.1) == "3"
    assert retry_after_header(600.0) == "600"


def test_request_from_spec_rejects_malformed_specs():
    with pytest.raises(ReproError, match="JSON object"):
        request_from_spec(["not", "a", "dict"])
    with pytest.raises(ReproError, match="unknown query"):
        request_from_spec({"query": "Q99"}, queries={})
    with pytest.raises(ReproError, match="unknown query"):
        request_from_spec({"query": ["Q1"]}, queries={})
    with pytest.raises(ReproError, match="invalid numeric"):
        request_from_spec({"source": ["a"], "target": ["b"], "budget": "cheap"})
    # JSON integers have no size limit; float() overflows past ~1.8e308.
    for field in ("budget", "alpha", "beta", "deadline"):
        with pytest.raises(ReproError, match="invalid numeric"):
            request_from_spec({"source": ["a"], "target": ["b"], field: 10**400})
    for field, value in (
        ("source", 5),
        ("source", "ab"),
        ("target", [None]),
        ("shopper", ["alice"]),
        ("shopper", {"name": "alice"}),
        ("tier", 3),
        # float(True) is 1.0: a JSON boolean is not a numeric constraint.
        ("budget", True),
        ("alpha", False),
        ("beta", True),
        ("deadline", True),
    ):
        spec = {"source": ["a"], "target": ["b"], field: value}
        with pytest.raises(ReproError, match=field):
            request_from_spec(spec)
    with pytest.raises(ReproError, match="budget"):
        request_from_spec(
            {"query": "Q1", "budget": True, "alpha": False, "deadline": True},
            queries={"Q1": SimpleNamespace(source_attributes=["a"], target_attributes=["b"])},
        )


def test_request_from_spec_builds_explicit_requests():
    request = request_from_spec(
        {"source": ["m"], "target": ["l"], "budget": 5.0, "alpha": 0.5, "beta": 0.1,
         "shopper": "s1"}
    )
    assert request.source_attributes == ("m",)
    assert request.target_attributes == ("l",)
    assert request.budget == 5.0
    assert request.max_join_informativeness == 0.5
    assert request.min_quality == 0.1
    assert request.shopper == "s1"


def test_request_from_spec_carries_tier_and_deadline():
    spec = {"source": ["m"], "target": ["l"], "tier": "gold", "deadline": 2.5}
    request = request_from_spec(spec, default_tier="bronze")
    assert request.tier == "gold"  # the spec's own tier wins
    assert request.deadline == 2.5
    # The default (header-provided) tier applies when the spec names none.
    request = request_from_spec({"source": ["m"], "target": ["l"]}, default_tier="silver")
    assert request.tier == "silver"
    assert request.deadline is None


# ------------------------------------------------------------------- lifecycle
def http_json(url, payload=None, timeout=30.0, headers=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method="POST" if data else "GET", headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


@pytest.fixture()
def live_server():
    service = AcquisitionService(small_marketplace(), small_config(seed=0))
    server = AcquisitionHTTPServer(("127.0.0.1", 0), service)
    thread = server.serve_background()
    try:
        yield server
    finally:
        server.graceful_shutdown(timeout=10.0)
        thread.join(timeout=10.0)
        service.close()


def test_healthz_flips_during_graceful_shutdown(live_server):
    url = f"http://127.0.0.1:{live_server.port}"
    status, _, body = http_json(f"{url}/healthz")
    assert (status, json.loads(body)) == (200, {"status": "ok"})

    # Draining: health flips to 503 + Retry-After, /acquire refuses new work,
    # but the listener still answers (in-flight requests would finish here).
    assert live_server.drain(timeout=5.0) is True
    status, headers, body = http_json(f"{url}/healthz")
    assert status == 503
    assert json.loads(body) == {"status": "draining"}
    assert headers.get("Retry-After") == "1"

    status, _, body = http_json(
        f"{url}/acquire", {"source": ["measure"], "target": ["label"]}
    )
    assert status == 503
    assert json.loads(body)["error"]["type"] == "ServerDraining"

    # /metrics stays readable while draining and reports the drain gauge.
    status, _, body = http_json(f"{url}/metrics")
    assert status == 200
    assert "dance_server_draining 1" in body.decode("utf-8")

    # Closed: the listener is gone, connections fail outright.
    assert live_server.graceful_shutdown(timeout=5.0) is True
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(f"{url}/healthz", timeout=5.0)


@pytest.mark.parametrize("sent", [None, 10])
def test_a_client_that_resets_before_its_response_leaves_no_error(live_server, sent):
    """A client sends a whole request (``sent`` None), or the first ``sent``
    bytes of its body, then resets the connection (SO_LINGER 0) before the
    response is written.  The server stops reading or writing: no 500
    follows on the dead socket and nothing reaches ``handle_error``.  It
    serves the next request and drains."""
    errors = []
    live_server.handle_error = lambda request, address: errors.append(address)
    closed = threading.Semaphore(0)
    shutdown_request = live_server.shutdown_request

    def shutdown_and_count(request):
        shutdown_request(request)
        closed.release()

    live_server.shutdown_request = shutdown_and_count
    spec = {"source": ["measure"], "target": ["label"], "budget": 1e9}
    body = json.dumps({**spec, "seed": 3}).encode("utf-8")
    head = f"POST /acquire HTTP/1.0\r\nContent-Length: {len(body)}\r\n\r\n"
    with socket.create_connection(("127.0.0.1", live_server.port), timeout=30.0) as client:
        client.sendall(head.encode("ascii") + body[:sent])
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    assert closed.acquire(timeout=30.0)
    assert errors == []
    status, _, _ = http_json(f"http://127.0.0.1:{live_server.port}/acquire", spec)
    assert status == 200
    assert live_server.drain(timeout=10.0) is True
    assert errors == []


def test_nan_constraints_answer_422_before_admission(live_server):
    url = f"http://127.0.0.1:{live_server.port}"
    spec = {"source": ["measure"], "target": ["label"]}
    for field in ("budget", "alpha", "deadline"):
        # json.dumps writes the bare NaN literal; float() also parses "nan".
        for value in (float("nan"), "nan"):
            bad = {**spec, field: value}
            for payload in (bad, {"requests": [spec, bad]}):
                assert (b"NaN" in json.dumps(payload).encode()) == isinstance(value, float)
                status, _, raw = http_json(f"{url}/acquire", payload)
                body = json.loads(raw)
                assert (status, body["error"]["type"]) == (422, "SearchError"), payload
    assert live_server.service.metrics()["queue"]["admitted"] == 0
    # Infinity is still a valid "no limit".
    status, _, raw = http_json(f"{url}/acquire", {**spec, "budget": 1e9, "alpha": "inf"})
    assert status == 200, raw


def test_boolean_constraints_answer_400_before_admission(live_server):
    url = f"http://127.0.0.1:{live_server.port}"
    spec = {"source": ["measure"], "target": ["label"]}
    for field in ("budget", "alpha", "beta", "deadline"):
        bad = {**spec, field: True}
        for payload in (bad, {"requests": [spec, bad]}):
            status, _, raw = http_json(f"{url}/acquire", payload)
            body = json.loads(raw)
            assert (status, body["error"]["type"]) == (400, "ReproError"), payload
    assert live_server.service.metrics()["queue"]["admitted"] == 0


def test_metrics_endpoint_serves_prometheus_content_type(live_server):
    url = f"http://127.0.0.1:{live_server.port}"
    status, headers, body = http_json(f"{url}/metrics")
    assert status == 200
    assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
    assert headers["Content-Length"] == str(len(body))


def test_http_errors_carry_typed_bodies_not_tracebacks(live_server):
    url = f"http://127.0.0.1:{live_server.port}"

    # Malformed JSON -> 400 InvalidRequest.
    request = urllib.request.Request(
        f"{url}/acquire", data=b"{not json", method="POST"
    )
    try:
        urllib.request.urlopen(request, timeout=30.0)
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as error:
        assert error.code == 400
        body = json.loads(error.read())
    assert body["error"]["type"] == "InvalidRequest"

    # Infeasible request -> 422 with the exception class name.
    status, _, raw = http_json(
        f"{url}/acquire", {"source": ["measure"], "target": ["no_such_attribute"]}
    )
    assert status == 422
    body = json.loads(raw)
    assert body["error"]["type"] == "InfeasibleAcquisitionError"
    assert "Traceback" not in raw.decode("utf-8")

    # An unknown SLA tier is the caller's error -> 400, and a batch holding
    # one is refused before any of its requests is admitted.
    spec = {"source": ["measure"], "target": ["label"], "budget": 1e9}
    admitted = live_server.service.metrics()["queue"]["admitted"]
    for payload in (
        {**spec, "tier": "platinum"},
        {"requests": [spec, {**spec, "tier": "platinum"}]},
    ):
        status, _, raw = http_json(f"{url}/acquire", payload)
        assert (status, json.loads(raw)["error"]["type"]) == (400, "PricingError")
    assert live_server.service.metrics()["queue"]["admitted"] == admitted

    # A bad Content-Length is answered before any of the body is read, and a
    # body that ends (the client half-closes) before its declared length is
    # refused, not served.
    short = json.dumps(spec).encode("utf-8")
    for length, body, expected in (
        ("1000000000000", b"", (413, "PayloadTooLarge")),
        ("-5", b"", (400, "InvalidRequest")),
        ("100", short, (400, "InvalidRequest")),
    ):
        connection = http.client.HTTPConnection("127.0.0.1", live_server.port, timeout=30.0)
        try:
            connection.putrequest("POST", "/acquire")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders(body)
            connection.sock.shutdown(socket.SHUT_WR)
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert (response.status, body["error"]["type"]) == expected, length

    # Malformed fields -> 400 ReproError, never the 500 catch-all.
    spec = {"source": ["measure"], "target": ["label"], "budget": 1e9}
    for payload in (
        {**spec, "seed": "abc"},
        {**spec, "seed": [1]},
        {**spec, "seed": True},
        {**spec, "seed": 7.0},
        {"requests": [spec], "seeds": ["x"]},
        {"requests": [spec], "seeds": [None]},
        {**spec, "source": 5},
        {"requests": [{**spec, "shopper": ["a"]}, {**spec, "shopper": "b"}]},
        {**spec, "budget": 10**400},
        {"requests": [{**spec, "deadline": -(10**400)}]},
    ):
        status, _, raw = http_json(f"{url}/acquire", payload)
        assert (status, json.loads(raw)["error"]["type"]) == (400, "ReproError"), payload

    # A request_seed-sized (64-bit) seed is served as given.
    status, _, raw = http_json(f"{url}/acquire", {**spec, "seed": 2**64 - 1})
    assert status == 200
    assert json.loads(raw)["seed"] == 2**64 - 1


def test_saturated_reject_queue_maps_to_503_and_recovers():
    service = AcquisitionService(
        small_marketplace(),
        small_config(seed=0, max_queue_depth=1, admission="reject"),
    )
    server = AcquisitionHTTPServer(("127.0.0.1", 0), service)
    thread = server.serve_background()
    url = f"http://127.0.0.1:{server.port}"
    spec = {"source": ["measure"], "target": ["label"], "budget": 1e9, "seed": 3}
    try:
        # Saturate the admission queue from the side, as an in-flight
        # request would.
        ticket = service._scheduler.submit(request_from_spec(spec))
        service._scheduler.await_grant(ticket)
        status, headers, raw = http_json(f"{url}/acquire", spec)
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert json.loads(raw)["error"]["type"] == "AdmissionRejectedError"

        # Release the slot: the same request now succeeds.
        service._scheduler.release(ticket)
        status, _, raw = http_json(f"{url}/acquire", spec)
        assert status == 200
        assert json.loads(raw)["ok"] is True
    finally:
        server.graceful_shutdown(timeout=10.0)
        thread.join(timeout=10.0)
        service.close()


def test_qos_sheds_map_to_429_and_504_over_http():
    tiers = dict(DEFAULT_TIERS)
    tiers["bronze"] = SlaTier("bronze", weight=1.0, rate=0.001, burst=1)
    service = AcquisitionService(
        small_marketplace(), small_config(seed=0, qos=QosConfig(tiers=tiers))
    )
    server = AcquisitionHTTPServer(("127.0.0.1", 0), service, default_tier="silver")
    thread = server.serve_background()
    url = f"http://127.0.0.1:{server.port}"
    spec = {"source": ["measure"], "target": ["label"], "budget": 1e9}
    try:
        # A deadline of zero is already expired at dequeue: 504, never run.
        # (Distinct shopper so its token draw does not affect the next pair.)
        status, _, raw = http_json(
            f"{url}/acquire", {**spec, "shopper": "d", "deadline": 0.0}
        )
        assert status == 504
        assert json.loads(raw)["error"]["type"] == "DeadlineExceededError"

        # A list-valued shopper cannot key the scheduler's buckets: 400.
        status, _, raw = http_json(f"{url}/acquire", {**spec, "shopper": ["x"]})
        assert (status, json.loads(raw)["error"]["type"]) == (400, "ReproError")

        # Bronze holds a single token refilling at 0.001/s: the first request
        # runs, the second sheds with 429 and a computed Retry-After.  The
        # spec's own tier beats the server-wide silver default.
        bronze = {**spec, "shopper": "a", "tier": "bronze"}
        status, _, _ = http_json(f"{url}/acquire", bronze)
        assert status == 200
        status, headers, raw = http_json(f"{url}/acquire", bronze)
        assert status == 429
        assert json.loads(raw)["error"]["type"] == "RateLimitedError"
        assert int(headers["Retry-After"]) >= 1

        # Sheds never poison other shoppers: a fresh shopper still runs, and
        # the X-Dance-Tier header stamps its tier into the served summary,
        # overriding the server-wide default tier.
        status, _, raw = http_json(
            f"{url}/acquire",
            {"requests": [{**spec, "shopper": "b"}]},
            headers={"X-Dance-Tier": "gold"},
        )
        assert status == 200
        body = json.loads(raw)
        assert body["ok"] is True
        assert body["results"][0]["tier"] == "gold"

        # No header and no spec tier: the server-wide default (CLI --tier)
        # applies instead of the scheduler's bronze fallback.
        status, _, raw = http_json(
            f"{url}/acquire", {"requests": [{**spec, "shopper": "c"}]}
        )
        assert status == 200
        assert json.loads(raw)["results"][0]["tier"] == "silver"

        # The shed counters surface in /metrics per tier.
        status, _, body = http_json(f"{url}/metrics")
        text = body.decode("utf-8")
        assert "dance_qos_rate_limited_total 1" in text
        assert "dance_qos_deadline_exceeded_total 1" in text
        assert 'dance_tier_requests_total{tier="gold"} 1' in text
    finally:
        server.graceful_shutdown(timeout=10.0)
        thread.join(timeout=10.0)
        service.close()


def test_batch_summary_carries_error_types():
    with AcquisitionService(small_marketplace(), small_config(seed=0)) as service:
        good = request_from_spec(
            {"source": ["measure"], "target": ["label"], "budget": 1e9}
        )
        bad = request_from_spec(
            {"source": ["measure"], "target": ["no_such_attribute"], "budget": 1e9}
        )
        batch = service.acquire_batch([good, bad], seeds=[1, 2])
    summaries = batch.summary()
    assert "error" not in summaries[0]
    assert summaries[1]["error_type"] == "InfeasibleAcquisitionError"
    assert "Traceback" not in json.dumps(summaries)
