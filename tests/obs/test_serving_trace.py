"""Cross-process tracing through the serving tier: the gateway's
stitched span tree, the X-Trace-Id request/response contract, the
/trace/recent endpoint, the aggregated /stats service view, and
trace-id survival across a worker crash -> respawn."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.config import ServiceConfig
from repro.obs.trace import Tracer, set_global_tracer
from repro.serving import Gateway, GatewayConfig, WorkerPool, WorkerSpec
from repro.serving.loadgen import http_request

pytestmark = pytest.mark.concurrency

NO_CACHE = ServiceConfig(cache_capacity=None)


@pytest.fixture(scope="module")
def pool(snapshot_dir):
    spec = WorkerSpec(snapshot=str(snapshot_dir), config=ServiceConfig(cache_capacity=None))
    with WorkerPool(spec, size=2) as running:
        yield running


@pytest.fixture(scope="module")
def gateway(pool):
    gw = Gateway(pool, GatewayConfig(port=0, max_inflight=8))
    gw.start_in_thread()
    try:
        yield gw
    finally:
        gw.initiate_drain()
        assert gw.wait_finished(10.0)


@pytest.fixture(scope="module")
def url(gateway):
    return f"http://127.0.0.1:{gateway.port}"


def _request_with_headers(gateway, method, path, body=None, headers=None):
    """Like loadgen.http_request but also returns response headers."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", gateway.port, timeout=30
    )
    try:
        payload = json.dumps(body).encode() if body is not None else None
        connection.request(
            method,
            path,
            body=payload,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        parsed = json.loads(response.read().decode() or "null")
        return response.status, parsed, dict(response.getheaders())
    finally:
        connection.close()


class TestGatewayTracing:
    def test_traced_search_stitches_one_connected_tree(
        self, tracer, gateway, url
    ):
        status, body = http_request(
            url, "POST", "/search", {"query": "t00042 t00137", "k": 5}
        )
        assert status == 200
        trace_id = body["trace_id"]
        assert len(trace_id) == 16

        spans = tracer.take_trace(trace_id)
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        (gateway_span,) = by_name["gateway.search"]
        (worker_span,) = by_name["worker.search"]
        (service_span,) = by_name["service.search"]
        # The worker's forced root re-parents under the gateway span,
        # and the worker-side service span under the worker root.
        assert gateway_span["parent_id"] is None
        assert worker_span["parent_id"] == gateway_span["span_id"]
        assert service_span["parent_id"] == worker_span["span_id"]
        ids = {s["span_id"] for s in spans}
        for span in spans:
            assert span["trace_id"] == trace_id
            if span["parent_id"] is not None:
                assert span["parent_id"] in ids

    def test_response_echoes_trace_id_header(self, tracer, gateway):
        status, body, headers = _request_with_headers(
            gateway, "POST", "/search", {"query": "t00042", "k": 3}
        )
        assert status == 200
        assert headers["X-Trace-Id"] == body["trace_id"]

    def test_client_supplied_trace_id_forces_tracing(self, gateway):
        """Even with the tracer switch off, X-Trace-Id opts one request
        into tracing under the caller's id."""
        disabled = Tracer(enabled=False)
        previous = set_global_tracer(disabled)
        try:
            wanted = "c1ien75upp1ied00"
            status, body, headers = _request_with_headers(
                gateway,
                "POST",
                "/search",
                {"query": "t00042", "k": 3},
                headers={"X-Trace-Id": wanted},
            )
            assert status == 200
            assert body["trace_id"] == wanted
            assert headers["X-Trace-Id"] == wanted
            spans = disabled.take_trace(wanted)
            assert {s["name"] for s in spans} >= {
                "gateway.search", "worker.search",
            }
        finally:
            set_global_tracer(previous)

    def test_untraced_search_has_no_trace_id(self, gateway, url):
        disabled = Tracer(enabled=False)
        previous = set_global_tracer(disabled)
        try:
            status, body = http_request(
                url, "POST", "/search", {"query": "t00042", "k": 3}
            )
            assert status == 200
            assert "trace_id" not in body
            assert disabled.recent() == []
        finally:
            set_global_tracer(previous)

    def test_trace_recent_endpoint(self, tracer, gateway, url):
        status, body = http_request(
            url, "POST", "/search", {"query": "t00137", "k": 3}
        )
        assert status == 200
        status, listing = http_request(url, "GET", "/trace/recent")
        assert status == 200
        traces = {t["trace_id"]: t for t in listing["traces"]}
        assert body["trace_id"] in traces
        names = {s["name"] for s in traces[body["trace_id"]]["spans"]}
        assert "gateway.search" in names and "worker.search" in names

    def test_stats_aggregates_worker_services(self, gateway, url):
        status, body = http_request(url, "GET", "/stats")
        assert status == 200
        service = body["service"]
        assert service["workers_reporting"] == 2
        assert service["workers_errored"] == 0
        total = service["cache_hits"] + service["cache_misses"]
        assert service["cache_hit_rate"] <= 1.0
        assert service["traffic"]["total_messages"] > 0
        latency = service["latency"]
        assert latency["count"] >= 1
        assert latency["count"] >= total or total >= 0  # plain-data sane
        # Per-worker entries still present alongside the aggregate.
        assert len(body["workers"]) == 2


class TestCrashSurvival:
    def test_trace_id_survives_crash_and_respawn(self, snapshot_dir):
        """A worker dies; the respawned process must still honor the
        trace envelope and ship spans back under the same trace id."""
        spec = WorkerSpec(snapshot=str(snapshot_dir), config=ServiceConfig(cache_capacity=None))
        with WorkerPool(spec, size=1) as pool:
            envelope = {
                "query": "t00042 t00137",
                "k": 5,
                "trace": {
                    "trace_id": "feedfacefeedface",
                    "parent_span_id": "beefbeefbeefbeef",
                },
            }
            first = pool.submit("search", dict(envelope)).result(30)
            assert first["trace"]["trace_id"] == "feedfacefeedface"

            pool.submit_to(0, "crash", {})
            # The monitor detects the death and respawns the slot; the
            # next submit may race the respawn, so retry briefly.
            import time

            deadline = time.monotonic() + 30
            second = None
            while time.monotonic() < deadline:
                try:
                    second = pool.submit(
                        "search", dict(envelope)
                    ).result(30)
                    break
                except Exception:
                    time.sleep(0.1)
            assert second is not None, "respawned worker never answered"
            assert second["trace"]["trace_id"] == "feedfacefeedface"
            spans = second["trace"]["spans"]
            (worker_root,) = [
                s for s in spans if s["name"] == "worker.search"
            ]
            assert worker_root["parent_id"] == "beefbeefbeefbeef"
            assert worker_root["trace_id"] == "feedfacefeedface"
            assert {s["name"] for s in spans} >= {
                "worker.search", "service.search",
            }
            assert pool.stats()["respawns"] >= 1
