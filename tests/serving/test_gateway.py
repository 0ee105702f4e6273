"""Gateway protocol tests: byte-identical results over HTTP, every
error-path status code, admission control, and graceful drain."""

from __future__ import annotations

import http.client
import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.config import ServiceConfig
from repro.errors import ConfigurationError
from repro.serving import Gateway, GatewayConfig, TokenBucket, WorkerPool, WorkerSpec
from repro.serving.loadgen import http_request, run_load
from repro.serving.pool import response_payload


@pytest.fixture(scope="module")
def pool(snapshot_dir):
    # A small simulated per-hop link latency keeps requests in flight
    # long enough for the admission-control and drain tests to observe
    # them, without slowing the module meaningfully.
    spec = WorkerSpec(
        snapshot=str(snapshot_dir),
        config=ServiceConfig(cache_capacity=None),
        link_latency_s=0.002,
    )
    with WorkerPool(spec, size=2) as running:
        yield running


@contextmanager
def serving(pool, **config_kwargs):
    """Boot a gateway over ``pool`` on a free port; drain on exit."""
    gateway = Gateway(pool, GatewayConfig(port=0, **config_kwargs))
    gateway.start_in_thread()
    try:
        yield gateway, f"http://127.0.0.1:{gateway.port}"
    finally:
        gateway.initiate_drain()
        assert gateway.wait_finished(10.0)


@pytest.fixture(scope="module")
def gateway(pool):
    with serving(pool, max_inflight=8, max_batch=8) as (gw, _url):
        yield gw


@pytest.fixture(scope="module")
def url(gateway):
    return f"http://127.0.0.1:{gateway.port}"


def _raw_request(gateway, method, path, raw_body, content_length=None):
    """Send arbitrary (possibly invalid) bytes as the request body."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", gateway.port, timeout=10
    )
    try:
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(
                len(raw_body) if content_length is None else content_length
            ),
        }
        connection.putrequest(method, path, skip_host=False)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders(raw_body)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


def _comparable(payload):
    return {k: v for k, v in payload.items() if k != "elapsed_ms"}


class TestHappyPath:
    def test_healthz_ready(self, url):
        status, body = http_request(url, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "ok", "ready": True}

    def test_search_identical_to_direct_service(
        self, url, direct_service, query_log
    ):
        for query in query_log[:6]:
            status, body = http_request(
                url, "POST", "/search", {"query": query, "k": 10}
            )
            assert status == 200, body
            expected = response_payload(direct_service.search(query, k=10))
            assert _comparable(body) == _comparable(expected)

    def test_search_batch_identical_to_direct_service(
        self, url, direct_service, query_log
    ):
        queries = list(query_log[:8])
        status, body = http_request(
            url, "POST", "/search_batch", {"queries": queries, "k": 5}
        )
        assert status == 200, body
        assert len(body["responses"]) == len(queries)
        for query, payload in zip(queries, body["responses"]):
            expected = response_payload(direct_service.search(query, k=5))
            assert _comparable(payload) == _comparable(expected)

    def test_default_k_applies(self, url, query_log):
        status, body = http_request(
            url, "POST", "/search", {"query": query_log[0]}
        )
        assert status == 200
        assert body["k"] == GatewayConfig().default_k

    def test_stats_shape(self, pool, url, query_log):
        http_request(url, "POST", "/search", {"query": query_log[0], "k": 3})
        status, stats = http_request(url, "GET", "/stats")
        assert status == 200
        gateway_stats = stats["gateway"]
        assert gateway_stats["completed"] > 0
        assert "/search" in gateway_stats["endpoints"]
        latency = gateway_stats["endpoints"]["/search"]["latency"]
        assert {"p50_ms", "p95_ms", "p99_ms"} <= latency.keys()
        assert stats["pool"]["size"] == pool.size
        assert len(stats["workers"]) == pool.size
        assert json.loads(json.dumps(stats)) == stats

    def test_closed_loop_load_has_zero_failures(self, url, query_log):
        report = run_load(
            url, query_log, clients=3, requests_per_client=5, k=5
        )
        assert report.failed == 0, report.errors
        assert report.ok == 15
        assert report.percentile_ms(0.95) >= report.percentile_ms(0.50) > 0


class TestProtocolErrors:
    def test_malformed_json_is_400(self, gateway):
        status, body = _raw_request(
            gateway, "POST", "/search", b"{not json at all"
        )
        assert status == 400
        assert "JSON" in body["error"]

    def test_non_object_body_is_400(self, url):
        status, body = http_request(url, "POST", "/search", [1, 2, 3])
        assert status == 400
        assert "JSON object" in body["error"]

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # missing query
            {"query": "   "},  # blank query
            {"query": 7},  # wrong type
            {"query": "terms", "k": 0},  # non-positive k
            {"query": "terms", "k": "five"},  # non-integer k
        ],
    )
    def test_bad_search_bodies_are_400(self, url, payload):
        status, body = http_request(url, "POST", "/search", payload)
        assert status == 400, body
        assert "error" in body

    @pytest.mark.parametrize(
        "payload",
        [
            {"queries": []},  # empty batch
            {"queries": "not a list"},
            {"queries": ["ok", ""]},  # blank member
            {"queries": ["q"] * 9},  # exceeds max_batch=8
        ],
    )
    def test_bad_batch_bodies_are_400(self, url, payload):
        status, body = http_request(url, "POST", "/search_batch", payload)
        assert status == 400, body
        assert "error" in body

    def test_unknown_endpoint_is_404(self, url):
        status, body = http_request(url, "GET", "/nope")
        assert status == 404
        assert "/nope" in body["error"]

    def test_wrong_method_is_405(self, url):
        status, body = http_request(url, "GET", "/search")
        assert status == 405
        status, body = http_request(url, "POST", "/healthz")
        assert status == 405

    def test_oversized_body_is_413(self, pool, query_log):
        with serving(pool, max_body_bytes=64) as (gateway, _url):
            big = json.dumps({"query": "t " * 200, "k": 5}).encode()
            status, body = _raw_request(gateway, "POST", "/search", big)
            assert status == 413
            assert "large" in body["error"]


class TestAdmissionControl:
    def test_over_limit_client_is_429(self, pool, query_log):
        # rate 1/s with burst 1: the first request takes the only
        # token, the immediate second is shed for that client only.
        with serving(pool, rate_limit=1.0) as (_gateway, url):
            greedy = {"X-Client-Id": "greedy"}
            status, _ = http_request(
                url, "POST", "/search",
                {"query": query_log[0], "k": 3}, headers=greedy,
            )
            assert status == 200
            status, body = http_request(
                url, "POST", "/search",
                {"query": query_log[0], "k": 3}, headers=greedy,
            )
            assert status == 429
            assert "rate limit" in body["error"]
            # a different client still gets through
            status, _ = http_request(
                url, "POST", "/search",
                {"query": query_log[0], "k": 3},
                headers={"X-Client-Id": "patient"},
            )
            assert status == 200

    def test_full_inflight_window_sheds_503(self, pool, query_log):
        with serving(pool, max_inflight=1) as (gateway, url):
            results: list = []
            slow = threading.Thread(
                target=lambda: results.append(
                    http_request(
                        url, "POST", "/search_batch",
                        {"queries": list(query_log) * 4, "k": 5},
                    )
                )
            )
            slow.start()
            deadline = time.monotonic() + 5
            while gateway.inflight < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert gateway.inflight == 1
            status, body = http_request(
                url, "POST", "/search", {"query": query_log[0], "k": 3}
            )
            assert status == 503
            assert "max_inflight" in body["error"]
            slow.join()
            status, batch = results[0]
            assert status == 200  # the admitted batch was never dropped
            _status, stats = http_request(url, "GET", "/stats")
            assert stats["gateway"]["shed_overload"] >= 1


class TestGracefulDrain:
    def test_drain_finishes_inflight_then_closes(self, pool, query_log):
        with serving(pool, max_inflight=8) as (gateway, url):
            results: list = []
            slow = threading.Thread(
                target=lambda: results.append(
                    http_request(
                        url, "POST", "/search_batch",
                        {"queries": list(query_log) * 4, "k": 5},
                    )
                )
            )
            slow.start()
            deadline = time.monotonic() + 5
            while gateway.inflight < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert gateway.inflight >= 1

            gateway.initiate_drain()
            # 1. readiness flips immediately
            status, health = http_request(url, "GET", "/healthz")
            assert status == 503
            assert health["ready"] is False
            # 2. new search traffic is refused while draining
            status, body = http_request(
                url, "POST", "/search", {"query": query_log[0], "k": 3}
            )
            assert status == 503
            assert "draining" in body["error"]
            # 3. the in-flight batch still completes with 200
            slow.join()
            status, batch = results[0]
            assert status == 200
            assert len(batch["responses"]) == len(query_log) * 4
            # 4. only then does the listener close
            assert gateway.wait_finished(10.0)
            with pytest.raises(OSError):
                http_request(url, "GET", "/healthz", timeout_s=2.0)


class TestConfigAndBucket:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GatewayConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(rate_limit=-1.0)

    def test_burst_defaults_to_ceil_of_rate(self):
        assert GatewayConfig(rate_limit=2.5).rate_burst == 3.0
        assert GatewayConfig().rate_burst == 1.0

    def test_token_bucket_exhausts_and_refills(self):
        frozen = TokenBucket(rate=0.0, burst=2.0)
        assert frozen.try_take() and frozen.try_take()
        assert not frozen.try_take()  # rate 0 never refills

        bucket = TokenBucket(rate=50.0, burst=1.0)
        assert bucket.try_take()
        assert not bucket.try_take()
        time.sleep(0.05)  # ~2.5 tokens accrue, capped at burst
        assert bucket.try_take()
