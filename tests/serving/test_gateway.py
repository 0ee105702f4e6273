"""Gateway protocol tests: byte-identical results over HTTP, every
error-path status code, the request-read and pool deadlines, admission
control, the hand-over of the pool's read side, and graceful drain."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.config import ServiceConfig
from repro.errors import ConfigurationError
from repro.serving import Gateway, GatewayConfig, TokenBucket, WorkerPool, WorkerSpec
from repro.serving.loadgen import http_request, run_load
from repro.serving.pool import response_payload

pytestmark = pytest.mark.concurrency


@pytest.fixture(scope="module")
def pool(snapshot_dir):
    spec = WorkerSpec(
        snapshot=str(snapshot_dir),
        config=ServiceConfig(cache_capacity=None),
    )
    with WorkerPool(spec, size=2) as running:
        yield running


def _stall(pool, seconds):
    """Hold every worker of ``pool`` busy for ``seconds``: requests
    that arrive meanwhile stay in flight, queued behind the stalls.
    Returns the stalls' futures (each answers ``{}``)."""
    return [
        pool.submit_to(worker, "hang", {"seconds": seconds})
        for worker in range(pool.size)
    ]


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
            {"query": "terms", "k": True},  # bool is not a result depth
            {"query": "terms", "k": 1001},  # deeper than any reply goes
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
            {"queries": ["q"], "k": True},  # bool is not a result depth
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


def _read_until_closed(sock):
    """Everything the server sends until it closes the connection (a
    reset after the reply counts as closed: the server may close with
    request bytes it never read)."""
    received = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            return received
        if not chunk:
            return received
        received += chunk


class TestRequestReadDeadline:
    """From its first byte to its last, a request must arrive within
    ``request_timeout_s``; the wait for a first byte is unbounded."""

    def test_stalled_half_request_line_is_closed_within_the_deadline(
        self, pool
    ):
        with serving(pool, request_timeout_s=0.5) as (gateway, _url):
            with socket.create_connection(
                ("127.0.0.1", gateway.port), timeout=10
            ) as sock:
                started = time.monotonic()
                sock.sendall(b"POST /sea")
                reply = _read_until_closed(sock)
                elapsed = time.monotonic() - started
            assert reply.startswith(b"HTTP/1.1 408 "), reply
            assert 0.4 < elapsed < 5.0

    def test_overlong_header_line_is_431_and_serving_goes_on(self, url):
        port = int(url.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nX-Filler: "
                + b"a" * (70 * 1024)
                + b"\r\n\r\n"
            )
            reply = _read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 431 "), reply[:80]
        status, _ = http_request(url, "GET", "/healthz")
        assert status == 200

    def test_idle_keepalive_outlives_the_request_deadline(self, pool):
        with serving(pool, request_timeout_s=0.3) as (gateway, _url):
            connection = http.client.HTTPConnection(
                "127.0.0.1", gateway.port, timeout=10
            )
            try:
                for _ in range(2):
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
                    sock = connection.sock
                    time.sleep(0.8)  # idle past request_timeout_s
                # one connection throughout: never closed and reopened
                assert connection.sock is sock
            finally:
                connection.close()


class TestWorkerErrors:
    """An error the worker reports is an answer, not a dropped socket."""

    @pytest.mark.parametrize("query", ["!!!", "the of and"])
    def test_unusable_query_is_400_on_a_live_connection(
        self, gateway, query, query_log
    ):
        before = gateway.metrics.snapshot()["completed"]
        connection = http.client.HTTPConnection(
            "127.0.0.1", gateway.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/search", body=json.dumps({"query": query})
            )
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 400, body
            assert "empty after pre-processing" in body["error"]
            # the same keep-alive connection still serves
            connection.request(
                "POST", "/search",
                body=json.dumps({"query": query_log[0], "k": 3}),
            )
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["results"]
        finally:
            connection.close()
        assert gateway.metrics.snapshot()["completed"] == before + 2

    def test_batch_with_an_unusable_query_is_400(self, url, query_log):
        status, body = http_request(
            url, "POST", "/search_batch", {"queries": [query_log[0], "!!!"]}
        )
        assert status == 400, body
        assert "RetrievalError" in body["error"]

    def test_other_worker_errors_are_500(self, pool, monkeypatch):
        """Anything but a bad query is the server's fault."""
        with serving(pool) as (gateway, url):
            monkeypatch.setattr(
                gateway,
                "_parse_search_body",
                lambda path, body: ("bogus", {}),
            )
            status, body = http_request(
                url, "POST", "/search", {"query": "terms"}
            )
            assert status == 500, body
            assert "unknown method" in body["error"]
            status, _ = http_request(url, "GET", "/healthz")
            assert status == 200


def _wait_until(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


class TestPoolDeadline:
    def test_wedged_worker_costs_504_and_is_recycled(
        self, snapshot_dir, query_log
    ):
        """Worker 0 hangs; the /search that lands behind it gets 504 at
        the deadline while worker 1 keeps answering, and the wedged
        process is killed and respawned."""
        spec = WorkerSpec(
            snapshot=str(snapshot_dir),
            config=ServiceConfig(cache_capacity=None),
        )
        search = {"query": query_log[0], "k": 3}
        with WorkerPool(spec, size=2) as pool:
            with serving(pool, request_timeout_s=3.0) as (gateway, url):
                pool.submit_to(0, "hang", {})
                # One request each: the tie goes to the lowest slot, so
                # the next /search lands behind the hang on worker 0.
                busy = pool.submit_to(1, "hang", {"seconds": 2.0})
                results: list = []
                doomed = threading.Thread(
                    target=lambda: results.append(
                        http_request(url, "POST", "/search", search)
                    )
                )
                started = time.monotonic()
                doomed.start()
                assert _wait_until(
                    lambda: pool.stats()["per_worker"][0]["assigned"] == 2
                )
                # meanwhile worker 1 (the less loaded now) keeps answering
                assert busy.result(timeout=30) == {}
                status, body = http_request(url, "POST", "/search", search)
                assert status == 200, body
                doomed.join(30)
                status, body = results[0]
                assert status == 504, body
                assert "within 3s" in body["error"]
                assert time.monotonic() - started < 15.0
                assert gateway.inflight == 0
                # the wedged process was killed; its replacement serves
                assert _wait_until(lambda: pool.stats()["respawns"] >= 1)
                assert _wait_until(
                    lambda: pool.stats()["alive"] == pool.stats()["ready"] == 2
                )
                assert pool.submit_to(0, "search", dict(search)).result(30)[
                    "results"
                ]
                _status, served = http_request(url, "GET", "/stats")
                assert served["gateway"]["shed_timeout"] == 1
                by_status = served["gateway"]["endpoints"]["/search"][
                    "by_status"
                ]
                assert by_status["504"] == 1


    def test_slow_but_answering_worker_is_left_alone(
        self, snapshot_dir, query_log
    ):
        """One healthy worker behind on a queue of stalls, each shorter
        than the deadline: the requests queued behind them wait past it
        and cost their own 504 only, and a worker that keeps answering
        is never killed — no collateral 500s."""
        spec = WorkerSpec(
            snapshot=str(snapshot_dir),
            config=ServiceConfig(cache_capacity=None),
        )
        search = {"query": query_log[0], "k": 3}
        with WorkerPool(spec, size=1) as pool:
            with serving(pool, request_timeout_s=0.5) as (gateway, url):
                stalls = [
                    pool.submit_to(0, "hang", {"seconds": 0.25})
                    for _ in range(8)
                ]
                statuses: list[int] = []
                clients = [
                    threading.Thread(
                        target=lambda: statuses.append(
                            http_request(url, "POST", "/search", search)[0]
                        )
                    )
                    for _ in range(4)
                ]
                for client in clients:
                    client.start()
                for client in clients:
                    client.join(60)
                assert statuses == [504] * 4
                for stall in stalls:
                    assert stall.result(timeout=30) == {}
                assert pool.stats()["respawns"] == 0
                assert pool.stats()["alive"] == 1
                _status, served = http_request(url, "GET", "/stats")
                assert served["gateway"]["shed_timeout"] == 4
                # the queue drained; the same worker answers again
                status, _ = http_request(url, "POST", "/search", search)
                assert status == 200


class TestBackPressure:
    def test_oversized_request_to_a_busy_worker_blocks_nothing(
        self, snapshot_dir, query_log
    ):
        """A worker busy on a batch whose reply outgrows the socket
        buffer is sent a request that outgrows it too.  A loop blocked
        in that write could never read the reply its worker is blocked
        writing: both must finish, and /healthz answer meanwhile."""
        spec = WorkerSpec(
            snapshot=str(snapshot_dir),
            config=ServiceConfig(cache_capacity=None),
        )
        deep = {"queries": list(query_log) * 100, "k": 1000}
        padded = {"queries": [" " * 400_000 + query_log[0]], "k": 3}
        with WorkerPool(spec, size=1) as pool:
            with serving(pool, max_batch=len(deep["queries"])) as (_gw, url):
                replies: dict = {}

                def post(name, body):
                    replies[name] = http_request(
                        url, "POST", "/search_batch", body, timeout_s=60
                    )

                # the stall holds the worker while both requests arrive
                (stall,) = _stall(pool, 0.5)
                first = threading.Thread(target=post, args=("deep", deep))
                first.start()
                assert _wait_until(lambda: pool.stats()["inflight"] == 2)
                second = threading.Thread(target=post, args=("padded", padded))
                second.start()
                assert _wait_until(lambda: pool.stats()["inflight"] == 3)
                status, _ = http_request(url, "GET", "/healthz", timeout_s=10)
                assert status == 200
                first.join(60)
                second.join(60)
                assert stall.result(timeout=30) == {}
                status, body = replies["deep"]
                assert status == 200, body
                assert len(json.dumps(body)) > 400_000
                status, body = replies["padded"]
                assert status == 200, body
                assert body["responses"][0]["results"]
            assert pool.stats()["respawns"] == 0


class TestReaderHandOver:
    """Replies are read by exactly one loop: the pool's own, or — while
    one serves — a gateway's."""

    def test_reader_goes_to_the_gateway_and_comes_home(
        self, snapshot_dir, query_log, monkeypatch
    ):
        spec = WorkerSpec(
            snapshot=str(snapshot_dir),
            config=ServiceConfig(cache_capacity=None),
        )
        search = {"query": query_log[0], "k": 3}
        with WorkerPool(spec, size=2) as pool:
            lent: list[bool] = []
            lend_reader = pool.lend_reader

            def recording_lend(loop):
                lent.append(lend_reader(loop))
                return lent[-1]

            monkeypatch.setattr(pool, "lend_reader", recording_lend)
            # before any gateway: the pool's own loop reads
            assert pool.submit("search", dict(search)).result(30)["results"]
            assert pool._reader is pool._home
            with serving(pool) as (first, first_url):
                assert lent == [True]
                assert pool._reader is first._loop
                # a plain thread still gets its result while it is lent
                results: list = []
                worker = threading.Thread(
                    target=lambda: results.append(
                        pool.submit("search", dict(search)).result(30)
                    )
                )
                worker.start()
                worker.join(30)
                assert results and results[0]["results"]
                # a second gateway over the lent pool is refused the
                # reader and serves all the same
                with serving(pool) as (_second, second_url):
                    assert lent == [True, False]
                    for url in (first_url, second_url, first_url):
                        status, body = http_request(
                            url, "POST", "/search", search
                        )
                        assert status == 200, body
                # the second's drain must not take the reader away
                assert pool._reader is first._loop
                status, _ = http_request(first_url, "POST", "/search", search)
                assert status == 200
            # drained: the reader is home again
            assert pool._reader is pool._home
            assert pool.submit("search", dict(search)).result(30)["results"]
            assert pool.stats()["respawns"] == 0

    def test_worker_killed_while_lent_is_respawned(
        self, snapshot_dir, query_log
    ):
        spec = WorkerSpec(
            snapshot=str(snapshot_dir),
            config=ServiceConfig(cache_capacity=None),
        )
        search = {"query": query_log[0], "k": 3}
        with WorkerPool(spec, size=1) as pool:
            with serving(pool) as (_gateway, url):
                victim = pool._slots[0].process
                os.kill(victim.pid, signal.SIGKILL)
                assert _wait_until(lambda: pool.stats()["respawns"] == 1)
                # buffered for the replacement, answered through the gateway
                status, body = http_request(url, "POST", "/search", search)
                assert status == 200, body
                assert pool._slots[0].process is not victim
                assert pool.stats()["alive"] == pool.stats()["ready"] == 1
            # and the replacement's connection went home with the rest
            assert pool.submit("search", dict(search)).result(30)["results"]


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
            stalls = _stall(pool, 1.0)
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
            assert [stall.result(timeout=30) for stall in stalls] == [{}, {}]
            status, batch = results[0]
            assert status == 200  # the admitted batch was never dropped
            _status, stats = http_request(url, "GET", "/stats")
            assert stats["gateway"]["shed_overload"] >= 1


class TestGracefulDrain:
    def test_drain_finishes_inflight_then_closes(self, pool, query_log):
        with serving(pool, max_inflight=8) as (gateway, url):
            stalls = _stall(pool, 1.0)
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
            assert [stall.result(timeout=30) for stall in stalls] == [{}, {}]
            status, batch = results[0]
            assert status == 200
            assert len(batch["responses"]) == len(query_log) * 4
            # 4. only then does the listener close
            assert gateway.wait_finished(10.0)
            with pytest.raises(OSError):
                http_request(url, "GET", "/healthz", timeout_s=2.0)

    def test_drain_answers_or_closes_a_just_opened_connection(
        self, pool, caplog
    ):
        """A client that connected just before an idle drain gets a 503,
        an EOF or a reset within 2 s — never a hang — and no handler
        dies cancelled with a traceback."""
        request = b"GET /healthz HTTP/1.1\r\nHost: gateway\r\n\r\n"
        for _ in range(20):
            gateway = Gateway(pool, GatewayConfig(port=0))
            gateway.start_in_thread()
            with socket.create_connection(
                ("127.0.0.1", gateway.port), timeout=2.0
            ) as client:
                gateway.initiate_drain()
                try:
                    client.sendall(request)
                    reply = client.recv(65536)
                except (ConnectionResetError, BrokenPipeError):
                    reply = b""
                except TimeoutError:
                    pytest.fail("no answer and no close within 2 s")
            assert reply == b"" or reply.startswith(b"HTTP/1.1 503"), reply
            assert gateway.wait_finished(10.0)
        assert not [
            record for record in caplog.records if record.name == "asyncio"
        ]


class TestConfigAndBucket:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GatewayConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(rate_limit=-1.0)
        with pytest.raises(ConfigurationError, match="request_timeout_s"):
            GatewayConfig(request_timeout_s=0)

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
