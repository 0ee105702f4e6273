"""Stdlib-only asyncio HTTP gateway over a :class:`WorkerPool`.

The network edge of the reproduction: a single-threaded asyncio server
speaking enough HTTP/1.1 (keep-alive, Content-Length bodies) to front
the process-parallel search workers.  Endpoints:

========================  ====================================================
``POST /search``          ``{"query": str, "k": int}`` → one ranked response
``POST /search_batch``    ``{"queries": [str, ...], "k": int}`` → per-query
                          responses + batch aggregates
``GET  /healthz``         readiness: 200 while serving, 503 once draining
``GET  /stats``           gateway metrics + pool counters + a fleet-wide
                          service aggregate + per-worker service
                          statistics, all plain JSON
``GET  /trace/recent``    the most recent stitched traces from the
                          process-wide tracer (see :mod:`repro.obs`)
========================  ====================================================

Tracing: when the global tracer is enabled (``repro serve --trace-dir``)
every ``/search`` request runs under a ``gateway.search`` root span
whose ids ride the pool envelope; the worker's spans ship back in the
reply and are re-parented into one connected tree.  A client-supplied
``X-Trace-Id`` header names the trace (and force-traces that single
request even when the tracer is off); the response always echoes the
trace id back as ``X-Trace-Id``.

Admission control happens *before* any worker is involved, in strict
order: a draining gateway sheds with 503, a client over its token bucket
sheds with 429, and a full in-flight window (``max_inflight``) sheds
with 503 — all three are constant-time fast paths, so overload never
queues unboundedly in front of the pool.

Behind admission, every wait on the pool is bounded by
``request_timeout_s``: a request whose worker has not answered by then
gets 504 and frees its in-flight slot, and if that worker has answered
*nothing* for as long it is wedged, not queueing, and is killed (the
pool respawns it; what else was assigned to it answers 500).

An error the worker itself reports is a JSON body on a connection that
stays open: 400 when the worker raised ``RetrievalError`` (the query is
the client's — e.g. empty after pre-processing), 500 for anything else,
and for a worker that died.

While it serves, the gateway borrows the pool's read side
(:meth:`WorkerPool.lend_reader`): worker replies are read by this event
loop itself, not handed over from another thread.

Graceful drain (SIGTERM or :meth:`Gateway.initiate_drain`): the
readiness probe flips unready immediately, new search requests are
refused, every in-flight request runs to completion, and only then does
the listener close — zero in-flight requests are dropped, and a load
balancer watching ``/healthz`` stops routing before the socket goes
away.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError
from ..obs.metrics import LatencyHistogram
from ..obs.trace import get_tracer
from .metrics import MetricsRegistry
from .pool import (
    PoolShutdownError,
    WorkerCrashError,
    WorkerPool,
    WorkerRequestError,
)

__all__ = [
    "Gateway",
    "GatewayConfig",
    "TokenBucket",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Deepest accepted ``"k"``: a reply is pickled, framed and JSON-encoded
#: whole, so its size must not be the client's to choose.
_MAX_K = 1000

#: Endpoint -> allowed method (anything else on the path is a 405).
_ROUTES = {
    "/search": "POST",
    "/search_batch": "POST",
    "/healthz": "GET",
    "/stats": "GET",
    "/trace/recent": "GET",
}


class _HttpError(Exception):
    """A request that must be answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class TokenBucket:
    """Per-client token bucket: ``rate`` requests/second sustained,
    bursts up to ``burst`` (refilled continuously on demand)."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = time.monotonic()

    def try_take(self) -> bool:
        """Take one token if available; refills lazily."""
        now = time.monotonic()
        self.tokens = min(
            self.burst, self.tokens + (now - self.updated) * self.rate
        )
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class GatewayConfig:
    """Gateway knobs.

    Attributes:
        host / port: listen address (``port=0`` picks a free port,
            readable from :attr:`Gateway.port` once serving).
        max_inflight: admission-control window — search requests beyond
            this many simultaneously in the pool are shed with 503.
        rate_limit: per-client sustained requests/second; ``0`` disables
            rate limiting.
        rate_burst: per-client burst size (defaults to ``rate_limit``
            rounded up, minimum 1, when left at 0).
        max_body_bytes: request bodies beyond this are refused with 413.
        max_batch: longest accepted ``/search_batch`` query list.
        default_k: result depth when the request body omits ``"k"``.
        request_timeout_s: longest a search request waits for its
            worker before it is answered 504 — and a worker that answers
            nothing for as long is recycled (see the module docstring);
            also the longest a request may take to arrive, from its
            first byte to its last (408 and close after that).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_inflight: int = 64
    rate_limit: float = 0.0
    rate_burst: float = 0.0
    max_body_bytes: int = 1 << 20
    max_batch: int = 256
    default_k: int = 10
    request_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.rate_limit < 0:
            raise ConfigurationError(
                f"rate_limit must be >= 0, got {self.rate_limit}"
            )
        if self.request_timeout_s <= 0:
            raise ConfigurationError(
                "request_timeout_s must be > 0, "
                f"got {self.request_timeout_s}"
            )
        if self.rate_burst <= 0:
            self.rate_burst = max(1.0, float(int(self.rate_limit + 0.999)))


class Gateway:
    """The asyncio HTTP server tying admission control, the worker
    pool, and the metrics registry together.

    Run it blocking on the current thread with :meth:`run` (the CLI
    path, with SIGTERM/SIGINT wired to graceful drain), or on a
    background thread with :meth:`start_in_thread` (tests, examples).
    The gateway does not own the pool's lifecycle: the caller starts the
    pool before and shuts it down after.
    """

    def __init__(
        self,
        pool: WorkerPool,
        config: GatewayConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.pool = pool
        self.config = config or GatewayConfig()
        self.metrics = metrics or MetricsRegistry()
        self.port: int | None = None  # set once the listener is bound
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._drain_started = False
        self._inflight = 0
        self._idle = asyncio.Event()  # set when _inflight falls to 0
        self._buckets: dict[str, TokenBucket] = {}
        self._ready = threading.Event()
        self._finished = threading.Event()
        self._thread: threading.Thread | None = None
        #: Optional zero-arg callback fired once the listener is bound
        #: (``self.port`` is final); the CLI uses it to announce the
        #: serving address.
        self.on_ready: Any = None

    # -- lifecycle ---------------------------------------------------------------

    def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until drained (blocking)."""
        asyncio.run(self._main(install_signal_handlers))

    def start_in_thread(self, timeout_s: float = 30.0) -> None:
        """Serve on a daemon thread; returns once the listener is bound
        (``self.port`` is then final)."""
        self._thread = threading.Thread(
            target=self.run,
            kwargs={"install_signal_handlers": False},
            name="gateway",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ConfigurationError(
                f"gateway did not start within {timeout_s}s"
            )

    def initiate_drain(self) -> None:
        """Begin graceful drain (thread-safe and signal-safe): healthz
        flips unready now, in-flight requests finish, then the listener
        closes and :meth:`run` returns."""
        self._draining = True  # visible to healthz immediately
        loop = self._loop
        if loop is None or self._finished.is_set():
            return  # not started yet, or already fully drained
        try:
            loop.call_soon_threadsafe(self._schedule_drain)
        except RuntimeError:
            pass  # lost the race against the loop closing: drained

    def wait_finished(self, timeout_s: float | None = None) -> bool:
        """Block until the drain completed and the listener closed."""
        return self._finished.wait(timeout_s)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def inflight(self) -> int:
        return self._inflight

    async def _main(self, install_signal_handlers: bool) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.initiate_drain)
        # False when another gateway over this pool already reads it:
        # replies then still arrive, through the pool futures' own
        # thread-safe hand-off.
        self.pool.lend_reader(self._loop)
        self._ready.set()
        if self.on_ready is not None:
            self.on_ready()
        try:
            await self._stopped.wait()
        finally:
            self.pool.return_reader(self._loop)
            self._finished.set()

    def _schedule_drain(self) -> None:
        if not self._drain_started:
            self._drain_started = True
            asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        self._draining = True
        # In-flight requests finish first: the listener closes only
        # after the last one left the pool.  Its handler runs before
        # this task does and hands the whole response to the transport;
        # only one above the write buffer's high-water mark (64 KiB) is
        # still being flushed while the loop winds down — for those,
        # delivery is the transport's best effort, not a guarantee.
        while self._inflight > 0:
            self._idle.clear()
            await self._idle.wait()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        self._stopped.set()

    # -- connection handling -----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_ip = peer[0] if isinstance(peer, tuple) else "unknown"
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    writer.write(_encode_error(error, close=True))
                    await writer.drain()
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                if request is None:
                    break  # clean EOF between requests
                method, path, headers, body = request
                started = time.perf_counter()
                extra_headers: dict[str, str] | None = None
                try:
                    status, payload, extra_headers = await self._dispatch(
                        method, path, headers, body, peer_ip
                    )
                except _HttpError as error:
                    status, payload = error.status, {
                        "error": error.message
                    }
                latency_ms = (time.perf_counter() - started) * 1000.0
                self.metrics.observe(path, status, latency_ms)
                close = (
                    self._draining
                    or headers.get("connection", "").lower() == "close"
                )
                writer.write(
                    _encode_response(status, payload, close, extra_headers)
                )
                await writer.drain()
                if close:
                    break
        except ConnectionError:
            pass  # client went away mid-write; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Read one request; ``None`` on a clean EOF between requests.

        The wait for a request's first byte is unbounded (an idle
        keep-alive connection costs nothing); from there to its last
        body byte the request must arrive within ``request_timeout_s``.
        """
        first = await reader.read(1)
        if not first:
            return None
        try:
            async with asyncio.timeout(self.config.request_timeout_s):
                return await self._read_rest(first, reader)
        except TimeoutError:
            raise _HttpError(408, "request not received in time") from None
        except ValueError:  # a line beyond the StreamReader's limit
            raise _HttpError(431, "request head line too long") from None

    async def _read_rest(
        self, first: bytes, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes]:
        line = first if first == b"\n" else first + await reader.readline()
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _HttpError(400, "truncated headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise _HttpError(400, "malformed Content-Length")
        if length > self.config.max_body_bytes:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method, path, headers, body

    # -- request dispatch --------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
        peer_ip: str,
    ) -> tuple[int, dict[str, Any], dict[str, str] | None]:
        allowed = _ROUTES.get(path)
        if allowed is None:
            return 404, {"error": f"unknown endpoint {path!r}"}, None
        if method != allowed:
            return 405, {
                "error": f"{path} only accepts {allowed}, got {method}"
            }, None
        if path == "/healthz":
            if self._draining:
                return 503, {"status": "draining", "ready": False}, None
            return 200, {"status": "ok", "ready": True}, None
        if path == "/trace/recent":
            return 200, {"traces": get_tracer().recent_traces()}, None
        if path == "/stats":
            # The per-worker stats fan-out waits on pool futures, so it
            # runs on the default executor instead of blocking the loop.
            payload = await asyncio.get_running_loop().run_in_executor(
                None, self._stats_payload
            )
            return 200, payload, None
        # The two search surfaces: admission control, then the pool.
        if self._draining:
            self.metrics.note_shed("draining")
            return 503, {"error": "draining", "retry_after_s": 1}, None
        client_id = headers.get("x-client-id", peer_ip)
        if not self._admit_client(client_id):
            return 429, {
                "error": f"client {client_id!r} over rate limit",
                "retry_after_s": 1,
            }, None
        if self._inflight >= self.config.max_inflight:
            self.metrics.note_shed("overload")
            return 503, {
                "error": (
                    f"gateway at max_inflight={self.config.max_inflight}"
                ),
                "retry_after_s": 1,
            }, None
        method_name, payload = self._parse_search_body(path, body)
        tracer = get_tracer()
        client_tid = headers.get("x-trace-id") or None
        gw_span = None
        if method_name == "search" and (tracer.active or client_tid):
            # One root per traced request; its ids ride the pool
            # envelope so the worker's spans re-parent under it.  A
            # client-named trace id force-records even when the tracer
            # switch is off (per-request opt-in).
            gw_span = tracer.root(
                "gateway.search",
                trace_id=client_tid,
                force=client_tid is not None,
                client=client_id,
            )
            if gw_span.recording:
                payload["trace"] = {
                    "trace_id": gw_span.trace_id,
                    "parent_span_id": gw_span.span_id,
                }
            else:
                gw_span = None
        trace_headers: dict[str, str] | None = None
        self._inflight += 1
        try:
            if gw_span is not None:
                with gw_span:
                    result = await self._ask_pool(method_name, payload)
                worker_trace = result.pop("trace", None)
                if worker_trace is not None:
                    tracer.adopt(worker_trace.get("spans") or [])
                result["trace_id"] = gw_span.trace_id
                trace_headers = {"X-Trace-Id": gw_span.trace_id}
            else:
                result = await self._ask_pool(method_name, payload)
        except WorkerRequestError as exc:
            # The worker answered, with an error: the query's fault when
            # retrieval rejected it, the server's otherwise.
            status = 400 if exc.kind == "RetrievalError" else 500
            return status, {"error": str(exc)}, trace_headers
        except WorkerCrashError as exc:
            return 500, {"error": str(exc)}, trace_headers
        except PoolShutdownError as exc:
            return 503, {"error": str(exc)}, trace_headers
        except TimeoutError:  # counted as shed_timeout by its status
            return 504, {
                "error": (
                    "no worker reply within "
                    f"{self.config.request_timeout_s:g}s"
                ),
            }, trace_headers
        finally:
            self._inflight -= 1
            if not self._inflight:
                self._idle.set()
        return 200, result, trace_headers

    async def _ask_pool(
        self, method_name: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """One bounded wait on the pool; on expiry the worker the
        request was assigned to is recycled if it is wedged — it has
        answered nothing for the whole wait; one working through a
        queue is left to it, at the price of this request only."""
        future = self.pool.submit(method_name, payload)
        try:
            # timeout(), not wait_for(): no Task per request.
            async with asyncio.timeout(self.config.request_timeout_s):
                return await asyncio.wrap_future(future)
        except TimeoutError:
            self.pool.recycle(
                future, stalled_s=self.config.request_timeout_s
            )
            raise

    def _admit_client(self, client_id: str) -> bool:
        if self.config.rate_limit <= 0:
            return True
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = self._buckets[client_id] = TokenBucket(
                self.config.rate_limit, self.config.rate_burst
            )
        return bucket.try_take()

    def _parse_search_body(
        self, path: str, body: bytes
    ) -> tuple[str, dict[str, Any]]:
        try:
            parsed = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError):
            raise _HttpError(400, "request body is not valid JSON") from None
        if not isinstance(parsed, dict):
            raise _HttpError(400, "request body must be a JSON object")
        k = parsed.get("k", self.config.default_k)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise _HttpError(400, f"'k' must be a positive integer, got {k!r}")
        if k > _MAX_K:
            raise _HttpError(400, f"'k' must be at most {_MAX_K}, got {k}")
        if path == "/search":
            query = parsed.get("query")
            if not isinstance(query, str) or not query.strip():
                raise _HttpError(400, "'query' must be a non-empty string")
            return "search", {"query": query, "k": k}
        queries = parsed.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _HttpError(400, "'queries' must be a non-empty list")
        if len(queries) > self.config.max_batch:
            raise _HttpError(
                400,
                f"batch of {len(queries)} exceeds max_batch="
                f"{self.config.max_batch}",
            )
        if not all(isinstance(q, str) and q.strip() for q in queries):
            raise _HttpError(400, "'queries' must be non-empty strings")
        return "search_batch", {"queries": queries, "k": k}

    def _stats_payload(self) -> dict[str, Any]:
        # One fan-out, two views: the raw per-worker entries and the
        # fleet-wide "service" aggregate derived from the same replies
        # (no second round of worker stats round-trips).
        workers = self.pool.worker_stats()
        return {
            "gateway": {
                "draining": self._draining,
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "rate_limit": self.config.rate_limit,
                "clients_seen": len(self._buckets),
                **self.metrics.snapshot(),
            },
            "service": _aggregate_worker_stats(workers),
            "pool": self.pool.stats(),
            "workers": workers,
        }


def _aggregate_worker_stats(
    workers: list[dict[str, Any]]
) -> dict[str, Any]:
    """Fold per-worker ``SearchService.stats()`` replies into one
    fleet-wide view: summed cache counters, summed traffic totals, and
    the per-worker latency histograms merged (via their lossless
    ``latency_state`` twins) into a single distribution."""
    reporting = [w for w in workers if "error" not in w]
    hits = sum(int(w.get("cache_hits", 0)) for w in reporting)
    misses = sum(int(w.get("cache_misses", 0)) for w in reporting)
    traffic_totals = {
        key: sum(
            int((w.get("traffic") or {}).get(key, 0)) for w in reporting
        )
        for key in (
            "indexing_postings",
            "retrieval_postings",
            "maintenance_postings",
            "total_postings",
            "total_messages",
            "total_hops",
        )
    }
    merged: LatencyHistogram | None = None
    for worker in reporting:
        state = worker.get("latency_state")
        if not state:
            continue
        histogram = LatencyHistogram.from_state(state)
        if merged is None:
            merged = histogram
        else:
            merged.merge(histogram)
    overlay = _merge_overlay_stats(
        [w["overlay"] for w in reporting if isinstance(w.get("overlay"), dict)]
    )
    aggregate = {
        "workers_reporting": len(reporting),
        "workers_errored": len(workers) - len(reporting),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": round(hits / max(1, hits + misses), 4),
        "traffic": traffic_totals,
        "latency": merged.as_dict() if merged is not None else None,
    }
    if overlay is not None:
        aggregate["overlay"] = overlay
    return aggregate


#: Overlay stats keys that describe configuration/shape, not events —
#: identical across workers, so the aggregate takes the first reporting
#: worker's value instead of summing them into nonsense.
_OVERLAY_CONFIG_KEYS = frozenset(
    {"fanout", "clusters", "peers", "path_cache_capacity", "adaptive"}
)


def _merge_overlay_stats(
    overlays: list[dict[str, Any]]
) -> dict[str, Any] | None:
    """Fold per-worker ``hdk_super`` overlay stats into one view.

    Counters sum; config/shape keys take the first worker's value;
    keyed sub-dicts (``sp_load``, ``per_super_peer``) merge *per key*,
    so a super-peer hot on one worker is not averaged away — each
    worker simulates its own network, and summing whole dicts blind to
    their keys was exactly the attribution loss this repairs."""
    if not overlays:
        return None
    merged: dict[str, Any] = {}
    for overlay in overlays:
        for key, value in overlay.items():
            if key in _OVERLAY_CONFIG_KEYS or key == "path_cache_hit_rate":
                merged.setdefault(key, value)
            elif isinstance(value, dict):
                merged.setdefault(key, {})
                _merge_keyed_counts(merged[key], value)
            elif isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
            else:
                merged.setdefault(key, value)
    hits = merged.get("path_cache_hits", 0)
    misses = merged.get("path_cache_misses", 0)
    merged["path_cache_hit_rate"] = round(
        hits / max(1, hits + misses), 4
    )
    return merged


def _merge_keyed_counts(
    into: dict[str, Any], update: dict[str, Any]
) -> None:
    """Per-key recursive sum (``per_super_peer`` values are themselves
    counter dicts)."""
    for key, value in update.items():
        if isinstance(value, dict):
            into.setdefault(key, {})
            _merge_keyed_counts(into[key], value)
        elif isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value
        else:
            into.setdefault(key, value)


def _encode_response(
    status: int,
    payload: dict[str, Any],
    close: bool,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    extra = ""
    if status in (429, 503):
        extra = "Retry-After: 1\r\n"
    for name, value in (extra_headers or {}).items():
        extra += f"{name}: {value}\r\n"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"{extra}\r\n"
    )
    return head.encode("latin-1") + body


def _encode_error(error: _HttpError, close: bool) -> bytes:
    return _encode_response(
        error.status, {"error": error.message}, close
    )
