"""Serving-side metrics: latency histograms and a QPS registry.

The gateway records one observation per completed request —
``(endpoint, status, latency_ms)`` — into a :class:`MetricsRegistry`,
which the ``GET /stats`` endpoint renders as plain JSON.  Latencies go
into fixed log-spaced buckets
(:class:`repro.obs.metrics.LatencyHistogram`), so the
registry costs O(1) memory per endpoint regardless of traffic volume
and percentiles are read off the cumulative bucket counts with
within-bucket linear interpolation.

Everything here is plain data + a lock: the registry is shared between
the asyncio gateway loop and any thread that wants a snapshot (the CLI's
drain summary, tests), so mutation is guarded even though the gateway
itself is single-threaded.
"""

from __future__ import annotations

import threading
import time

from ..obs.metrics import LatencyHistogram

__all__ = ["MetricsRegistry"]


class _EndpointMetrics:
    """Per-endpoint counters: status breakdown + latency histogram."""

    def __init__(self) -> None:
        self.by_status: dict[int, int] = {}
        self.latency = LatencyHistogram()

    def observe(self, status: int, latency_ms: float) -> None:
        self.by_status[status] = self.by_status.get(status, 0) + 1
        self.latency.observe(latency_ms)

    def as_dict(self) -> dict[str, object]:
        return {
            "requests": self.latency.count,
            "by_status": {
                str(status): count
                for status, count in sorted(self.by_status.items())
            },
            "latency": self.latency.as_dict(),
        }


class MetricsRegistry:
    """Thread-safe request metrics keyed by endpoint.

    Tracks, per endpoint, a status-code breakdown and a latency
    histogram, plus gateway-level shed counters (requests refused by
    admission control or rate limiting before reaching a worker) and a
    cumulative QPS figure over the registry's lifetime.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: dict[str, _EndpointMetrics] = {}
        self._started = time.monotonic()
        self._completed = 0
        self._shed_overload = 0
        self._shed_rate_limited = 0
        self._shed_draining = 0
        self._shed_timeout = 0

    def observe(
        self, endpoint: str, status: int, latency_ms: float
    ) -> None:
        """Record one completed request."""
        with self._lock:
            metrics = self._endpoints.get(endpoint)
            if metrics is None:
                metrics = self._endpoints[endpoint] = _EndpointMetrics()
            metrics.observe(status, latency_ms)
            self._completed += 1
            if status == 429:
                self._shed_rate_limited += 1
            elif status == 504:
                self._shed_timeout += 1

    def note_shed(self, reason: str) -> None:
        """Count a request refused before any worker was involved
        (``reason`` is ``"overload"`` or ``"draining"``)."""
        with self._lock:
            if reason == "overload":
                self._shed_overload += 1
            elif reason == "draining":
                self._shed_draining += 1
            else:
                raise ValueError(f"unknown shed reason {reason!r}")

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def snapshot(self) -> dict[str, object]:
        """Plain-data view of every counter (JSON-ready)."""
        with self._lock:
            uptime = max(self.uptime_s, 1e-9)
            return {
                "uptime_s": round(uptime, 3),
                "completed": self._completed,
                "qps": round(self._completed / uptime, 3),
                "shed_overload": self._shed_overload,
                "shed_rate_limited": self._shed_rate_limited,
                "shed_draining": self._shed_draining,
                "shed_timeout": self._shed_timeout,
                "endpoints": {
                    endpoint: metrics.as_dict()
                    for endpoint, metrics in sorted(
                        self._endpoints.items()
                    )
                },
            }
