"""The serving subsystem: a network edge for the reproduction.

``repro.serving`` turns the library-invoked :class:`repro.SearchService`
into a deployable search tier:

- :mod:`repro.serving.pool` — a pool of worker *processes*, each loading
  the same :meth:`SearchService.save` snapshot (true multi-core; the GIL
  ceiling of the thread benches does not apply);
- :mod:`repro.serving.gateway` — a stdlib-only asyncio HTTP gateway
  (``POST /search``, ``POST /search_batch``, ``GET /healthz``,
  ``GET /stats``) with admission control, per-client token-bucket rate
  limits, and graceful SIGTERM drain;
- :mod:`repro.serving.metrics` — the per-endpoint QPS/latency registry
  surfaced on ``/stats`` (histograms are :mod:`repro.obs.metrics`);
- :mod:`repro.serving.loadgen` — the closed-loop load generator the
  serving bench and the CI smoke drive the gateway with.

Wired to the CLI as ``repro serve`` (see :mod:`repro.cli`); the
end-to-end walkthrough is ``examples/serving_gateway.py``.
"""

from importlib import import_module
from typing import Any

#: Public name -> defining submodule, resolved lazily (PEP 562).  Lazy
#: so ``python -m repro.serving.loadgen`` does not import the package's
#: other submodules first (runpy warns when the target module is
#: already in ``sys.modules``), and so importing the package stays free
#: of asyncio/multiprocessing machinery until it is actually used.
_EXPORTS = {
    "Gateway": "gateway",
    "GatewayConfig": "gateway",
    "TokenBucket": "gateway",
    "LoadReport": "loadgen",
    "run_load": "loadgen",
    "run_smoke": "loadgen",
    "wait_ready": "loadgen",
    "MetricsRegistry": "metrics",
    "PoolShutdownError": "pool",
    "WorkerCrashError": "pool",
    "WorkerPool": "pool",
    "WorkerSpec": "pool",
}


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(import_module(f".{submodule}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "Gateway",
    "GatewayConfig",
    "LoadReport",
    "MetricsRegistry",
    "PoolShutdownError",
    "TokenBucket",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerSpec",
    "run_load",
    "run_smoke",
    "wait_ready",
]
