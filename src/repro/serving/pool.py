"""Process-parallel ``SearchService`` worker pool.

The serving path's unit of parallelism is a *process*, not a thread:
each worker loads its own snapshot via :meth:`SearchService.load` and
answers queries fully independently, so a pool of N workers uses N cores
— the GIL ceiling the thread benches hit does not apply.  The gateway
(:mod:`repro.serving.gateway`) talks to the pool through
:meth:`WorkerPool.submit`, which returns a
:class:`concurrent.futures.Future` it can await.

Design:

- every worker process runs :func:`_worker_main`: load the snapshot,
  announce readiness, then loop over a private task queue dispatching
  ``search`` / ``search_batch`` / ``stats`` requests and pushing plain
  picklable dicts onto one shared result queue;
- the pool keeps a private task queue *per worker* so it always knows
  which in-flight requests are assigned where — when a worker dies, only
  its own requests fail (:class:`WorkerCrashError`), every other
  in-flight request is untouched, and a fresh process is respawned into
  the same slot.  The monitor thread only *detects* the death; it routes
  a sentinel through the shared result queue so the collector (the
  queue's single consumer) dooms the slot strictly after every reply the
  dead worker delivered before dying — a completed request is never
  failed just because its reply was still in the queue;
- dispatch is least-loaded: a new request goes to the worker with the
  fewest outstanding requests (ties to the lowest slot), which keeps the
  pool busy under a closed-loop client population without any work
  stealing;
- results marshal as plain dicts (ints, floats, strings, lists), never
  live service objects, so a response crosses the process boundary and
  then the JSON boundary untouched — and worker ``stats`` payloads ride
  the same rule via the pickle-safe :meth:`SearchService.stats`.

The ``crash`` method is deliberate fault injection (the worker hard-exits
without cleanup) used by the respawn tests and chaos drills; the gateway
never routes it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from queue import Empty
from typing import Any

from ..config import ServiceConfig
from ..errors import ConfigurationError, ReproError
from ..obs.trace import get_tracer

__all__ = [
    "PoolShutdownError",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerSpec",
    "response_payload",
]

#: Queue poll granularity for the collector/monitor threads (seconds).
_POLL_S = 0.05


class WorkerCrashError(ReproError):
    """A worker process died while this request was assigned to it."""


class PoolShutdownError(ReproError):
    """The pool is shut down and accepts no new requests."""


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its service.

    Picklable by construction — it crosses the process boundary at
    spawn time.

    Attributes:
        snapshot: the :meth:`SearchService.save` directory every worker
            loads (read-only: N workers share one snapshot).
        backend: backend-name override for the load (``None`` keeps the
            snapshot manifest's backend, typically ``hdk_disk``).
        link_latency_s: simulated per-hop link latency applied to the
            worker's serving phase — the WAN-shaped regime the repo's
            parallelism benches measure in.
        source_peer: the querying peer name (defaults to the service's
            first peer).
        config: the deployment knobs every worker's service is loaded
            with (per-worker query cache, memory budget, ...).
    """

    snapshot: str
    backend: str | None = None
    link_latency_s: float = 0.0
    source_peer: str | None = None
    config: ServiceConfig = ServiceConfig()


def response_payload(response: Any) -> dict[str, Any]:
    """Flatten a :class:`~repro.engine.backends.SearchResponse` into the
    plain dict that crosses the process and JSON boundaries.

    Scores stay full-precision floats: JSON round-trips Python floats
    exactly, so the gateway's results are byte-identical to a direct
    in-process :meth:`SearchService.search` on the same snapshot.
    """
    return {
        "backend": response.backend,
        "k": response.k,
        "results": [[r.doc_id, r.score] for r in response.results],
        "keys_looked_up": response.keys_looked_up,
        "keys_found": response.keys_found,
        "postings_transferred": response.postings_transferred,
        "cache_hit": response.cache_hit,
        "elapsed_ms": round(response.elapsed_ms, 3),
    }


def _worker_main(
    worker_id: int,
    spec: WorkerSpec,
    tasks: "multiprocessing.queues.Queue",
    results: "multiprocessing.queues.Queue",
) -> None:
    """Worker process entry point: load the snapshot, then serve the
    task queue until the ``None`` shutdown sentinel arrives."""
    # Import here: under the spawn start method this runs in a fresh
    # interpreter, and the parent's module state is not inherited.
    from ..engine.service import SearchService

    try:
        service = SearchService.load(
            spec.snapshot, backend=spec.backend, config=spec.config
        )
        service.network.link_latency_s = spec.link_latency_s
    except Exception as exc:  # surface load failures to the pool
        results.put(("__load_failed__", worker_id, repr(exc)))
        return
    results.put(("__ready__", worker_id, os.getpid()))
    while True:
        item = tasks.get()
        if item is None:
            return
        request_id, method, payload = item
        try:
            if method == "search":
                trace = payload.get("trace")
                if trace:
                    # The gateway's trace continues here: open a forced
                    # root parented on the gateway span (force records
                    # even though this process's tracer is disabled),
                    # then ship the finished spans back in the reply so
                    # the gateway can re-parent them into its trace.
                    tracer = get_tracer()
                    with tracer.root(
                        "worker.search",
                        trace_id=trace["trace_id"],
                        parent_id=trace.get("parent_span_id"),
                        force=True,
                        worker=worker_id,
                        pid=os.getpid(),
                    ):
                        response = service.search(
                            payload["query"],
                            k=payload.get("k", 10),
                            source_peer=spec.source_peer,
                        )
                    out = response_payload(response)
                    out["trace"] = {
                        "trace_id": trace["trace_id"],
                        "spans": tracer.take_trace(trace["trace_id"]),
                    }
                else:
                    response = service.search(
                        payload["query"],
                        k=payload.get("k", 10),
                        source_peer=spec.source_peer,
                    )
                    out = response_payload(response)
            elif method == "search_batch":
                report = service.search_batch(
                    payload["queries"],
                    k=payload.get("k", 10),
                    source_peer=spec.source_peer,
                )
                out = {
                    "responses": [
                        response_payload(r) for r in report.responses
                    ],
                    "cache_hits": report.cache_hits,
                    "cache_misses": report.cache_misses,
                    "elapsed_ms": round(report.elapsed_ms, 3),
                }
            elif method == "stats":
                out = service.stats()
            elif method == "crash":
                # Fault injection: die the way a segfaulting or
                # OOM-killed worker would — no reply, no cleanup.
                # Flush replies already handed to the queue's feeder
                # thread first, so the crash loses exactly the requests
                # that never completed.
                results.close()
                results.join_thread()
                os._exit(1)
            else:
                raise ValueError(f"unknown method {method!r}")
            results.put((request_id, "ok", out))
        except Exception as exc:
            results.put((request_id, "error", repr(exc)))


class _WorkerSlot:
    """One pool slot: a live process, its task queue, and the ids of the
    requests currently assigned to it."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process: multiprocessing.process.BaseProcess | None = None
        self.tasks: Any = None
        self.assigned: set[int] = set()
        self.served = 0
        # True between the monitor noticing this slot's process died and
        # the collector finishing the doom + respawn for it.
        self.dying = False


class WorkerPool:
    """A fixed-size pool of snapshot-loaded ``SearchService`` processes.

    Args:
        spec: the worker build recipe (snapshot path + knobs).
        size: number of worker processes.
        start_method: multiprocessing start method; ``spawn`` (the
            default) gives every worker a fresh interpreter — no
            fork-with-threads hazards, and the same behaviour on every
            platform.
        ready_timeout_s: how long :meth:`start` waits for all workers to
            finish loading their snapshot.

    Lifecycle: :meth:`start` → :meth:`submit` freely (thread-safe) →
    :meth:`shutdown`.  A worker death at any point fails only its own
    assigned requests and triggers an automatic respawn.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        size: int,
        start_method: str = "spawn",
        ready_timeout_s: float = 60.0,
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        if not Path(spec.snapshot).is_dir():
            raise ConfigurationError(
                f"snapshot directory not found: {spec.snapshot}"
            )
        self.spec = spec
        self.size = size
        self.ready_timeout_s = ready_timeout_s
        self._ctx = multiprocessing.get_context(start_method)
        self._results: Any = self._ctx.Queue()
        self._slots = [_WorkerSlot(i) for i in range(size)]
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._next_id = 0
        self._respawns = 0
        self._completed = 0
        self._errors = 0
        self._started = False
        self._closed = False
        self._ready = threading.Event()
        #: The first load failure reported before the pool was ever
        #: ready; start() raises it instead of waiting out respawns.
        self._load_error: str | None = None
        self._collector: threading.Thread | None = None
        self._monitor: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and block until all report ready.

        A worker that fails to load its snapshot before the pool has
        ever been ready fails the start at once, with the worker's own
        error in the message — the same spec would fail every respawn.
        """
        if self._started:
            raise ConfigurationError("pool already started")
        self._started = True
        for slot in self._slots:
            self._spawn(slot)
        self._collector = threading.Thread(
            target=self._collect_loop, name="pool-collector", daemon=True
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="pool-monitor", daemon=True
        )
        self._monitor.start()
        ready = self._ready.wait(self.ready_timeout_s)
        if self._load_error is not None:
            self.shutdown()
            raise ConfigurationError(self._load_error)
        if not ready:
            self.shutdown()
            raise ConfigurationError(
                f"workers not ready within {self.ready_timeout_s}s"
            )

    def _spawn(self, slot: _WorkerSlot) -> None:
        slot.tasks = self._ctx.Queue()
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(slot.worker_id, self.spec, slot.tasks, self._results),
            name=f"search-worker-{slot.worker_id}",
            daemon=True,
        )
        slot.process.start()

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop accepting work, fail whatever is still pending, and
        terminate the workers.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            for slot in self._slots:
                slot.assigned.clear()
        for future in pending:
            future.set_exception(PoolShutdownError("pool shut down"))
        for slot in self._slots:
            if slot.tasks is not None:
                try:
                    slot.tasks.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout_s
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        # The collector/monitor threads see _closed and exit; daemon
        # threads, so no join deadline can hang interpreter exit.

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- request surface ---------------------------------------------------------

    def submit(self, method: str, payload: dict[str, Any]) -> "Future[Any]":
        """Dispatch one request to the least-loaded worker.

        Returns a future resolving to the worker's plain-dict reply;
        it fails with :class:`WorkerCrashError` if the assigned worker
        dies first, or whatever error the worker reported.
        """
        future: Future = Future()
        with self._lock:
            if self._closed or not self._started:
                raise PoolShutdownError(
                    "pool is not accepting requests"
                    if self._closed
                    else "pool not started"
                )
            request_id = self._next_id
            self._next_id += 1
            slot = min(
                self._slots,
                key=lambda s: (len(s.assigned), s.worker_id),
            )
            slot.assigned.add(request_id)
            self._pending[request_id] = future
        slot.tasks.put((request_id, method, payload))
        return future

    def submit_to(
        self, worker_id: int, method: str, payload: dict[str, Any]
    ) -> "Future[Any]":
        """Dispatch to one specific worker (per-worker stats fan-out)."""
        future: Future = Future()
        with self._lock:
            if self._closed or not self._started:
                raise PoolShutdownError("pool is not accepting requests")
            slot = self._slots[worker_id]
            request_id = self._next_id
            self._next_id += 1
            slot.assigned.add(request_id)
            self._pending[request_id] = future
        slot.tasks.put((request_id, method, payload))
        return future

    # -- background threads ------------------------------------------------------

    def _collect_loop(self) -> None:
        """Drain the shared result queue, completing futures."""
        while not self._closed:
            try:
                item = self._results.get(timeout=_POLL_S)
            except (Empty, OSError, ValueError):
                continue
            tag, *rest = item
            if tag == "__ready__":
                self._note_ready()
                continue
            if tag == "__worker_died__":
                worker_id, exitcode = rest
                self._respawn_slot(self._slots[worker_id], exitcode)
                continue
            if tag == "__load_failed__":
                worker_id, detail = rest
                if not self._ready.is_set():
                    self._load_error = (
                        f"worker {worker_id} failed to load: {detail}"
                    )
                    self._ready.set()
                    continue
                self._fail_slot(
                    self._slots[worker_id],
                    WorkerCrashError(
                        f"worker {worker_id} failed to load: {detail}"
                    ),
                )
                # Leave the slot dead-on-arrival: the monitor respawns
                # it, and a persistent load failure shows up as respawn
                # churn in stats() rather than a silent hang.
                continue
            request_id, status, out = item
            with self._lock:
                future = self._pending.pop(request_id, None)
                for slot in self._slots:
                    if request_id in slot.assigned:
                        slot.assigned.discard(request_id)
                        slot.served += status == "ok"
                if status == "ok":
                    self._completed += 1
                else:
                    self._errors += 1
            if future is None:
                continue  # failed by a crash/shutdown path already
            if status == "ok":
                future.set_result(out)
            else:
                future.set_exception(ReproError(f"worker error: {out}"))

    def _note_ready(self) -> None:
        with self._lock:
            alive = sum(
                1
                for slot in self._slots
                if slot.process is not None and slot.process.is_alive()
            )
        if alive >= self.size:
            self._ready.set()

    def _monitor_loop(self) -> None:
        """Watch worker liveness.  On a death, enqueue a sentinel on the
        *result* queue rather than dooming the slot here: the collector
        is the queue's single consumer, so by the time it dequeues the
        sentinel it has already completed every reply the dead worker
        managed to deliver before dying — only requests whose replies
        are truly lost get failed."""
        while not self._closed:
            time.sleep(_POLL_S)
            for slot in self._slots:
                process = slot.process
                if (
                    self._closed
                    or slot.dying
                    or process is None
                    or process.is_alive()
                ):
                    continue
                with self._lock:
                    if self._closed or slot.dying:
                        continue
                    slot.dying = True
                    exitcode = process.exitcode
                try:
                    self._results.put(
                        ("__worker_died__", slot.worker_id, exitcode)
                    )
                except (OSError, ValueError):
                    return  # result queue torn down: shutting down

    def _respawn_slot(self, slot: _WorkerSlot, exitcode: Any) -> None:
        """Fail a dead worker's still-assigned requests and start a
        replacement process in its slot (collector thread only)."""
        error = WorkerCrashError(
            f"worker {slot.worker_id} died (exitcode={exitcode})"
        )
        # Doom-collection and queue swap must be one atomic step:
        # submit() records an assignment under the lock and then puts
        # onto slot.tasks, so any request is either collected here (its
        # queue entry goes to the abandoned dead queue, harmlessly) or
        # recorded after the swap and enqueued for the replacement
        # worker.  Nothing can slip between and hang forever.
        with self._lock:
            if self._closed:
                return
            doomed = self._collect_doomed(slot)
            fresh_tasks = self._ctx.Queue()
            slot.tasks = fresh_tasks
            self._respawns += 1
        for future in doomed:
            future.set_exception(error)
        replacement = self._ctx.Process(
            target=_worker_main,
            args=(slot.worker_id, self.spec, fresh_tasks, self._results),
            name=f"search-worker-{slot.worker_id}",
            daemon=True,
        )
        # Start before publishing: shutdown() joins slot.process, and an
        # unstarted Process object cannot be joined.
        replacement.start()
        if self._closed:
            # shutdown() raced us and may have missed this replacement's
            # queue; don't leave an orphan serving nothing.
            replacement.terminate()
            replacement.join(1.0)
            return
        slot.process = replacement
        slot.dying = False

    def _fail_slot(self, slot: _WorkerSlot, error: Exception) -> None:
        """Fail every request assigned to ``slot`` — and nothing else."""
        with self._lock:
            doomed = self._collect_doomed(slot)
        for future in doomed:
            future.set_exception(error)

    def _collect_doomed(self, slot: _WorkerSlot) -> list[Future]:
        """Pop ``slot``'s assigned requests from the pending table
        (caller holds the lock); returns their futures to fail."""
        doomed = [
            self._pending.pop(request_id)
            for request_id in sorted(slot.assigned)
            if request_id in self._pending
        ]
        slot.assigned.clear()
        self._errors += len(doomed)
        return doomed

    # -- inspection --------------------------------------------------------------

    @property
    def alive_workers(self) -> int:
        return sum(
            1
            for slot in self._slots
            if slot.process is not None and slot.process.is_alive()
        )

    def stats(self) -> dict[str, Any]:
        """Pool-level counters (plain data; no worker round-trip)."""
        with self._lock:
            return {
                "size": self.size,
                "alive": self.alive_workers,
                "respawns": self._respawns,
                "completed": self._completed,
                "errors": self._errors,
                "inflight": len(self._pending),
                "per_worker": [
                    {
                        "worker": slot.worker_id,
                        "assigned": len(slot.assigned),
                        "served": slot.served,
                    }
                    for slot in self._slots
                ],
            }

    def worker_stats(self, timeout_s: float = 5.0) -> list[dict[str, Any]]:
        """Fan ``stats`` out to every worker and gather the replies
        (pickle-safe service snapshots); a worker that cannot answer
        within the deadline reports an ``error`` entry instead."""
        futures = []
        for slot in self._slots:
            try:
                futures.append(
                    (slot.worker_id, self.submit_to(slot.worker_id, "stats", {}))
                )
            except PoolShutdownError:
                return []
        gathered: list[dict[str, Any]] = []
        deadline = time.monotonic() + timeout_s
        for worker_id, future in futures:
            try:
                stats = future.result(
                    max(0.0, deadline - time.monotonic())
                )
                gathered.append({"worker": worker_id, **stats})
            except Exception as exc:
                gathered.append(
                    {"worker": worker_id, "error": repr(exc)}
                )
        return gathered
