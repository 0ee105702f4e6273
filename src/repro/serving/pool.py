"""Process-parallel ``SearchService`` worker pool.

The serving path's unit of parallelism is a *process*, not a thread:
each worker loads its own snapshot via :meth:`SearchService.load` and
answers queries fully independently, so a pool of N workers uses N cores
— the GIL ceiling the thread benches hit does not apply.  The gateway
(:mod:`repro.serving.gateway`) talks to the pool through
:meth:`WorkerPool.submit`, which returns a
:class:`concurrent.futures.Future` it can await.

Design:

- every worker owns one duplex connection (``multiprocessing.Pipe``) to
  the pool and runs :func:`_worker_main`: load the snapshot, send the
  ready handshake, then ``recv`` → serve → ``send`` plain picklable
  dicts until the pool closes its end — a synchronous pickle plus one
  framed write each way, no queue, no feeder thread;
- replies are read by one handler, :meth:`WorkerPool._on_readable`,
  registered with ``add_reader`` on exactly one event loop at a time
  (concurrent ``recv`` would corrupt a connection's framing): by
  default the pool's own loop on the ``pool-loop`` daemon thread, which
  keeps ``submit(...).result()`` working from plain threads; while a
  gateway serves, that gateway's loop (:meth:`WorkerPool.lend_reader`),
  so a reply completes its future on the loop that awaits it;
- ``submit`` never blocks its caller, which may be that very loop: it
  writes what the socket takes at once (:class:`_Outbound`) and leaves
  the rest of an oversized frame, and what queues behind it, to a
  short-lived ``pool-flush`` thread — a loop stuck in a write could not
  read the reply its worker is stuck writing;
- a worker's death is the end-of-file on its connection, which the
  kernel delivers strictly after every reply the worker wrote before
  it died — a completed request is never failed because its reply was
  still in flight.  The handler then fails only the requests assigned
  to that worker (:class:`WorkerCrashError`), swaps a fresh connection
  into the slot, and hands the process start to the reading loop's
  executor; nothing polls for liveness;
- dispatch is least-loaded (fewest outstanding requests, ties to the
  lowest slot), which keeps the pool busy under a closed-loop client
  population without any work stealing;
- results marshal as plain dicts (:func:`response_payload`, the
  pickle-safe :meth:`SearchService.stats`), never live service objects,
  so they cross the process and then the JSON boundary untouched.

``asyncio`` is imported inside :meth:`WorkerPool.start` only — every
worker process imports this module and must not pay for it.  ``crash``
and ``hang`` are fault injection (the worker hard-exits without cleanup
/ stalls, forever or for ``{"seconds": s}``) for the respawn and
deadline tests and chaos drills; the gateway never routes them.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..config import ServiceConfig
from ..errors import ConfigurationError, ReproError
from ..obs.trace import get_tracer

__all__ = [
    "PoolShutdownError",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerRequestError",
    "WorkerSpec",
    "response_payload",
]


#: How long :meth:`WorkerPool.start` waits for every worker's handshake.
_READY_TIMEOUT_S = 60.0


class WorkerCrashError(ReproError):
    """A worker process died while this request was assigned to it."""


class PoolShutdownError(ReproError):
    """The pool is shut down and accepts no new requests."""


class WorkerRequestError(ReproError):
    """The worker answered this request with an error; ``kind`` is the
    class name of what it raised (``"RetrievalError"``: a bad query)."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"worker error: {detail}")
        self.kind = kind


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
        source_peer: the querying peer name (defaults to the service's
            first peer).
        config: the deployment knobs every worker's service is loaded
            with (per-worker query cache, memory budget, ...).
    """

    snapshot: str
    backend: str | None = None
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


def _worker_main(worker_id: int, spec: WorkerSpec, conn: Any) -> None:
    """Worker process entry point: load the snapshot, then serve the
    connection until the pool closes its end."""
    # Import here: under the spawn start method this runs in a fresh
    # interpreter, and the parent's module state is not inherited.
    from ..engine.service import SearchService

    def serve(method: str, payload: dict[str, Any]) -> dict[str, Any]:
        if method == "search":
            # A traced request continues the gateway's trace: a forced
            # root parented on the gateway span (this process's tracer is
            # off), whose spans ship back for the gateway to re-parent.
            trace = payload.get("trace")
            span: Any = nullcontext()
            if trace:
                tracer = get_tracer()
                span = tracer.root(
                    "worker.search",
                    trace_id=trace["trace_id"],
                    parent_id=trace.get("parent_span_id"),
                    force=True,
                    worker=worker_id,
                    pid=os.getpid(),
                )
            with span:
                response = service.search(
                    payload["query"],
                    k=payload.get("k", 10),
                    source_peer=spec.source_peer,
                )
            out = response_payload(response)
            if trace:
                out["trace"] = {
                    "trace_id": trace["trace_id"],
                    "spans": tracer.take_trace(trace["trace_id"]),
                }
            return out
        if method == "search_batch":
            report = service.search_batch(
                payload["queries"],
                k=payload.get("k", 10),
                source_peer=spec.source_peer,
            )
            return {
                "responses": [response_payload(r) for r in report.responses],
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "elapsed_ms": round(report.elapsed_ms, 3),
            }
        if method == "stats":
            return service.stats()
        if method == "crash":
            # Die as a segfaulting or OOM-killed worker would, no cleanup:
            # earlier replies are written, only unfinished requests lost.
            os._exit(1)
        if method == "hang":
            # Stalled: alive and connected; answers after ``seconds``
            # when given (a busy worker), never otherwise (wedged).
            seconds = payload.get("seconds")
            if seconds is not None:
                time.sleep(seconds)
                return {}
            while True:
                time.sleep(3600.0)
        raise ValueError(f"unknown method {method!r}")

    try:
        try:
            service = SearchService.load(
                spec.snapshot, backend=spec.backend, config=spec.config
            )
        except Exception as exc:  # surface load failures to the pool
            reason = f"worker {worker_id} failed to load: {exc!r}"
            conn.send(("__load_failed__", reason))
            return
        conn.send(("__ready__", os.getpid()))
        while True:
            request_id, method, payload = conn.recv()
            try:
                reply = (request_id, "ok", serve(method, payload))
            except Exception as exc:
                reply = (request_id, "error", (type(exc).__name__, repr(exc)))
            conn.send(reply)
    except (EOFError, OSError):
        return  # the pool closed its end: shut down, or its process gone


class _Outbound:
    """The write side of one worker connection.  :meth:`send` never
    blocks: the pool's end must stay readable whatever a worker is
    slow to take, or both ends could wait on each other's full socket
    buffer forever."""

    def __init__(self, conn: Any) -> None:
        # A second handle on the pool's end, for MSG_DONTWAIT writes;
        # reads on ``conn`` itself stay blocking, one whole frame each.
        self.sock = socket.socket(fileno=os.dup(conn.fileno()))
        self.lock = threading.Lock()  # one writer at a time; also to close
        #: Unsent bytes while a ``pool-flush`` thread drains them: new
        #: frames queue behind, or they would cut into a half-sent one.
        self.backlog: bytearray | None = None

    def send(self, item: tuple) -> None:
        """Frame ``item`` as ``Connection.recv`` reads it and write
        what fits now; ``OSError`` when the worker is gone."""
        body = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
        frame = struct.pack("!i", len(body)) + body
        with self.lock:
            if self.backlog is not None:
                self.backlog += frame
                return
            try:
                sent = self.sock.send(frame, socket.MSG_DONTWAIT)
            except BlockingIOError:
                sent = 0
            if sent == len(frame):
                return
            self.backlog = bytearray(frame[sent:])
        threading.Thread(
            target=self._flush, name="pool-flush", daemon=True
        ).start()

    def _flush(self) -> None:
        """Write the backlog (blocking, off every loop) until none is
        left.  A dead connection keeps its backlog: no more writes."""
        while True:
            with self.lock:
                chunk = bytes(self.backlog)
                if not chunk:
                    self.backlog = None
                    return
                self.backlog.clear()
            try:
                self.sock.sendall(chunk)
            except OSError:
                return

    def close(self) -> None:
        with self.lock:
            self.sock.close()


class _WorkerSlot:
    """One pool slot: a live process, the pool's end of its connection
    (``conn`` to read, ``out`` to write), and the requests currently
    assigned to it (id -> future)."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn: Any = None
        self.out: _Outbound | None = None
        self.assigned: dict[int, Future] = {}
        self.served = 0
        self.ready = False  # the current process sent its handshake
        #: When the worker last answered, or was handed work while idle.
        self.progress_at = 0.0


class WorkerPool:
    """A fixed-size pool of snapshot-loaded ``SearchService`` processes.

    Args:
        spec: the worker build recipe (snapshot path + knobs).
        size: number of worker processes, each a fresh interpreter
            (``spawn``: the pool runs threads, so never ``fork``).

    Lifecycle: :meth:`start` → :meth:`submit` freely (thread-safe) →
    :meth:`shutdown`.  A worker death at any point fails only its own
    assigned requests and triggers an automatic respawn.
    """

    def __init__(self, spec: WorkerSpec, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        if not Path(spec.snapshot).is_dir():
            raise ConfigurationError(
                f"snapshot directory not found: {spec.snapshot}"
            )
        self.spec = spec
        self.size = size
        self._ctx = multiprocessing.get_context("spawn")
        self._slots = [_WorkerSlot(i) for i in range(size)]
        self._lock = threading.Lock()
        self._next_id = 0
        self._respawns = 0
        self._completed = 0
        self._errors = 0
        self._started = False  # start() returned: every worker loaded
        self._closed = False
        #: Set while every slot's current process has said it is ready.
        self._ready = threading.Event()
        #: The first load failure reported before start() returned;
        #: start() raises it instead of waiting out respawns.
        self._load_error: str | None = None
        #: The pool's own loop and its thread; the loop the connections
        #: are registered on now (home, a borrower's, None once closed).
        self._home: Any = None
        self._home_thread: threading.Thread | None = None
        self._reader: Any = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and block until all report ready.

        A worker that fails to load its snapshot before the pool has
        ever been ready fails the start at once, with the worker's own
        error in the message — the same spec would fail every respawn.
        """
        if self._home is not None:
            raise ConfigurationError("pool already started")
        import asyncio  # parent side only: see the module docstring

        self._home = self._reader = asyncio.new_event_loop()
        for slot in self._slots:
            self._start_worker(slot, self._connect(slot))
        self._set_watched(self._home, True)  # not running yet: safe here
        self._home_thread = threading.Thread(
            target=self._home.run_forever, name="pool-loop", daemon=True
        )
        self._home_thread.start()
        ready = self._ready.wait(_READY_TIMEOUT_S)
        if self._load_error is not None or not ready:
            self.shutdown()
            late = f"workers not ready within {_READY_TIMEOUT_S:g}s"
            raise ConfigurationError(self._load_error or late)
        self._started = True

    def _connect(self, slot: _WorkerSlot) -> Any:
        """Give ``slot`` a fresh connection; returns the worker's end."""
        slot.conn, child_end = self._ctx.Pipe(duplex=True)
        slot.out = _Outbound(slot.conn)
        slot.ready = False
        return child_end

    def _start_worker(self, slot: _WorkerSlot, child_end: Any) -> None:
        """Start a process serving ``child_end`` in ``slot`` (tens of
        ms under ``spawn``: never on an event loop's thread)."""
        process = self._ctx.Process(
            target=_worker_main,
            args=(slot.worker_id, self.spec, child_end),
            name=f"search-worker-{slot.worker_id}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            # While our copy stays open the kernel cannot report
            # end-of-file when the worker (which has its own) dies.
            child_end.close()
        # Publish once started: shutdown() cannot join an unstarted one.
        with self._lock:
            if not self._closed:
                slot.process = process
                return
        process.terminate()  # shutdown() raced a respawn: no orphans
        process.join(1.0)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop accepting work, fail whatever is still pending, and
        terminate the workers.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = [f for s in self._slots for f in s.assigned.values()]
            for slot in self._slots:
                slot.assigned.clear()
            reader, self._reader = self._reader, None
        for future in pending:
            future.set_exception(PoolShutdownError("pool shut down"))
        if reader is None:
            return  # never started
        # Close our ends (the workers' signal) on the loop that reads them.
        with suppress(RuntimeError):  # a borrower's loop, already closed
            reader.call_soon_threadsafe(self._close_connections, reader)
        deadline = time.monotonic() + timeout_s
        for process in [s.process for s in self._slots if s.process]:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        self._home.call_soon_threadsafe(self._home.stop)
        self._home_thread.join(max(1.0, deadline - time.monotonic()))
        if not self._home_thread.is_alive():
            self._home.close()

    def _close_connections(self, loop: Any) -> None:
        self._set_watched(loop, False)
        for slot in self._slots:
            slot.conn.close()
            slot.out.close()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- request surface ---------------------------------------------------------

    def submit(self, method: str, payload: dict[str, Any]) -> "Future[Any]":
        """Dispatch one request to the least-loaded worker.

        Returns a future resolving to the worker's plain-dict reply; it
        fails with :class:`WorkerCrashError` if the assigned worker dies
        first, or :class:`WorkerRequestError` if the worker reported one.
        """
        return self._submit(None, method, payload)

    def submit_to(
        self, worker_id: int, method: str, payload: dict[str, Any]
    ) -> "Future[Any]":
        """Dispatch to one specific worker (per-worker stats fan-out)."""
        return self._submit(worker_id, method, payload)

    def _submit(
        self, worker_id: int | None, method: str, payload: dict[str, Any]
    ) -> "Future[Any]":
        future: Future = Future()
        # Not cancellable: the request is on the wire, and a waiter that
        # gives up must not leave a state the reply cannot complete.
        future.set_running_or_notify_cancel()
        with self._lock:
            if self._closed or not self._started:
                raise PoolShutdownError("pool is not accepting requests")
            if worker_id is None:  # least loaded; ties to the lowest slot
                slot = min(self._slots, key=lambda s: len(s.assigned))
            else:
                slot = self._slots[worker_id]
            request_id = self._next_id
            self._next_id += 1
            if not slot.assigned:
                slot.progress_at = time.monotonic()
            slot.assigned[request_id] = future
            out = slot.out
        # A dead worker's end-of-file fails what is assigned to it.
        with suppress(OSError):
            out.send((request_id, method, payload))
        return future

    def recycle(self, future: "Future[Any]", stalled_s: float) -> None:
        """Kill the worker the still-pending request behind ``future``
        is assigned to if it has answered nothing for ``stalled_s``
        (wedged, not merely working through a queue); the end-of-file
        path then fails what else was queued there and respawns it."""
        horizon = time.monotonic() - stalled_s
        with self._lock:  # held to the kill: no reply lands in between
            for slot in self._slots:
                wedged = slot.progress_at <= horizon
                if wedged and future in slot.assigned.values():
                    slot.process.kill()

    def lend_reader(self, loop: Any) -> bool:
        """Move the read side from the pool's own loop onto ``loop``
        (pair with :meth:`return_reader`).  False, and nothing changed,
        when it is already lent or the pool is not running — the
        thread-safe futures work either way."""
        with self._lock:
            if self._reader is None or self._reader is not self._home:
                return False
            self._reader = loop
        with suppress(RuntimeError):  # shut down under us
            self._home.call_soon_threadsafe(self._hand_over, self._home, loop)
        return True

    def return_reader(self, loop: Any) -> None:
        """Give the read side back to the pool's own loop (call on
        ``loop``'s thread).  A no-op unless ``loop`` is the borrower —
        in particular after :meth:`shutdown`."""
        with self._lock:
            if self._reader is not loop:
                return
            self._reader = self._home
        self._hand_over(loop, self._home)

    def _hand_over(self, giver: Any, taker: Any) -> None:
        """On ``giver``'s thread: remove its readers, and only then have
        ``taker`` add its own — two loops must never watch one
        connection, and readers are only touched on their own loop."""
        self._set_watched(giver, False)
        with suppress(RuntimeError):  # taker already closed
            taker.call_soon_threadsafe(self._set_watched, taker, True)

    def _set_watched(self, loop: Any, watched: bool) -> None:
        """Register (or remove) the reply handler for every open
        connection on ``loop``; runs on ``loop``'s own thread."""
        if watched and self._reader is not loop:
            return  # handed on again before this ran
        for slot in self._slots:
            if slot.conn.closed:
                continue
            if watched:
                self._watch(loop, slot)
            else:
                loop.remove_reader(slot.conn.fileno())

    def _watch(self, loop: Any, slot: _WorkerSlot) -> None:
        fd = slot.conn.fileno()
        loop.add_reader(fd, self._on_readable, loop, slot, slot.conn)

    def _on_readable(self, loop: Any, slot: _WorkerSlot, conn: Any) -> None:
        """The one reply handler: read one frame ``slot``'s worker wrote
        (end-of-file: it died).  No poll first — the loop calls this
        only when the connection is readable, again while frames remain
        (level-triggered), and nobody else reads it."""
        try:
            item = conn.recv()
        except (EOFError, OSError):
            self._on_eof(loop, slot, conn)
            return
        self._deliver(slot, item)

    def _deliver(self, slot: _WorkerSlot, item: tuple) -> None:
        tag = item[0]
        if tag == "__ready__":
            slot.ready = True  # written on the reading loop only
            if all(s.ready for s in self._slots):
                self._ready.set()
            return
        if tag == "__load_failed__":
            # While booting, wake start() with the worker's reason; later
            # the end-of-file that follows respawns the slot, so a
            # persistent failure shows as respawn churn in stats().
            if not self._started:
                self._load_error = item[1]
                self._ready.set()
            return
        request_id, status, out = item
        with self._lock:
            future = slot.assigned.pop(request_id, None)
            slot.progress_at = time.monotonic()
            if status == "ok":
                slot.served += 1
                self._completed += 1
            else:
                self._errors += 1
        if future is None:
            return  # failed by shutdown already
        if status == "ok":
            future.set_result(out)
        else:
            future.set_exception(WorkerRequestError(*out))

    def _on_eof(self, loop: Any, slot: _WorkerSlot, conn: Any) -> None:
        """``slot``'s worker died: fail its still-assigned requests and
        respawn it (runs on the reading loop)."""
        loop.remove_reader(conn.fileno())
        conn.close()
        slot.out.close()
        error = WorkerCrashError(
            f"worker {slot.worker_id} died (exitcode={slot.process.exitcode})"
        )
        # Doom-collection and connection swap are one atomic step:
        # _submit() assigns and picks the connection under the same
        # lock, so a request is either collected here (its write fails
        # on the dead connection, harmlessly) or buffered in the fresh
        # connection for the replacement worker.
        with self._lock:
            if self._closed or self._load_error is not None:
                return
            doomed = list(slot.assigned.values())
            slot.assigned.clear()
            self._errors += len(doomed)
            child_end = self._connect(slot)
            self._ready.clear()
            self._respawns += 1
        self._watch(loop, slot)
        for future in doomed:
            future.set_exception(error)
        loop.run_in_executor(None, self._start_worker, slot, child_end)

    # -- inspection --------------------------------------------------------------

    @property
    def alive_workers(self) -> int:
        return sum(
            slot.process is not None and slot.process.is_alive()
            for slot in self._slots
        )

    def stats(self) -> dict[str, Any]:
        """Pool-level counters (plain data; no worker round-trip)."""
        with self._lock:
            return {
                "size": self.size,
                "alive": self.alive_workers,
                "ready": sum(slot.ready for slot in self._slots),
                "respawns": self._respawns,
                "completed": self._completed,
                "errors": self._errors,
                "inflight": sum(len(s.assigned) for s in self._slots),
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
        workers = range(self.size)
        try:
            futures = [self.submit_to(w, "stats", {}) for w in workers]
        except PoolShutdownError:
            return []
        gathered: list[dict[str, Any]] = []
        deadline = time.monotonic() + timeout_s
        for worker_id, future in zip(workers, futures):
            try:
                stats = future.result(max(0.0, deadline - time.monotonic()))
                gathered.append({"worker": worker_id, **stats})
            except Exception as exc:
                gathered.append({"worker": worker_id, "error": repr(exc)})
        return gathered
