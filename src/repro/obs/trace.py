"""Tracing core: spans, contextvars propagation, and the tracer.

The design goal is a *zero-cost-when-off* tracer that still composes
across every concurrency boundary the stack has:

- **Threads** (concurrent ``search`` callers, joins beside searches):
  the active span lives in a :class:`contextvars.ContextVar`, so each
  thread sees its own span stack and nothing of another's.
- **The asyncio gateway**: asyncio tasks copy the context at creation,
  so per-request spans isolate for free.
- **Processes** (the serving :class:`~repro.serving.pool.WorkerPool`):
  ids cross the boundary as plain strings in the task envelope; the
  worker opens a *forced root* parented on the gateway's span id, and
  ships its finished spans back as dicts for the gateway to
  :meth:`Tracer.adopt` — the re-assembled trace is one connected tree.

Disabled-mode cost: :meth:`Tracer.span` with no active parent returns
the shared :data:`NOOP_SPAN` without allocating, and hot call sites
additionally guard on :attr:`Tracer.active` (one ``ContextVar.get`` ≈
100 ns) so they skip even attribute-dict construction.

Span taxonomy (names used by the instrumented layers):

===================== ===========================================
``gateway.search``    HTTP edge, one per ``/search`` request
``worker.search``     pool worker process, re-parented into gateway
``service.search``    cache probe + backend call
``service.backend``   the backend section of one query
``net.msg``           one overlay message (kind/phase/route/postings)
``net.hop``           one accounted hop inside a message
``store.segment_read``    block-cache miss served from disk
``store.spill_materialize`` cold spill stub re-heated
``store.memtable_flush``    WAL-covered memtable → sealed segment
``store.wal_replay``        recovery replay on open
``store.compaction``        compaction (MAINTENANCE phase)
===================== ===========================================
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NOOP_SPAN",
    "current_span",
    "get_tracer",
    "set_global_tracer",
    "format_span_tree",
]

#: The active span of the current logical context (thread / asyncio
#: task).  Never holds the no-op span: disabled sites leave it alone.
_CURRENT: ContextVar["Span | None"] = ContextVar(
    "repro_obs_current_span", default=None
)


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


def current_span() -> "Span | None":
    """The span active in this context, or None."""
    return _CURRENT.get()


class Span:
    """One timed operation; a context manager that activates itself.

    Entering sets the span as the context's current span (children
    created inside pick it up as parent); exiting restores the previous
    one, stamps the duration, marks ``status="error"`` when an
    exception is propagating, and hands the finished record to the
    tracer.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "status",
        "start_wall",
        "duration_ms",
        "_start",
        "_tracer",
        "_token",
    )

    #: Real spans record; the no-op span overrides this with False so
    #: call sites can skip attribute work without an isinstance check.
    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: str | None,
        attrs: dict[str, object] | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id(8)
        self.parent_id = parent_id
        self.attrs: dict[str, object] = attrs or {}
        self.status = "ok"
        self.start_wall = time.time()
        self.duration_ms = 0.0
        self._start = time.perf_counter()
        self._token = None

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.duration_ms = (time.perf_counter() - self._start) * 1e3
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": round(self.start_wall * 1e3, 3),
            "duration_ms": round(self.duration_ms, 4),
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id})"
        )


class _NoopSpan:
    """The shared do-nothing span handed out when tracing is off.

    Never activated in the context var (``__enter__`` sets nothing), so
    a disabled layer is invisible to any enabled layer around it.
    """

    __slots__ = ()

    recording = False
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"
    attrs: dict[str, object] = {}

    def set_attr(self, key: str, value: object) -> None:
        pass

    def set_attrs(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Shared no-op instance — ``Tracer.span`` returns it without
#: allocating when tracing is disabled and no trace is in flight.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Process-wide span factory + bounded ring of finished spans.

    Spans finish into a ``deque(maxlen=...)`` (oldest evicted) guarded
    by one lock, then fan out to registered sinks *outside* the lock.
    ``take_trace`` / ``adopt`` are the process-boundary halves: a pool
    worker takes its trace's spans out of the ring and ships them with
    the result; the gateway adopts them so ``/trace/recent`` shows the
    stitched tree.
    """

    def __init__(self, *, enabled: bool = False, capacity: int = 2048):
        self._enabled = enabled
        self._lock = threading.Lock()
        self._ring: deque[dict[str, object]] = deque(maxlen=capacity)
        self._sinks: list[Callable[[Mapping[str, object]], None]] = []

    # -- switches ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @property
    def active(self) -> bool:
        """True when a span started now would record — either the
        tracer is on, or an enabled caller's span is already in flight
        (e.g. a forced root from the pool envelope).  The hot-path
        guard: one bool check + one ``ContextVar.get``."""
        return self._enabled or _CURRENT.get() is not None

    # -- span creation -----------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span | _NoopSpan:
        """A child of the context's current span (or a new root)."""
        parent = _CURRENT.get()
        if parent is None:
            if not self._enabled:
                return NOOP_SPAN
            return Span(self, name, _new_id(8), None, attrs or None)
        return Span(
            self, name, parent.trace_id, parent.span_id, attrs or None
        )

    def root(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        force: bool = False,
        **attrs: object,
    ) -> Span | _NoopSpan:
        """An explicit root, ignoring the ambient context.

        ``force=True`` records even when the tracer is disabled — the
        cross-boundary hook: a pool worker whose envelope carries a
        trace id must record regardless of its own tracer switch, and
        a gateway honors ``X-Trace-Id`` the same way.
        """
        if not (self._enabled or force):
            return NOOP_SPAN
        return Span(
            self, name, trace_id or _new_id(8), parent_id, attrs or None
        )

    # -- collection --------------------------------------------------------------

    def add_sink(
        self, sink: Callable[[Mapping[str, object]], None]
    ) -> None:
        """Register a callable invoked with every finished span dict."""
        self._sinks.append(sink)

    def remove_sink(
        self, sink: Callable[[Mapping[str, object]], None]
    ) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def _finish(self, span: Span) -> None:
        record = span.to_dict()
        with self._lock:
            self._ring.append(record)
            sinks = tuple(self._sinks)
        for sink in sinks:
            try:
                sink(record)
            except Exception:
                # A broken sink must never fail the traced operation.
                pass

    def adopt(self, spans: Iterable[Mapping[str, object]]) -> None:
        """Append already-finished span dicts (from another process).

        Adopted spans fan to sinks exactly like locally finished ones,
        so an exporter on the adopting side (the gateway's JSONL sink)
        sees whole traces, not just the spans this process opened.
        """
        records = [dict(record) for record in spans]
        with self._lock:
            self._ring.extend(records)
            sinks = tuple(self._sinks)
        for sink in sinks:
            for record in records:
                try:
                    sink(record)
                except Exception:
                    # A broken sink must never fail the adopting caller.
                    pass

    def take_trace(self, trace_id: str) -> list[dict[str, object]]:
        """Remove and return every ringed span of ``trace_id``."""
        with self._lock:
            taken = [
                record
                for record in self._ring
                if record["trace_id"] == trace_id
            ]
            if taken:
                kept = [
                    record
                    for record in self._ring
                    if record["trace_id"] != trace_id
                ]
                self._ring.clear()
                self._ring.extend(kept)
        return taken

    def recent(self, limit: int = 100) -> list[dict[str, object]]:
        """The most recently finished spans, oldest first."""
        with self._lock:
            spans = list(self._ring)
        return spans[-limit:]

    def recent_traces(
        self, limit: int = 10
    ) -> list[dict[str, object]]:
        """The last ``limit`` traces as ``{"trace_id", "spans"}`` rows,
        most recently finished last; spans keep ring (finish) order."""
        with self._lock:
            spans = list(self._ring)
        by_trace: dict[str, list[dict[str, object]]] = {}
        order: list[str] = []
        for record in spans:
            tid = record["trace_id"]  # type: ignore[assignment]
            if tid not in by_trace:
                by_trace[tid] = []
                order.append(tid)
            else:
                # Most-recent-activity ordering: a late span moves its
                # trace to the back.
                order.remove(tid)
                order.append(tid)
            by_trace[tid].append(record)
        return [
            {"trace_id": tid, "spans": by_trace[tid]}
            for tid in order[-limit:]
        ]

    def reset(self) -> None:
        with self._lock:
            self._ring.clear()


class NullTracer(Tracer):
    """A tracer that can never record — the benchmark floor.

    Installing it as the global tracer measures the true cost of the
    instrumentation's guard checks with recording structurally
    impossible (``active`` is a constant False)."""

    def __init__(self) -> None:
        super().__init__(enabled=False, capacity=1)

    @property
    def active(self) -> bool:
        return False

    def enable(self) -> None:  # pragma: no cover - guard
        raise RuntimeError("NullTracer cannot be enabled")

    def span(self, name: str, **attrs: object) -> _NoopSpan:
        return NOOP_SPAN

    def root(self, name: str, **kwargs: object) -> _NoopSpan:
        return NOOP_SPAN


_global_tracer: Tracer = Tracer()
_global_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumented layer uses."""
    return _global_tracer


def set_global_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one."""
    global _global_tracer
    with _global_lock:
        previous = _global_tracer
        _global_tracer = tracer
    return previous


def format_span_tree(spans: Sequence[Mapping[str, object]]) -> str:
    """Render finished span dicts as an indented tree (CLI ``--trace``).

    Orphans (parent never shipped, e.g. sampled out) print as extra
    roots rather than disappearing.
    """
    by_id = {record["span_id"]: record for record in spans}
    children: dict[object, list[Mapping[str, object]]] = {}
    roots: list[Mapping[str, object]] = []
    for record in spans:
        parent = record.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)

    def start_key(record: Mapping[str, object]) -> float:
        return float(record.get("start_ms", 0.0))  # type: ignore[arg-type]

    lines: list[str] = []

    def render(record: Mapping[str, object], depth: int) -> None:
        attrs = record.get("attrs") or {}
        attr_text = " ".join(
            f"{key}={value}" for key, value in attrs.items()  # type: ignore[union-attr]
        )
        status = record.get("status", "ok")
        flag = "" if status == "ok" else f" !{status}"
        lines.append(
            "{indent}{name}  {dur:.2f}ms{flag}{attrs}".format(
                indent="  " * depth,
                name=record["name"],
                dur=float(record["duration_ms"]),  # type: ignore[arg-type]
                flag=flag,
                attrs=f"  [{attr_text}]" if attr_text else "",
            )
        )
        for child in sorted(
            children.get(record["span_id"], ()), key=start_key
        ):
            render(child, depth + 1)

    for root in sorted(roots, key=start_key):
        render(root, 0)
    return "\n".join(lines)
