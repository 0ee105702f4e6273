"""Tracer unit tests: no-op discipline, tree shape, context isolation
across threads, the cross-process take/adopt halves, and rendering."""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.trace import (
    NOOP_SPAN,
    NullTracer,
    Tracer,
    current_span,
    format_span_tree,
    get_tracer,
    set_global_tracer,
)


class TestDisabledMode:
    def test_span_returns_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("x") is NOOP_SPAN
        assert tracer.span("y", k=1) is NOOP_SPAN

    def test_noop_span_records_nothing(self):
        tracer = Tracer()
        with tracer.span("x") as span:
            assert span.recording is False
            span.set_attr("k", 1)
            span.set_attrs(a=2)
            assert current_span() is None
        assert tracer.recent() == []

    def test_active_flips_with_enable(self):
        tracer = Tracer()
        assert tracer.active is False
        tracer.enable()
        assert tracer.active is True
        tracer.disable()
        assert tracer.active is False

    def test_root_without_force_is_noop(self):
        tracer = Tracer()
        assert tracer.root("x") is NOOP_SPAN

    def test_root_force_records_and_parents_children(self):
        tracer = Tracer()
        with tracer.root(
            "worker.search", trace_id="t" * 16, parent_id="p" * 16,
            force=True,
        ) as root:
            # The forced root makes the tracer *active* in this context
            # even though the switch is off — children record under it.
            assert tracer.active is True
            with tracer.span("child"):
                pass
        spans = tracer.recent()
        assert [s["name"] for s in spans] == ["child", "worker.search"]
        child, worker = spans
        assert worker["trace_id"] == "t" * 16
        assert worker["parent_id"] == "p" * 16
        assert child["trace_id"] == "t" * 16
        assert child["parent_id"] == worker["span_id"]


class TestEnabledMode:
    def test_parent_child_linkage(self, tracer):
        with tracer.span("root", k=10) as root:
            assert current_span() is root
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
            assert current_span() is root
        assert current_span() is None
        spans = tracer.recent()
        assert [s["name"] for s in spans] == ["child", "root"]
        assert spans[1]["attrs"] == {"k": 10}
        assert all(s["duration_ms"] >= 0.0 for s in spans)

    def test_exception_marks_error_status(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.recent()
        assert span["status"] == "error"
        assert span["attrs"]["error"] == "ValueError"

    def test_ring_capacity_evicts_oldest(self):
        tracer = Tracer(enabled=True, capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s["name"] for s in tracer.recent()] == ["s2", "s3", "s4"]

    def test_sink_sees_every_finished_span(self, tracer):
        seen = []
        tracer.add_sink(seen.append)
        with tracer.span("a"):
            pass
        assert [s["name"] for s in seen] == ["a"]
        tracer.remove_sink(seen.append)
        with tracer.span("b"):
            pass
        assert len(seen) == 1

    def test_broken_sink_never_fails_the_operation(self, tracer):
        def bad(_record):
            raise RuntimeError("sink down")

        tracer.add_sink(bad)
        with tracer.span("a"):
            pass
        assert [s["name"] for s in tracer.recent()] == ["a"]


class TestTakeAdopt:
    def test_take_trace_removes_only_that_trace(self, tracer):
        with tracer.root("a", trace_id="1" * 16):
            pass
        with tracer.root("b", trace_id="2" * 16):
            pass
        taken = tracer.take_trace("1" * 16)
        assert [s["name"] for s in taken] == ["a"]
        assert [s["name"] for s in tracer.recent()] == ["b"]
        assert tracer.take_trace("1" * 16) == []

    def test_adopt_appends_foreign_spans(self, tracer):
        foreign = [
            {
                "name": "worker.search",
                "trace_id": "f" * 16,
                "span_id": "a" * 16,
                "parent_id": None,
                "start_ms": 0.0,
                "duration_ms": 1.0,
                "status": "ok",
                "attrs": {},
            }
        ]
        tracer.adopt(foreign)
        assert [s["name"] for s in tracer.recent()] == ["worker.search"]

    def test_adopt_fans_to_sinks(self, tracer):
        """An exporter on the adopting side must see whole traces —
        adopted spans go through sinks like locally finished ones."""
        seen = []
        tracer.add_sink(seen.append)
        tracer.adopt(
            [
                {
                    "name": "worker.search",
                    "trace_id": "f" * 16,
                    "span_id": "a" * 16,
                    "parent_id": None,
                    "start_ms": 0.0,
                    "duration_ms": 1.0,
                    "status": "ok",
                    "attrs": {},
                }
            ]
        )
        assert [s["name"] for s in seen] == ["worker.search"]
        broken_calls = []

        def broken(record):
            broken_calls.append(record)
            raise RuntimeError("sink down")

        tracer.add_sink(broken)
        tracer.adopt([dict(seen[0], span_id="b" * 16)])
        assert len(broken_calls) == 1  # called, and the failure swallowed
        assert len(tracer.recent()) == 2

    def test_recent_traces_groups_by_trace_id(self, tracer):
        with tracer.root("a", trace_id="1" * 16):
            pass
        with tracer.root("b", trace_id="2" * 16):
            pass
        with tracer.root("a2", trace_id="1" * 16):
            pass
        traces = tracer.recent_traces()
        # Trace 1 saw the most recent activity, so it sorts last.
        assert [t["trace_id"] for t in traces] == ["2" * 16, "1" * 16]
        assert [s["name"] for s in traces[-1]["spans"]] == ["a", "a2"]
        assert len(tracer.recent_traces(limit=1)) == 1


@pytest.mark.concurrency
class TestThreadIsolation:
    def test_threads_do_not_inherit_context_by_default(self, tracer):
        seen = []

        def probe():
            seen.append(current_span())

        with tracer.span("root"):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [None]

    def test_copied_context_carries_the_span(self, tracer):
        """The propagation idiom for a thread pool: one context copy
        per task, entered with ``ctx.run``."""

        def traced_task(label):
            with tracer.span("task", label=label):
                pass
            return label

        with ThreadPoolExecutor(max_workers=8) as pool:
            with tracer.span("root") as root:
                contexts = [
                    contextvars.copy_context() for _ in range(16)
                ]
                list(
                    pool.map(
                        lambda args: args[1].run(traced_task, args[0]),
                        enumerate(contexts),
                    )
                )
        tasks = [s for s in tracer.recent() if s["name"] == "task"]
        assert len(tasks) == 16
        assert {s["parent_id"] for s in tasks} == {root.span_id}
        assert {s["trace_id"] for s in tasks} == {root.trace_id}


class TestNullTracer:
    def test_never_records(self):
        null = NullTracer()
        assert null.active is False
        assert null.span("x") is NOOP_SPAN
        assert null.root("x", force=True) is NOOP_SPAN
        with pytest.raises(RuntimeError):
            null.enable()

    def test_global_swap_roundtrip(self):
        null = NullTracer()
        previous = set_global_tracer(null)
        try:
            assert get_tracer() is null
        finally:
            set_global_tracer(previous)
        assert get_tracer() is previous


class TestFormatSpanTree:
    def _span(self, name, span_id, parent_id, start_ms=0.0, **attrs):
        return {
            "name": name,
            "trace_id": "t" * 16,
            "span_id": span_id,
            "parent_id": parent_id,
            "start_ms": start_ms,
            "duration_ms": 1.5,
            "status": "ok",
            "attrs": attrs,
        }

    def test_renders_indented_tree(self):
        spans = [
            self._span("child", "c", "r", start_ms=1.0, k=2),
            self._span("root", "r", None),
        ]
        text = format_span_tree(spans)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "[k=2]" in lines[1]

    def test_orphan_becomes_extra_root(self):
        spans = [self._span("orphan", "o", "gone")]
        assert format_span_tree(spans).startswith("orphan")

    def test_error_status_flagged(self):
        span = self._span("bad", "b", None)
        span["status"] = "error"
        assert "!error" in format_span_tree([span])
