"""Traced query paths: span-tree shape through the service and overlay,
the span-count == accounted-hops invariant, thread isolation between
services searching on their own threads, a traced batch's parenting,
and the store's spans."""

from __future__ import annotations

import threading

import pytest

from repro.index.postings import Posting, PostingList
from repro.store.segment import STATUS_NDK
from repro.store.store import SegmentStore


def _spans_by_name(tracer):
    grouped = {}
    for span in tracer.recent(limit=5000):
        grouped.setdefault(span["name"], []).append(span)
    return grouped


def _assert_connected(spans):
    """Every span's parent is another span in the set, except roots."""
    ids = {span["span_id"] for span in spans}
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1, f"expected one root, got {roots}"
    for span in spans:
        if span["parent_id"] is not None:
            assert span["parent_id"] in ids, f"orphan span {span}"


class TestTracedSearch:
    def test_span_tree_connected_and_hop_exact(
        self, tracer, super_service
    ):
        """The acceptance invariant: one connected tree per query, with
        exactly one net.hop span per hop TrafficAccounting charged."""
        before = super_service.network.accounting.snapshot()
        response = super_service.search("t00042 t00137", k=10)
        after = super_service.network.accounting.snapshot()
        accounted_hops = after.total_hops - before.total_hops
        assert response.results  # the traced query actually resolved

        traces = tracer.recent_traces(limit=1)
        assert len(traces) == 1
        spans = traces[0]["spans"]
        _assert_connected(spans)
        names = {s["name"] for s in spans}
        assert {"service.search", "service.backend", "net.msg"} <= names
        hop_spans = [s for s in spans if s["name"] == "net.hop"]
        assert accounted_hops > 0
        assert len(hop_spans) == accounted_hops
        # Every message span carries its routing attribution.
        for msg in (s for s in spans if s["name"] == "net.msg"):
            assert msg["attrs"].get("route"), msg
            assert msg["attrs"].get("kind"), msg

    def test_root_span_carries_query_attrs(self, tracer, super_service):
        super_service.search("t00042 t00137", k=5)
        (root,) = [
            s
            for s in tracer.recent(limit=500)
            if s["name"] == "service.search"
        ]
        attrs = root["attrs"]
        assert attrs["k"] == 5
        assert attrs["backend"] == "hdk_super"
        assert "cache_hit" in attrs
        assert attrs["query"] == "t00042 t00137"

    def test_cache_hit_attr_flips_on_a_repeat(self, tracer, snapshot_dir):
        """With the query cache on, the root span records the cache
        outcome, which flips on a repeat."""
        from repro.engine.service import SearchService

        service = SearchService.load(snapshot_dir, cache_capacity=64)
        service.search("t00042 t00137", k=5)
        service.search("t00042 t00137", k=5)
        roots = [
            s
            for s in tracer.recent(limit=500)
            if s["name"] == "service.search"
        ]
        assert len(roots) == 2
        assert roots[0]["attrs"]["cache_hit"] is False
        assert roots[1]["attrs"]["cache_hit"] is True

    def test_untraced_search_records_nothing(self, super_service):
        from repro.obs.trace import get_tracer

        baseline = len(get_tracer().recent(limit=5000))
        super_service.search("t00042 t00137", k=5)
        assert len(get_tracer().recent(limit=5000)) == baseline


class TestBatchThreadIsolation:
    def test_traced_batch_parents_every_query_on_the_caller_span(
        self, tracer, super_service
    ):
        """A batch run inside a caller's span: every per-query
        ``service.search`` span is that span's child, in one trace."""
        queries = [f"t{i:05d} t{i + 40:05d}" for i in range(1, 9)]
        with tracer.span("batch") as batch:
            report = super_service.search_batch(queries, k=5)
        assert len(report.responses) == len(queries)
        roots = [
            s
            for s in tracer.recent(limit=5000)
            if s["name"] == "service.search"
        ]
        assert len(roots) == len(queries)
        assert {s["parent_id"] for s in roots} == {batch.span_id}
        assert {s["trace_id"] for s in roots} == {batch.trace_id}

    @pytest.mark.concurrency
    def test_each_query_owns_one_isolated_trace(self, tracer, snapshot_dir):
        """Four threads, each searching its own service (one caller per
        service), four queries each: every query must produce its own
        service.search root, and every child span must stay inside its
        own query's trace (contextvars isolation — no span may be
        parented across threads)."""
        from repro.engine.service import SearchService

        queries = [
            f"t{i:05d} t{i + 40:05d}" for i in range(1, 17)
        ]
        services = [
            SearchService.load(snapshot_dir, cache_capacity=None)
            for _ in range(4)
        ]

        def run(service, share):
            for query in share:
                service.search(query, k=5)

        threads = [
            threading.Thread(target=run, args=(service, queries[i::4]))
            for i, service in enumerate(services)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        roots = [
            s
            for s in tracer.recent(limit=5000)
            if s["name"] == "service.search"
        ]
        assert len(roots) == len(queries)
        root_by_trace = {s["trace_id"]: s for s in roots}
        # One trace per query — no two queries share a trace id.
        assert len(root_by_trace) == len(queries)
        for trace in tracer.recent_traces(limit=len(queries) + 5):
            spans = trace["spans"]
            if not any(s["name"] == "service.search" for s in spans):
                continue
            _assert_connected(spans)
            queries_inside = {
                s["attrs"]["query"]
                for s in spans
                if s["name"] == "service.search"
            }
            assert len(queries_inside) == 1


class TestStoreSpans:
    def _put_n(self, store, n):
        for i in range(n):
            store.put(
                frozenset({f"term{i:03d}"}),
                PostingList([Posting(doc_id=i, tf=2, doc_len=25)]),
                1,
                STATUS_NDK,
            )

    def test_flush_segment_read_and_compaction_spans(
        self, tracer, tmp_path
    ):
        store = SegmentStore(
            tmp_path, wal=True, cache_bytes=0, compact_dead_ratio=1.0
        )
        self._put_n(store, 8)
        store.checkpoint()  # memtable -> sealed segment, WAL dropped
        assert store.get_postings(frozenset({"term003"})) is not None
        self._put_n(store, 8)  # supersede everything once
        store.compact()
        store.close()

        spans = _spans_by_name(tracer)
        flush = spans["store.memtable_flush"]
        assert any(s["attrs"]["records"] == 8 for s in flush)
        reads = spans["store.segment_read"]
        assert all(
            s["attrs"]["length"] > 0 and s["attrs"]["segment"] >= 1
            for s in reads
        )
        (compaction,) = spans["store.compaction"]
        assert compaction["attrs"]["phase"] == "maintenance"
        assert compaction["attrs"]["compactions"] == 1

    def test_wal_replay_span_on_recovery(self, tracer, tmp_path):
        store = SegmentStore(tmp_path, wal=True)
        self._put_n(store, 10)
        del store  # simulate a kill: no close(), WAL is the only copy

        reopened = SegmentStore(tmp_path, wal=True)
        assert reopened.stats()["wal_replayed_records"] == 10
        reopened.close()
        (replay,) = _spans_by_name(tracer)["store.wal_replay"]
        assert replay["attrs"]["records"] == 10
        assert replay["attrs"]["wal_files"] >= 1

    def test_clean_open_has_no_replay_span(self, tracer, tmp_path):
        store = SegmentStore(tmp_path, wal=True)
        self._put_n(store, 4)
        store.close()  # clean shutdown checkpoints; nothing to replay

        reopened = SegmentStore(tmp_path, wal=True)
        reopened.close()
        assert "store.wal_replay" not in _spans_by_name(tracer)
