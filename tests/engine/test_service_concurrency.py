"""Tests for the race-proofed query path.

``search`` is thread-safe: the backend section of concurrent calls
genuinely overlaps (no serializing service lock), identical term sets
resolve once (single-flight), and a join may run beside searches.
Each query's backend section runs under its own RETRIEVAL charge (see
``repro.net.accounting``), so each response's ``traffic`` is exactly the
messages its own backend call generated, and a batch's traffic is the
merge of its responses'.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.corpus.querylog import QueryLogGenerator
from repro.engine.service import SearchService
from repro.net.accounting import Phase, merge_snapshots
from tests.conftest import SMALL_PARAMS

BUDGET_BYTES = 1_750  # ~250 postings


def build(collection, backend, cache_capacity=None, **kwargs):
    service = SearchService.build(
        collection,
        num_peers=4,
        backend=backend,
        params=SMALL_PARAMS,
        cache_capacity=cache_capacity,
        **kwargs,
    )
    service.index()
    return service


def build_kwargs(backend):
    return (
        {"memory_budget_bytes": BUDGET_BYTES}
        if backend == "hdk_disk"
        else {}
    )


@pytest.fixture(scope="module")
def querylog(small_collection):
    """15 distinct queries plus repeats — the dedup-relevant shape."""
    distinct = QueryLogGenerator(
        small_collection,
        window_size=SMALL_PARAMS.window_size,
        min_hits=3,
        seed=17,
    ).generate(15)
    return distinct + [distinct[2], distinct[7], distinct[2]]


class TestBatchDeterminism:
    @pytest.mark.parametrize("case", ["hdk", "hdk_disk", "hdk+join"])
    def test_per_query_deltas_sum_to_batch_window(
        self, small_collection, querylog, case
    ):
        """A batch's traffic is the merge of its responses': no message
        is lost and none is counted twice.  With ``+join`` a join runs
        on another thread meanwhile: none of its messages leaks into
        the batches, and its reports carry exactly the traffic of a
        join with no searches beside it."""
        backend, _, join = case.partition("+")
        if not join:
            service = build(
                small_collection, backend, cache_capacity=64,
                **build_kwargs(backend),
            )
            report = service.search_batch(querylog, k=10)
            assert report.traffic == merge_snapshots(
                *(response.traffic for response in report.responses)
            )
            assert report.traffic.retrieval_postings > 0
            return
        ids = small_collection.doc_ids()
        initial = small_collection.subset(ids[:-4])
        held_out = small_collection.subset(ids[-4:])
        service = build(initial, backend)  # no cache: every query pays
        joined: list = []
        joiner = threading.Thread(
            target=lambda: joined.extend(service.add_peers(held_out, 1))
        )
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            joiner.start()
            while joiner.is_alive():
                reports.append(service.search_batch(querylog, k=10))
        finally:
            sys.setswitchinterval(interval)
            joiner.join(timeout=60)
        assert not joiner.is_alive()
        assert len(reports) > 1, "no batch ran during the join"
        for report in reports:
            assert report.traffic == merge_snapshots(
                *(response.traffic for response in report.responses)
            )
            assert Phase.INDEXING not in report.traffic.messages_by_phase
        alone = build(initial, backend).add_peers(held_out, 1)
        assert [r.traffic for r in joined] == [r.traffic for r in alone]

    def test_repeats_hit_cache(self, small_collection, querylog):
        service = build(small_collection, "hdk", cache_capacity=64)
        report = service.search_batch(querylog, k=10)
        # 15 distinct term sets miss, the 3 appended repeats hit.
        assert report.cache_misses == 15
        assert report.cache_hits == 3
        for resp in report.responses[15:]:
            assert resp.cache_hit
            assert resp.traffic.total_postings == 0


class _ProbeBackend:
    """Delegating proxy that measures backend-section concurrency."""

    def __init__(self, inner, hold_s=0.0):
        self._inner = inner
        self._hold_s = hold_s
        self._lock = threading.Lock()
        self._active = 0
        self.max_active = 0
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def search(self, source, query, k):
        with self._lock:
            self._active += 1
            self.calls += 1
            self.max_active = max(self.max_active, self._active)
        try:
            if self._hold_s:
                time.sleep(self._hold_s)
            return self._inner.search(source, query, k)
        finally:
            with self._lock:
                self._active -= 1


class TestBackendSectionConcurrency:
    @pytest.mark.concurrency
    def test_backend_calls_overlap_with_workers(
        self, small_collection, querylog
    ):
        """The backend section is not behind a service-wide lock, so
        threads calling ``search`` overlap inside it."""
        service = build(small_collection, "hdk")
        probe = _ProbeBackend(service.backend, hold_s=0.02)
        service.backend = probe
        threads = [
            threading.Thread(target=service.search, args=(query, 10))
            for query in querylog[:8]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert probe.max_active >= 2

    def test_sequential_batch_never_overlaps(
        self, small_collection, querylog
    ):
        service = build(small_collection, "hdk")
        probe = _ProbeBackend(service.backend)
        service.backend = probe
        service.search_batch(querylog[:6], k=10)
        assert probe.max_active == 1


@pytest.mark.concurrency
class TestSingleFlight:
    def test_concurrent_identical_queries_resolve_once(
        self, small_collection
    ):
        """Direct concurrent callers with the same term set: one leader
        pays the backend, every follower is served as a cache hit."""
        service = build(small_collection, "hdk", cache_capacity=64)
        probe = _ProbeBackend(service.backend, hold_s=0.05)
        service.backend = probe
        num_threads = 8
        start = threading.Barrier(num_threads)
        responses = [None] * num_threads

        def worker(slot):
            def run():
                start.wait()
                responses[slot] = service.search("t00042 t00137", k=10)

            return run

        threads = [
            threading.Thread(target=worker(i)) for i in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert probe.calls == 1
        hits = [r for r in responses if r.cache_hit]
        misses = [r for r in responses if not r.cache_hit]
        assert len(misses) == 1
        assert len(hits) == num_threads - 1
        reference = [(r.doc_id, r.score) for r in misses[0].results]
        for hit in hits:
            assert [(r.doc_id, r.score) for r in hit.results] == reference
            assert hit.traffic.total_postings == 0

    def test_deeper_request_supersedes_shallower_entry(
        self, small_collection
    ):
        """A k=20 call after a cached k=5 must hit the backend again and
        upgrade the cached depth."""
        service = build(small_collection, "hdk", cache_capacity=64)
        probe = _ProbeBackend(service.backend)
        service.backend = probe
        service.search("t00042 t00137", k=5)
        service.search("t00042 t00137", k=20)
        assert probe.calls == 2
        # The deeper entry now serves both depths.
        assert service.search("t00042 t00137", k=5).cache_hit
        assert service.search("t00042 t00137", k=20).cache_hit
        assert probe.calls == 2


@pytest.mark.concurrency
class TestJoinBesideSearches:
    @pytest.mark.parametrize("backend", ["hdk", "hdk_disk", "hdk_super"])
    def test_join_traffic_unchanged_by_a_concurrent_search_loop(
        self, small_collection, querylog, backend
    ):
        """A search attributes its own thread's messages to RETRIEVAL;
        it must not flip the shared phase a join in another thread is
        indexing under, so the join's reports carry the same traffic
        with and without searches running beside it."""
        ids = small_collection.doc_ids()
        initial = small_collection.subset(ids[:-4])
        held_out = small_collection.subset(ids[-4:])

        def join_traffic(searching: bool) -> list:
            service = build(initial, backend, **build_kwargs(backend))
            stop = threading.Event()
            searched = []
            errors = []

            def search_loop():
                try:
                    while not stop.is_set():
                        for query in querylog:
                            service.search(query, k=10)
                            searched.append(query)
                except Exception as error:  # reported by the assert below
                    errors.append(error)

            loop = threading.Thread(target=search_loop)
            if searching:
                loop.start()
                while not searched and not errors:
                    time.sleep(0.001)
            before = len(searched)
            # Switch threads often, so searches land inside short joins.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                reports = service.add_peers(held_out, 1)
            finally:
                sys.setswitchinterval(interval)
            during = len(searched) - before
            stop.set()
            if searching:
                loop.join(timeout=60)
                assert not loop.is_alive()
                assert not errors, errors
                assert during > 0, "no search ran during the join"
            return [report.traffic for report in reports]

        assert join_traffic(True) == join_traffic(False)
