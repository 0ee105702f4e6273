"""Tests for the LRU query-result cache."""

from __future__ import annotations

import pytest

from repro.corpus.querylog import Query
from repro.errors import RetrievalError
from repro.retrieval.cache import QueryResultCache
from repro.retrieval.hdk_engine import HDKSearchResult
from repro.retrieval.ranking import RankedResult


class FakeEngine:
    """Counts searches and returns deterministic results."""

    def __init__(self):
        self.calls = 0

    def search(self, query: Query, k: int = 20) -> HDKSearchResult:
        self.calls += 1
        result = HDKSearchResult(query=query)
        result.results = [
            RankedResult(doc_id=i, score=float(100 - i)) for i in range(k)
        ]
        result.postings_transferred = 40
        result.keys_looked_up = 3
        return result


def q(*terms, query_id=0):
    return Query(query_id=query_id, terms=tuple(sorted(terms)))


def read_through(cache, engine, query, k=20):
    """The get-else-resolve-and-put sequence a caller runs around the
    cache (what :class:`SearchService` does on a miss)."""
    cached = cache.get(query, k)
    if cached is not None:
        return cached
    result = engine.search(query, k=k)
    cache.put(query, k, result, result.postings_transferred)
    return result


class TestCaching:
    def test_first_query_misses(self):
        cache = QueryResultCache()
        read_through(cache, FakeEngine(), q("a", "b"))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_repeat_query_hits(self):
        engine = FakeEngine()
        cache = QueryResultCache()
        read_through(cache, engine, q("a", "b"))
        read_through(cache, engine, q("a", "b"))
        assert engine.calls == 1
        assert cache.stats.hits == 1

    def test_hit_has_zero_traffic_and_saves_counted(self):
        engine = FakeEngine()
        cache = QueryResultCache()
        first = read_through(cache, engine, q("a", "b"))
        hit = read_through(cache, engine, q("a", "b"))
        # The hit is the stored payload: the engine (and so the
        # network) was not asked again, and the avoided traffic is
        # credited to the stats.
        assert hit is first
        assert engine.calls == 1
        assert cache.stats.postings_saved == 40

    def test_term_order_irrelevant(self):
        engine = FakeEngine()
        cache = QueryResultCache()
        read_through(cache, engine, q("a", "b"))
        read_through(cache, engine, q("b", "a", query_id=9))
        assert engine.calls == 1

    def test_shallower_k_served_from_deeper_cache(self):
        engine = FakeEngine()
        cache = QueryResultCache()
        read_through(cache, engine, q("a"), k=20)
        deeper = read_through(cache, engine, q("a"), k=5)
        assert engine.calls == 1
        # The payload is the deeper ranking; its prefix answers k=5.
        assert len(deeper.results) == 20

    def test_deeper_k_misses(self):
        engine = FakeEngine()
        cache = QueryResultCache()
        read_through(cache, engine, q("a"), k=5)
        read_through(cache, engine, q("a"), k=20)
        assert engine.calls == 2

    def test_lru_eviction(self):
        engine = FakeEngine()
        cache = QueryResultCache(capacity=2)
        read_through(cache, engine, q("a"))
        read_through(cache, engine, q("b"))
        read_through(cache, engine, q("c"))  # evicts 'a'
        assert cache.stats.evictions == 1
        read_through(cache, engine, q("a"))  # miss again
        assert engine.calls == 4

    def test_lru_order_refreshed_on_hit(self):
        engine = FakeEngine()
        cache = QueryResultCache(capacity=2)
        read_through(cache, engine, q("a"))
        read_through(cache, engine, q("b"))
        read_through(cache, engine, q("a"))  # refresh 'a'
        read_through(cache, engine, q("c"))  # evicts 'b', not 'a'
        read_through(cache, engine, q("a"))
        assert cache.stats.hits == 2

    def test_invalidate(self):
        engine = FakeEngine()
        cache = QueryResultCache()
        read_through(cache, engine, q("a"))
        cache.invalidate()
        assert len(cache) == 0
        read_through(cache, engine, q("a"))
        assert engine.calls == 2

    def test_hit_rate(self):
        engine = FakeEngine()
        cache = QueryResultCache()
        assert cache.stats.hit_rate == 0.0
        read_through(cache, engine, q("a"))
        read_through(cache, engine, q("a"))
        assert cache.stats.hit_rate == 0.5

    def test_invalid_capacity(self):
        with pytest.raises(RetrievalError):
            QueryResultCache(capacity=0)

    def test_invalid_k(self):
        with pytest.raises(RetrievalError):
            QueryResultCache().get(q("a"), k=0)


class TestWithRealEngine:
    def test_cache_over_hdk_engine(self, hdk_engine):
        cache = QueryResultCache()
        query = Query(query_id=0, terms=("t00042", "t00137"))
        first = read_through(cache, hdk_engine, query, k=10)
        second = read_through(cache, hdk_engine, query, k=10)
        assert [r.doc_id for r in first.results] == [
            r.doc_id for r in second.results
        ]
        assert cache.stats.hits == 1
        assert cache.stats.postings_saved == first.postings_transferred


@pytest.mark.concurrency
class TestQueryResultCacheThreadSafety:
    """The service-level LRU is hammered by every search_batch worker;
    entries, LRU order, and counters must stay consistent."""

    def _make(self, capacity=64):
        return QueryResultCache(capacity=capacity)

    def test_counters_consistent_under_hammering(self):
        import threading

        cache = self._make(capacity=32)
        calls_per_thread = 600
        num_threads = 8
        start = threading.Barrier(num_threads)

        def worker(seed: int) -> None:
            start.wait()
            for i in range(calls_per_thread):
                query = q(f"term{(seed * 7 + i) % 48}")
                if cache.get(query, k=5) is None:
                    cache.put(query, 5, payload=("results", seed, i),
                              postings_transferred=3)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every lookup was counted exactly once, as a hit or a miss.
        total_calls = calls_per_thread * num_threads
        assert cache.stats.hits + cache.stats.misses == total_calls
        # The LRU never overflows its capacity, and bookkeeping agrees.
        assert len(cache) <= 32

    def test_no_lost_entries_on_disjoint_keys(self):
        import threading

        cache = self._make(capacity=1024)
        num_threads = 8
        per_thread = 100
        start = threading.Barrier(num_threads)

        def worker(tid: int) -> None:
            start.wait()
            for i in range(per_thread):
                query = q(f"t{tid}", f"i{i}")
                cache.put(query, 5, payload=(tid, i), postings_transferred=1)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Capacity was never exceeded, so every disjoint put survived.
        assert len(cache) == num_threads * per_thread
        for tid in range(num_threads):
            for i in range(per_thread):
                assert cache.get(q(f"t{tid}", f"i{i}"), 5) == (tid, i)

    def test_try_hit_counts_nothing_on_absence(self):
        cache = self._make()
        assert cache.try_hit(q("a"), 5) is None
        assert cache.stats.misses == 0
        assert cache.stats.hits == 0
        cache.note_miss()
        assert cache.stats.misses == 1

    def test_try_hit_counts_real_hits(self):
        cache = self._make()
        cache.put(q("a"), 5, payload="payload", postings_transferred=9)
        assert cache.try_hit(q("a"), 5) == "payload"
        assert cache.stats.hits == 1
        assert cache.stats.postings_saved == 9

    def test_get_still_counts_misses(self):
        cache = self._make()
        assert cache.get(q("a"), 5) is None
        assert cache.stats.misses == 1

    def test_put_never_downgrades_a_deeper_entry(self):
        """Race regression: a shallower resolution finishing after a
        concurrent deeper one must not replace the deeper cached
        ranking (deep entries prefix-serve every shallower request)."""
        cache = self._make()
        cache.put(q("a"), 20, payload="deep", postings_transferred=9)
        cache.put(q("a"), 5, payload="shallow", postings_transferred=3)
        assert cache.try_hit(q("a"), 20) == "deep"

    def test_put_refreshes_same_depth(self):
        cache = self._make()
        cache.put(q("a"), 5, payload="old", postings_transferred=1)
        cache.put(q("a"), 5, payload="new", postings_transferred=1)
        assert cache.try_hit(q("a"), 5) == "new"
