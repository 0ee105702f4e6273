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


class TestHitAccounting:
    """``get`` counts a miss on absence; ``try_hit`` — the path caches'
    probe, whose misses the router counts per lookup — counts only
    hits."""

    def _make(self, capacity=64):
        return QueryResultCache(capacity=capacity)

    def test_try_hit_counts_nothing_on_absence(self):
        cache = self._make()
        assert cache.try_hit(q("a"), 5) is None
        assert cache.stats.misses == 0
        assert cache.stats.hits == 0

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

    def test_put_refreshes_same_depth(self):
        cache = self._make()
        cache.put(q("a"), 5, payload="old", postings_transferred=1)
        cache.put(q("a"), 5, payload="new", postings_transferred=1)
        assert cache.try_hit(q("a"), 5) == "new"
