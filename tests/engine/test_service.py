"""Tests for the SearchService facade: cache, batch, and query-log API."""

from __future__ import annotations

import pytest

from repro.engine.service import BatchSearchReport, SearchService
from repro.errors import ConfigurationError, RetrievalError
from tests.conftest import SMALL_PARAMS


def build_service(collection, cache_capacity, backend="hdk"):
    service = SearchService.build(
        collection,
        num_peers=4,
        backend=backend,
        params=SMALL_PARAMS,
        cache_capacity=cache_capacity,
    )
    service.index()
    return service


#: A query log with repeated term sets — the heavy-traffic workload the
#: batch API amortizes.
LOG = [
    "t00042 t00137",
    "t00001 t00002",
    "t00042 t00137",
    "t00003 t00104",
    "t00001 t00002",
    "t00042 t00137",
]


class TestLifecycle:
    def test_double_index_rejected(self, small_collection):
        service = build_service(small_collection, cache_capacity=None)
        with pytest.raises(ConfigurationError):
            service.index()

    def test_batch_before_index_rejected(self, small_collection):
        service = SearchService.build(
            small_collection, num_peers=2, params=SMALL_PARAMS
        )
        with pytest.raises(RetrievalError):
            service.search_batch(LOG)

    def test_invalid_k_rejected(self, small_collection):
        service = build_service(small_collection, cache_capacity=None)
        with pytest.raises(RetrievalError):
            service.search("t00042", k=0)

    def test_invalid_peer_count(self, small_collection):
        with pytest.raises(ConfigurationError):
            SearchService.build(small_collection, num_peers=0)

    def test_unknown_overlay(self, small_collection):
        with pytest.raises(ConfigurationError):
            SearchService.build(
                small_collection, num_peers=2, overlay="kademlia"
            )


class TestCache:
    def test_repeat_query_hits_cache(self, small_collection):
        service = build_service(small_collection, cache_capacity=8)
        first = service.search("t00042 t00137", k=10)
        second = service.search("t00042 t00137", k=10)
        assert first.cache_hit is False
        assert second.cache_hit is True
        assert second.postings_transferred == 0
        assert second.traffic.total_postings == 0
        assert second.results == first.results
        assert service.cache_stats.hits == 1
        assert service.cache_stats.postings_saved == (
            first.postings_transferred
        )
        # Cost fields describe the call that was made: a hit issues no
        # index lookups at all.
        assert second.keys_looked_up == 0
        assert second.keys_found == 0
        assert second.dk_keys == 0

    def test_deeper_cached_result_serves_shallower_request(
        self, small_collection
    ):
        service = build_service(small_collection, cache_capacity=8)
        deep = service.search("t00042 t00137", k=10)
        shallow = service.search("t00042 t00137", k=3)
        assert shallow.cache_hit is True
        assert shallow.results == deep.results[:3]
        deeper = service.search("t00042 t00137", k=15)
        assert deeper.cache_hit is False  # k=15 exceeds the cached depth

    def test_cache_disabled(self, small_collection):
        service = build_service(small_collection, cache_capacity=None)
        assert service.cache is None
        first = service.search("t00042 t00137", k=10)
        second = service.search("t00042 t00137", k=10)
        assert second.cache_hit is False
        assert second.postings_transferred == first.postings_transferred
        assert service.cache_stats.hits == 0

    def test_add_peers_invalidates_cache(self, small_collection):
        ids = small_collection.doc_ids()
        service = build_service(
            small_collection.subset(ids[:200]), cache_capacity=8
        )
        service.search("t00042 t00137", k=10)
        service.add_peers(small_collection.subset(ids[200:]), 2)
        refreshed = service.search("t00042 t00137", k=10)
        assert refreshed.cache_hit is False  # stale entry was dropped


class TestBatch:
    def test_batch_traffic_equals_sum_without_cache(self, small_collection):
        service = build_service(small_collection, cache_capacity=None)
        individual = sum(
            service.search(raw, k=10).postings_transferred for raw in LOG
        )
        report = service.search_batch(LOG, k=10)
        assert isinstance(report, BatchSearchReport)
        assert report.num_queries == len(LOG)
        assert report.total_postings_transferred == individual
        assert report.traffic.retrieval_postings == individual
        assert report.cache_hits == 0

    def test_batch_traffic_strictly_less_with_cache(self, small_collection):
        baseline = build_service(small_collection, cache_capacity=None)
        cold = baseline.search_batch(LOG, k=10).total_postings_transferred
        cached = build_service(small_collection, cache_capacity=16)
        report = cached.search_batch(LOG, k=10)
        assert report.total_postings_transferred < cold
        # Three distinct term sets in a six-query log: half are hits.
        assert report.cache_hits == 3
        assert report.cache_misses == 3
        assert report.cache_hit_rate == pytest.approx(0.5)
        # The batch traffic agrees with the per-response sum.
        assert (
            report.traffic.retrieval_postings
            == report.total_postings_transferred
        )

    def test_batch_responses_in_order_with_timing(self, small_collection):
        service = build_service(small_collection, cache_capacity=16)
        report = service.search_batch(LOG, k=5)
        assert [r.query.terms for r in report.responses] == [
            tuple(sorted(raw.split())) for raw in LOG
        ]
        assert all(r.elapsed_ms >= 0.0 for r in report.responses)
        assert report.elapsed_ms >= max(
            r.elapsed_ms for r in report.responses
        )
        assert report.mean_elapsed_ms > 0.0

    def test_batch_works_for_every_backend(self, small_collection):
        for backend in (
            "hdk",
            "single_term",
            "single_term_bloom",
            "centralized",
        ):
            service = build_service(
                small_collection, cache_capacity=16, backend=backend
            )
            report = service.search_batch(LOG[:3], k=5)
            assert report.num_queries == 3
            assert all(r.backend == backend for r in report.responses)


class TestQueryLog:
    def test_run_querylog_over_generated_log(self, small_collection):
        from repro.corpus.querylog import QueryLogGenerator

        queries = QueryLogGenerator(
            small_collection,
            window_size=SMALL_PARAMS.window_size,
            min_hits=3,
            seed=23,
        ).generate(50)
        service = build_service(small_collection, cache_capacity=64)
        report = service.run_querylog(queries, k=10)
        assert report.num_queries == 50
        assert report.total_postings_transferred > 0
        assert report.traffic is not None
        assert report.cache_hits + report.cache_misses == 50
        # Replaying the same log is pure cache.
        replay = service.run_querylog(queries, k=10)
        assert replay.cache_hits == 50
        assert replay.total_postings_transferred == 0
        assert replay.traffic.retrieval_postings == 0

    def test_querylog_queries_preserved(self, small_collection):
        from repro.corpus.querylog import QueryLogGenerator

        queries = QueryLogGenerator(
            small_collection,
            window_size=SMALL_PARAMS.window_size,
            min_hits=3,
            seed=29,
        ).generate(10)
        service = build_service(small_collection, cache_capacity=64)
        report = service.run_querylog(queries, k=10)
        assert [r.query.query_id for r in report.responses] == [
            q.query_id for q in queries
        ]


class TestStats:
    def test_service_stats_include_cache_and_traffic(self, small_collection):
        service = build_service(small_collection, cache_capacity=8)
        service.search("t00042 t00137")
        service.search("t00042 t00137")
        stats = service.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["num_peers"] == 4
        assert stats["traffic"]["retrieval_postings"] > 0

    def test_service_stats_are_plain_data(self, small_collection):
        """stats() must snapshot counters into plain picklable and
        JSON-serializable data — the contract the serving workers rely
        on to report cross-process (no live backend internals)."""
        import json
        import pickle

        service = build_service(small_collection, cache_capacity=8)
        service.search("t00042 t00137")
        stats = service.stats()
        assert pickle.loads(pickle.dumps(stats)) == stats
        assert json.loads(json.dumps(stats)) == stats
