"""Tests for the assembled search engine: build, index, and search
through a cache-less :class:`SearchService` in both paper models."""

from __future__ import annotations

import pytest

from repro import SearchService
from repro.errors import ConfigurationError, RetrievalError
from tests.conftest import SMALL_PARAMS


class TestBuild:
    def test_splits_collection_across_peers(self, small_collection):
        engine = SearchService.build(
            small_collection,
            num_peers=4,
            params=SMALL_PARAMS,
            cache_capacity=None,
        )
        assert len(engine.peers) == 4
        total = sum(p.num_documents for p in engine.peers)
        assert total == len(small_collection)

    def test_invalid_peer_count(self, small_collection):
        with pytest.raises(ConfigurationError):
            SearchService.build(
                small_collection, num_peers=0, cache_capacity=None
            )

    def test_unknown_overlay(self, small_collection):
        with pytest.raises(ConfigurationError):
            SearchService.build(
                small_collection,
                num_peers=2,
                overlay="kademlia",
                cache_capacity=None,
            )

    def test_pgrid_overlay_accepted(self, small_collection):
        engine = SearchService.build(
            small_collection,
            num_peers=4,
            params=SMALL_PARAMS,
            overlay="pgrid",
            cache_capacity=None,
        )
        assert len(engine.network.peer_ids()) == 4


class TestIndexing:
    def test_double_index_rejected(self, small_collection):
        engine = SearchService.build(
            small_collection,
            num_peers=2,
            params=SMALL_PARAMS,
            cache_capacity=None,
        )
        engine.index()
        with pytest.raises(ConfigurationError):
            engine.index()

    def test_search_before_index_rejected(self, small_collection):
        engine = SearchService.build(
            small_collection,
            num_peers=2,
            params=SMALL_PARAMS,
            cache_capacity=None,
        )
        with pytest.raises(RetrievalError):
            engine.search("t00001 t00002")

    def test_reports_per_peer(self, hdk_engine):
        assert len(hdk_engine.indexing_reports) == len(hdk_engine.peers)

    def test_hdk_index_has_multiterm_keys(self, hdk_engine):
        by_size = hdk_engine.inserted_postings_by_key_size()
        assert by_size.get(1, 0) > 0
        assert by_size.get(2, 0) > 0

    def test_inserted_at_least_stored(self, hdk_engine):
        # NDK truncation means some inserted postings are not stored.
        assert (
            hdk_engine.inserted_postings_total()
            >= hdk_engine.stored_postings_total()
        )

    def test_hdk_stores_more_than_single_term(self, hdk_engine, st_engine):
        # Figure 3: the HDK index is larger than the single-term index.
        assert (
            hdk_engine.stored_postings_total()
            > st_engine.stored_postings_total()
        )

    def test_collection_sample_size(self, hdk_engine, small_collection):
        assert (
            hdk_engine.collection_sample_size()
            == small_collection.sample_size
        )


class TestSearch:
    def test_search_returns_ranked_results(self, hdk_engine):
        result = hdk_engine.search("t00042 t00137")
        assert result.results == sorted(
            result.results, key=lambda r: (-r.score, r.doc_id)
        )

    def test_search_accepts_query_objects(self, hdk_engine):
        from repro.corpus.querylog import Query

        result = hdk_engine.search(Query(query_id=5, terms=("t00042",)))
        assert result.query.query_id == 5

    def test_hdk_traffic_below_single_term(self, hdk_engine, st_engine):
        # Figure 6: HDK transfers fewer postings per query.
        query = "t00001 t00002"
        hdk = hdk_engine.search(query)
        st = st_engine.search(query)
        assert hdk.postings_transferred < st.postings_transferred

    def test_source_peer_selectable(self, hdk_engine):
        result = hdk_engine.search(
            "t00042", source_peer=hdk_engine.peers[-1].name
        )
        assert result.keys_looked_up >= 1

    def test_single_term_mode_result_shape(self, st_engine):
        result = st_engine.search("t00042 t00137")
        assert result.keys_looked_up == 2
        assert result.postings_transferred > 0
