"""End-to-end behaviour of the full system on realistic scenarios."""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus import build_collection_from_texts
from repro.corpus.querylog import QueryLogGenerator
from repro.engine.service import SearchService
from repro.net.accounting import Phase
from repro.retrieval.centralized import CentralizedBM25Engine
from repro.retrieval.metrics import top_k_overlap


class TestRealTextWorld:
    """A hand-written mini encyclopedia exercised through raw text."""

    @pytest.fixture(scope="class")
    def world(self):
        texts = [
            "Apple pie is a fruit pie with apples and a pastry crust.",
            "The apple tree is cultivated worldwide for its fruit.",
            "Quantum computing uses superconducting qubits for hardware.",
            "Pie crusts are baked from butter, flour and sugar.",
            "Quantum entanglement links particles across distances.",
            "Cinnamon and sugar flavor many apple desserts and pies.",
            "Distributed hash tables route keys to responsible peers.",
            "Peer to peer networks distribute indexing across nodes.",
            "Inverted indexes map terms to posting lists of documents.",
            "BM25 ranks documents using term frequency and length.",
            "Web retrieval engines crawl and index billions of pages.",
            "Posting lists grow with collection size in term indexes.",
        ]
        collection = build_collection_from_texts(texts)
        params = HDKParameters(
            df_max=2, window_size=6, s_max=3, ff=1_000, fr=1
        )
        engine = SearchService.build(
            collection, num_peers=3, params=params, cache_capacity=None
        )
        engine.index()
        return collection, engine

    def test_topical_query_finds_topical_docs(self, world):
        collection, engine = world
        result = engine.search("apple pie")
        top_ids = [r.doc_id for r in result.results[:3]]
        # The three apple-pie documents are 0, 5, and one of 1/3.
        assert 0 in top_ids

    def test_raw_queries_are_preprocessed(self, world):
        _, engine = world
        # Stopwords and case must be handled by the query processor.
        result = engine.search("The APPLES and the PIES")
        assert result.keys_looked_up >= 2

    def test_distinct_topics_distinct_results(self, world):
        _, engine = world
        apple = {r.doc_id for r in engine.search("apple pie").results[:3]}
        quantum = {
            r.doc_id for r in engine.search("quantum qubits").results[:3]
        }
        assert apple != quantum

    def test_phase_separation(self, world):
        _, engine = world
        accounting = engine.network.accounting
        assert accounting.postings(Phase.INDEXING) > 0
        # Searches above ran in the retrieval phase.
        assert accounting.messages(Phase.RETRIEVAL) > 0


class TestQualityAgainstCentralized:
    """Figure-7-style comparison on the shared synthetic world."""

    def test_overlap_reasonable(self, small_collection, small_params):
        engine = SearchService.build(
            small_collection,
            num_peers=4,
            params=small_params,
            cache_capacity=None,
        )
        engine.index()
        centralized = CentralizedBM25Engine(small_collection)
        queries = QueryLogGenerator(
            small_collection,
            window_size=small_params.window_size,
            min_hits=5,
            seed=21,
        ).generate(15)
        overlaps = []
        for query in queries:
            hdk = engine.search(query, k=10)
            reference = centralized.search(query, k=10)
            overlaps.append(
                top_k_overlap(hdk.results, reference, k=10)
            )
        mean = sum(overlaps) / len(overlaps)
        # At df_max=10 over 300 docs truncation is harsh (df_max == k,
        # unlike the paper's DF_max=400 >> k=20); the engines must still
        # agree on a noticeable fraction of the top-10.
        assert mean > 15.0

    def test_overlap_improves_with_df_max(self, small_collection):
        """Figure 7's central trade-off: a larger DF_max mimics the
        centralized engine better (at higher retrieval traffic)."""
        centralized = CentralizedBM25Engine(small_collection)
        queries = QueryLogGenerator(
            small_collection, window_size=8, min_hits=5, seed=21
        ).generate(15)
        means = []
        for df_max in (6, 40):
            params = HDKParameters(
                df_max=df_max, window_size=8, s_max=3, ff=3_000, fr=3
            )
            engine = SearchService.build(
                small_collection,
                num_peers=4,
                params=params,
                cache_capacity=None,
            )
            engine.index()
            overlaps = [
                top_k_overlap(
                    engine.search(q, k=10).results,
                    centralized.search(q, k=10),
                    k=10,
                )
                for q in queries
            ]
            means.append(sum(overlaps) / len(overlaps))
        assert means[1] > means[0] + 10.0

    def test_single_term_mode_matches_centralized(
        self, st_engine, small_collection
    ):
        centralized = CentralizedBM25Engine(small_collection)
        queries = QueryLogGenerator(
            small_collection, window_size=8, min_hits=5, seed=22
        ).generate(10)
        for query in queries:
            distributed = st_engine.search(query, k=10)
            reference = centralized.search(query, k=10)
            assert (
                top_k_overlap(distributed.results, reference, k=10)
                == 100.0
            )


class TestTrafficShapes:
    """Figures 4/6 shapes on the shared engines."""

    def test_hdk_indexing_costlier_retrieval_cheaper(
        self, hdk_engine, st_engine, small_collection
    ):
        assert (
            hdk_engine.inserted_postings_total()
            > st_engine.inserted_postings_total()
        )
        queries = QueryLogGenerator(
            small_collection, window_size=8, min_hits=5, seed=23
        ).generate(10)
        hdk_traffic = sum(
            hdk_engine.search(q).postings_transferred for q in queries
        )
        st_traffic = sum(
            st_engine.search(q).postings_transferred for q in queries
        )
        assert hdk_traffic < st_traffic

    def test_hdk_retrieval_bounded(self, hdk_engine, small_collection):
        queries = QueryLogGenerator(
            small_collection, window_size=8, min_hits=5, seed=24
        ).generate(10)
        for query in queries:
            result = hdk_engine.search(query)
            bound = result.keys_looked_up * hdk_engine.params.df_max
            assert result.postings_transferred <= bound
