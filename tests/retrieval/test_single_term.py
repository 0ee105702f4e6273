"""Tests for the distributed single-term baseline."""

from __future__ import annotations

import pytest

from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.corpus.querylog import Query
from repro.net.accounting import Phase
from repro.net.network import P2PNetwork
from repro.retrieval.centralized import CentralizedBM25Engine
from repro.retrieval.single_term import (
    SingleTermIndexer,
    SingleTermRetrievalEngine,
)


def build_world(peer_docs: dict[str, list[tuple[str, ...]]]):
    network = P2PNetwork()
    collections = {}
    doc_id = 0
    all_docs = []
    for peer_name, docs in peer_docs.items():
        network.add_peer(peer_name)
        collection = DocumentCollection()
        for tokens in docs:
            doc = Document(doc_id=doc_id, tokens=tokens)
            collection.add(doc)
            all_docs.append(doc)
            doc_id += 1
        collections[peer_name] = collection
    indexers = [
        SingleTermIndexer(name, collections[name], network)
        for name in peer_docs
    ]
    for indexer in indexers:
        indexer.index()
    global_collection = DocumentCollection(all_docs)
    engine = SingleTermRetrievalEngine(
        network,
        num_documents=len(global_collection),
        average_doc_length=global_collection.average_document_length,
    )
    return network, engine, global_collection, indexers


WORLD = {
    "p0": [("apple", "pie"), ("quantum", "bit")],
    "p1": [("apple", "tree", "apple"), ("pie", "chart")],
}


def q(*terms):
    return Query(query_id=0, terms=tuple(sorted(terms)))


class TestIndexing:
    def test_posting_lists_merged_across_peers(self):
        network, engine, _, _ = build_world(WORLD)
        results, transferred = engine.search("p0", q("apple"), k=10)
        assert {r.doc_id for r in results} == {0, 2}
        assert transferred == 2

    def test_inserted_postings_counted(self):
        _, _, _, indexers = build_world(WORLD)
        # p0: apple,pie,quantum,bit -> 4; p1: apple,tree,pie,chart -> 4.
        assert indexers[0].inserted_postings == 4
        assert indexers[1].inserted_postings == 4

    def test_indexing_traffic_recorded(self):
        network, _, _, _ = build_world(WORLD)
        assert network.accounting.postings(Phase.INDEXING) == 8


class TestRetrieval:
    def test_traffic_equals_posting_list_lengths(self):
        network, engine, _, _ = build_world(WORLD)
        _, transferred = engine.search("p0", q("apple", "pie"), k=10)
        # df(apple)=2, df(pie)=2 -> 4 postings transferred.
        assert transferred == 4

    def test_retrieval_phase_accounting(self):
        # The caller opens the query's RETRIEVAL charge (as the service
        # does); the engine's lookups count into it.
        network, engine, _, _ = build_world(WORLD)
        with network.accounting.charge(Phase.RETRIEVAL) as charge:
            engine.search("p0", q("apple"), k=5)
        assert network.accounting.postings(Phase.RETRIEVAL) == 2
        assert charge.snapshot().postings_by_phase == {Phase.RETRIEVAL: 2}

    def test_unknown_term_is_free(self):
        network, engine, _, _ = build_world(WORLD)
        _, transferred = engine.search("p0", q("zzz"), k=5)
        assert transferred == 0

    def test_matches_centralized_bm25_ranking(self):
        # With full posting lists and the same scorer the distributed
        # baseline must reproduce the centralized ranking exactly.
        _, engine, global_collection, _ = build_world(WORLD)
        centralized = CentralizedBM25Engine(global_collection)
        for terms in [("apple",), ("apple", "pie"), ("quantum", "bit")]:
            query = q(*terms)
            distributed, _ = engine.search("p0", query, k=10)
            reference = centralized.search(query, k=10)
            assert [r.doc_id for r in distributed] == [
                r.doc_id for r in reference
            ]

    def test_invalid_k(self):
        _, engine, _, _ = build_world(WORLD)
        import pytest as _pytest

        with _pytest.raises(Exception):
            engine.search("p0", q("apple"), k=0)
