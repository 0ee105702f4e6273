"""Incremental join: the paper's growth protocol.

When peers join an already-indexed network with new documents, the NDK
notification/expansion cascade must converge the global index to the
*same state* a fresh rebuild over the union collection (with the same
peer partition) would produce: same keys, same statuses, same global dfs,
same stored posting lists.
"""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService
from repro.errors import ConfigurationError
from repro.hdk.indexer import (
    PeerIndexer,
    run_distributed_indexing,
    run_incremental_join,
)
from repro.index.global_index import GlobalKeyIndex
from repro.net.network import P2PNetwork


PARAMS = HDKParameters(df_max=3, window_size=5, s_max=3, ff=10_000, fr=1)


def build_fresh(peer_collections: dict[str, DocumentCollection]):
    """Index all peers at once."""
    network = P2PNetwork()
    global_index = GlobalKeyIndex(network, PARAMS)
    indexers = []
    for name, collection in peer_collections.items():
        network.add_peer(name)
        indexers.append(
            PeerIndexer(name, collection, global_index, PARAMS)
        )
    run_distributed_indexing(indexers, PARAMS)
    return global_index


def build_incremental(
    initial: dict[str, DocumentCollection],
    joining: dict[str, DocumentCollection],
):
    """Index the initial peers, then join the rest incrementally."""
    network = P2PNetwork()
    global_index = GlobalKeyIndex(network, PARAMS)
    initial_indexers = []
    for name, collection in initial.items():
        network.add_peer(name)
        initial_indexers.append(
            PeerIndexer(name, collection, global_index, PARAMS)
        )
    run_distributed_indexing(initial_indexers, PARAMS)
    joining_indexers = []
    for name, collection in joining.items():
        network.add_peer(name)
        joining_indexers.append(
            PeerIndexer(name, collection, global_index, PARAMS)
        )
    run_incremental_join(initial_indexers, joining_indexers, PARAMS)
    return global_index


def index_state(global_index: GlobalKeyIndex):
    """Comparable snapshot: key -> (status, global df, stored doc ids)."""
    return {
        entry.key: (
            entry.status,
            entry.global_df,
            tuple(entry.postings.doc_ids()),
        )
        for entry in global_index.entries()
    }


def synthetic_partition(num_docs: int, seed: int):
    config = SyntheticCorpusConfig(
        vocabulary_size=150, mean_doc_length=20, num_topics=4
    )
    corpus = SyntheticCorpusGenerator(config, seed=seed).generate(num_docs)
    ids = corpus.doc_ids()
    half = num_docs // 2
    return {
        "p0": corpus.subset(ids[:half:2]),
        "p1": corpus.subset(ids[1:half:2]),
    }, {
        "p2": corpus.subset(ids[half::2]),
        "p3": corpus.subset(ids[half + 1 :: 2]),
    }


class TestEquivalenceWithRebuild:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synthetic_worlds(self, seed):
        initial, joining = synthetic_partition(60, seed)
        fresh = build_fresh({**initial, **joining})
        incremental = build_incremental(initial, joining)
        assert index_state(incremental) == index_state(fresh)

    def test_handcrafted_transition_chain(self):
        # Terms engineered so singles flip to NDK only after the join,
        # forcing expansion of pairs, and one pair flips forcing a triple.
        initial = {
            "p0": DocumentCollection(
                [
                    Document(doc_id=0, tokens=("a", "b", "c")),
                    Document(doc_id=1, tokens=("a", "b", "c")),
                ]
            ),
            "p1": DocumentCollection(
                [
                    Document(doc_id=2, tokens=("a", "b", "c")),
                    Document(doc_id=3, tokens=("a", "x", "y")),
                ]
            ),
        }
        joining = {
            "p2": DocumentCollection(
                [
                    Document(doc_id=4, tokens=("a", "b", "c")),
                    Document(doc_id=5, tokens=("a", "b", "z")),
                    Document(doc_id=6, tokens=("b", "c", "z")),
                    Document(doc_id=7, tokens=("a", "c", "z")),
                ]
            ),
        }
        fresh = build_fresh({**initial, **joining})
        incremental = build_incremental(initial, joining)
        assert index_state(incremental) == index_state(fresh)

    def test_cascade_produces_multiterm_keys(self):
        initial, joining = synthetic_partition(60, seed=5)
        incremental = build_incremental(initial, joining)
        sizes = {len(entry.key) for entry in incremental.entries()}
        assert 2 in sizes  # expansions actually happened


class TestEngineAddPeers:
    @pytest.fixture()
    def grown_engine(self):
        config = SyntheticCorpusConfig(
            vocabulary_size=200, mean_doc_length=25, num_topics=5
        )
        corpus = SyntheticCorpusGenerator(config, seed=8).generate(120)
        ids = corpus.doc_ids()
        first, second = corpus.subset(ids[:60]), corpus.subset(ids[60:])
        params = HDKParameters(
            df_max=5, window_size=6, s_max=3, ff=5_000, fr=2
        )
        engine = SearchService.build(
            first, num_peers=2, params=params, cache_capacity=None
        )
        engine.index()
        engine.add_peers(second, num_new_peers=2)
        return engine, corpus, params

    def test_peer_count_grows(self, grown_engine):
        engine, _, _ = grown_engine
        assert len(engine.peers) == 4
        assert len(engine.indexing_reports) == 4

    def test_matches_fresh_build_statuses(self, grown_engine):
        engine, corpus, params = grown_engine
        # A fresh engine with the same 4-way partition: peers 0-1 got
        # round-robin halves of the first 60 docs, 2-3 of the last 60.
        network = P2PNetwork()
        fresh_index = GlobalKeyIndex(network, params)
        indexers = []
        for i, peer in enumerate(engine.peers):
            name = f"q{i}"
            network.add_peer(name)
            indexers.append(
                PeerIndexer(name, peer.collection, fresh_index, params)
            )
        run_distributed_indexing(indexers, params)
        assert index_state(engine.backend.global_index) == index_state(
            fresh_index
        )

    def test_search_works_after_growth(self, grown_engine):
        engine, _, _ = grown_engine
        result = engine.search("t00003 t00010")
        assert result.keys_looked_up >= 2

    def test_add_peers_requires_index(self):
        config = SyntheticCorpusConfig(
            vocabulary_size=150, mean_doc_length=20, num_topics=4
        )
        corpus = SyntheticCorpusGenerator(config, seed=1).generate(20)
        engine = SearchService.build(
            corpus, num_peers=2, params=PARAMS, cache_capacity=None
        )
        with pytest.raises(ConfigurationError):
            engine.add_peers(corpus, 1)
