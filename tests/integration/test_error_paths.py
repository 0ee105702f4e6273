"""Cross-layer error paths: the failure modes a downstream user hits.

Every public entry point must fail loudly and specifically — not corrupt
state — when misused.
"""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.errors import (
    ConfigurationError,
    IndexError_,
    KeyGenerationError,
    PeerNotFoundError,
    ReproError,
)
from repro.hdk.indexer import run_incremental_join
from repro.index.global_index import GlobalKeyIndex
from repro.index.postings import PostingList
from repro.net.network import P2PNetwork


PARAMS = HDKParameters(df_max=3, window_size=4, s_max=2, ff=1_000, fr=1)


def small_collection():
    return DocumentCollection([Document(doc_id=0, tokens=("a", "b"))])


class TestNetworkMisuse:
    def test_insert_from_unknown_peer(self):
        network = P2PNetwork()
        network.add_peer("real")
        with pytest.raises(PeerNotFoundError):
            network.insert("ghost", "key", lambda cur: "v", 1)

    def test_lookup_from_unknown_peer(self):
        network = P2PNetwork()
        network.add_peer("real")
        with pytest.raises(PeerNotFoundError):
            network.lookup("ghost", "key", lambda v: 0)

    def test_transfer_with_unknown_destination(self):
        network = P2PNetwork()
        network.add_peer("real")
        with pytest.raises(PeerNotFoundError):
            network.transfer("real", "ghost", postings=1)

    def test_state_unchanged_after_failed_insert(self):
        network = P2PNetwork()
        network.add_peer("real")
        try:
            network.insert("ghost", "key", lambda cur: "v", 1)
        except PeerNotFoundError:
            pass
        assert network.stored_entry_count() == 0


class TestGlobalIndexMisuse:
    def test_insert_without_peers_fails(self):
        network = P2PNetwork()
        index = GlobalKeyIndex(network, PARAMS)
        with pytest.raises(ReproError):
            index.insert(
                "nobody",
                frozenset({"a"}),
                PostingList(),
            )

    def test_local_df_below_payload_rejected(self):
        network = P2PNetwork()
        network.add_peer("p0")
        index = GlobalKeyIndex(network, PARAMS)
        from repro.index.postings import Posting

        postings = PostingList(
            [Posting(doc_id=0, tf=1), Posting(doc_id=1, tf=1)]
        )
        with pytest.raises(IndexError_):
            index.insert("p0", frozenset({"a"}), postings, local_df=1)


class TestProtocolMisuse:
    def test_incremental_join_without_joining_peers(self):
        with pytest.raises(KeyGenerationError):
            run_incremental_join([], [], PARAMS)

    def test_engine_rejects_empty_peer_list(self):
        from repro.engine.service import SearchService
        from repro.net.network import P2PNetwork as Net
        from repro.text.pipeline import TextPipeline

        with pytest.raises(ConfigurationError):
            SearchService(
                peers=[],
                network=Net(),
                params=PARAMS,
                backend="hdk",
                pipeline=TextPipeline(),
            )

    def test_search_with_unknown_source_peer(self):
        from repro.engine.service import SearchService

        engine = SearchService.build(
            small_collection(), num_peers=1, params=PARAMS
        )
        engine.index()
        with pytest.raises(PeerNotFoundError):
            engine.search("quantum pie", source_peer="ghost")


class TestQueryEdgeCases:
    def test_all_stopword_query(self):
        from repro.engine.service import SearchService
        from repro.errors import RetrievalError

        engine = SearchService.build(
            small_collection(), num_peers=1, params=PARAMS
        )
        engine.index()
        with pytest.raises(RetrievalError):
            engine.search("the of and")

    def test_query_of_only_unknown_terms_returns_empty(self):
        from repro.engine.service import SearchService

        engine = SearchService.build(
            small_collection(), num_peers=1, params=PARAMS
        )
        engine.index()
        result = engine.search("zzzz qqqq")
        assert result.results == []
        assert result.keys_found == 0
