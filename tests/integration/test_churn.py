"""Churn: peers joining and leaving a populated network.

The paper's growth protocol adds peers to a running system; the DHT must
hand keys off so every entry stays reachable, with the handoff traffic
accounted as maintenance (excluded from the paper's indexing/retrieval
posting counts).
"""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService
from repro.net.accounting import Phase
from repro.net.chord import ChordOverlay
from repro.net.network import P2PNetwork
from repro.net.pgrid import PGridOverlay


PARAMS = HDKParameters(df_max=6, window_size=6, s_max=2, ff=2_000, fr=2)


@pytest.fixture()
def indexed_engine():
    config = SyntheticCorpusConfig(
        vocabulary_size=200, mean_doc_length=25, num_topics=4
    )
    collection = SyntheticCorpusGenerator(config, seed=13).generate(60)
    engine = SearchService.build(
        collection, num_peers=3, params=PARAMS, cache_capacity=None
    )
    engine.index()
    return engine


class TestJoinAfterIndexing:
    def test_all_keys_reachable_after_join(self, indexed_engine):
        engine = indexed_engine
        keys_before = {e.key for e in engine.backend.global_index.entries()}
        stored_before = engine.stored_postings_total()
        engine.network.add_peer("late-joiner")
        keys_after = {e.key for e in engine.backend.global_index.entries()}
        assert keys_after == keys_before
        assert engine.stored_postings_total() == stored_before
        # Every key still resolves through a lookup from any peer.
        sample = list(keys_before)[:20]
        for key in sample:
            assert (
                engine.backend.global_index.lookup(engine.peers[0].name, key)
                is not None
            )

    def test_join_traffic_is_maintenance_only(self, indexed_engine):
        engine = indexed_engine
        accounting = engine.network.accounting
        indexing_before = accounting.postings(Phase.INDEXING)
        retrieval_before = accounting.postings(Phase.RETRIEVAL)
        engine.network.add_peer("late-joiner")
        assert accounting.postings(Phase.INDEXING) == indexing_before
        assert accounting.postings(Phase.RETRIEVAL) == retrieval_before

    def test_search_still_works_after_join(self, indexed_engine):
        engine = indexed_engine
        before = engine.search("t00005 t00011")
        engine.network.add_peer("late-joiner")
        after = engine.search("t00005 t00011")
        assert [r.doc_id for r in before.results] == [
            r.doc_id for r in after.results
        ]


class TestLeave:
    def test_keys_survive_departure(self, indexed_engine):
        engine = indexed_engine
        keys_before = {e.key for e in engine.backend.global_index.entries()}
        departing = engine.peers[1].name
        engine.network.remove_peer(departing)
        keys_after = {e.key for e in engine.backend.global_index.entries()}
        assert keys_after == keys_before

    def test_search_from_surviving_peer(self, indexed_engine):
        engine = indexed_engine
        engine.network.remove_peer(engine.peers[2].name)
        result = engine.search(
            "t00005 t00011", source_peer=engine.peers[0].name
        )
        assert result.keys_looked_up >= 2


class TestRepeatedChurn:
    @pytest.mark.parametrize("overlay_cls", [ChordOverlay, PGridOverlay])
    def test_many_joins_and_leaves_preserve_data(self, overlay_cls):
        network = P2PNetwork(overlay=overlay_cls())
        network.add_peer("base-0")
        network.add_peer("base-1")
        for i in range(120):
            network.insert("base-0", f"key-{i}", lambda cur: "v", 1)
        # Churn: add 6 peers, remove 4 (never the base peers).
        for i in range(6):
            network.add_peer(f"churn-{i}")
        for i in range(4):
            network.remove_peer(f"churn-{i}")
        for i in range(120):
            assert (
                network.lookup("base-1", f"key-{i}", lambda v: 0) == "v"
            ), f"key-{i} lost during churn"
