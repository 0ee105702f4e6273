"""Byte-denominated residency budgets.

RAM is budgeted in **encoded bytes** at every layer — block cache
(``cache_bytes``), hot residency (``memory_budget_bytes``), memtable
(``memtable_bytes``); postings stay the *reporting* unit.  This suite
pins what the budget means: eviction follows encoded size, both
occupancy views are reported, and a budget only moves *where* postings
live (RAM vs segments), never *what* any read returns.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.config import HDKParameters
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService
from repro.index.codec import posting_list_wire_size
from repro.index.postings import Posting, PostingList
from repro.store.blockcache import BlockCache
from repro.store.spill import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    SpillingGlobalKeyIndex,
)
from repro.store.store import SegmentStore

PARAMS = HDKParameters(df_max=5, window_size=6, s_max=2, ff=1_000, fr=2)

CORPUS = SyntheticCorpusConfig(
    vocabulary_size=200, mean_doc_length=25, num_topics=4, zipf_skew=1.2
)


def _postings(*doc_ids: int) -> PostingList:
    return PostingList(Posting(doc_id=doc_id, tf=1) for doc_id in doc_ids)


class TestBlockCache:
    def test_byte_budget_bounds_encoded_bytes(self):
        """Eviction is driven by the encoded size of what is held, not
        by how many posting entries the lists happen to contain."""
        big = _postings(*range(50))
        cache = BlockCache(capacity_bytes=posting_list_wire_size(big))
        cache.put("big", big)
        assert cache.get("big") is big
        # A second block forces the first out: together they exceed the
        # byte budget, however few postings the second one holds.
        cache.put("small", _postings(1))
        assert cache.get("big") is None
        assert cache.held_bytes <= cache.capacity

    def test_both_occupancy_views_tracked(self):
        """The byte-bounded cache still reports the postings it holds."""
        cache = BlockCache(1024)
        first, second = _postings(1, 2, 3), _postings(4)
        cache.put("a", first)
        cache.put("b", second)
        assert cache.held_postings == 4
        assert cache.held_bytes == (
            posting_list_wire_size(first) + posting_list_wire_size(second)
        )


class TestSegmentStoreKnobs:
    def test_cache_bytes_is_the_quiet_path(self, tmp_path):
        store = SegmentStore(tmp_path / "s", cache_bytes=1024)
        assert store.cache.capacity == 1024
        store.close()


class TestSpillingIndexKnobs:
    def _index(self, **kwargs):
        from repro.net.chord import ChordOverlay
        from repro.net.network import P2PNetwork

        network = P2PNetwork(overlay=ChordOverlay())
        return SpillingGlobalKeyIndex(network, PARAMS, **kwargs)

    def test_default_is_bytes(self, tmp_path):
        index = self._index(store_dir=tmp_path / "s")
        stats = index.spill_stats()
        assert stats["budget_unit"] == "bytes"
        assert stats["memory_budget"] == DEFAULT_MEMORY_BUDGET_BYTES
        index.store.close()


class TestEndToEndEquivalence:
    """The budget is a residency knob, not a semantics knob: any
    budget — including zero, spilling everything — must leave search
    results identical to the in-RAM ``hdk`` backend."""

    @pytest.fixture(scope="class")
    def collection(self):
        return SyntheticCorpusGenerator(CORPUS, seed=13).generate(48)

    def _search_all(self, service):
        queries = ("t00001 t00002", "t00003 t00007", "t00010")
        return {
            query: [
                (r.doc_id, round(r.score, 10))
                for r in service.search(query, k=10).results
            ]
            for query in queries
        }

    def test_units_and_hdk_agree(self, collection, tmp_path):
        reference = SearchService.build(
            collection, num_peers=3, backend="hdk", params=PARAMS
        )
        reference.index()
        expected = self._search_all(reference)

        for budget in (0, 280, 600):
            service = SearchService.build(
                collection,
                num_peers=3,
                backend="hdk_disk",
                params=PARAMS,
                store_dir=tmp_path / f"run-{budget}",
                memory_budget_bytes=budget,
            )
            service.index()
            assert self._search_all(service) == expected, budget
            service.backend.global_index.store.close()


class TestCliKnobs:
    def test_memory_budget_bytes_accepted(self, capsys):
        code = main(
            [
                "search",
                "t00001 t00002",
                "--docs",
                "30",
                "--vocabulary",
                "200",
                "--peers",
                "3",
                "--df-max",
                "5",
                "--window",
                "6",
                "--backend",
                "hdk_disk",
                "--memory-budget-bytes",
                "2048",
            ]
        )
        assert code == 0
        assert "indexed 30 documents" in capsys.readouterr().out
