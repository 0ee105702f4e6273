"""Fault injection on the build path.

A peer's extraction raising mid-round must leave the world exactly as
the protocol leaves it after the last *completed* round: no
partial round applied, no traffic of the failed round recorded, no
measurement window still attached, no stuck phase override.  And an
``hdk_disk`` build interrupted before its snapshot manifest is saved
must reopen cleanly through the segment store's torn-tail skip.
"""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService, spawn_peers
from repro.hdk.indexer import PeerIndexer
from repro.index.global_index import GlobalKeyIndex
from repro.indexing import IndexingPipeline, build_fingerprint
from repro.net.accounting import Phase
from repro.net.chord import ChordOverlay
from repro.net.network import P2PNetwork
from repro.store.segment import scan_segment
from repro.store.store import SegmentStore

PARAMS = HDKParameters(df_max=6, window_size=8, s_max=3, ff=2_000, fr=2)

CORPUS = SyntheticCorpusConfig(
    vocabulary_size=400, mean_doc_length=35, num_topics=6, zipf_skew=1.2
)


class _BoomError(RuntimeError):
    pass


class _PoisonedIndexer(PeerIndexer):
    """Raises during candidate extraction of one configured round."""

    fail_at_size = 2

    def extract_round(self, key_size):
        if key_size == self.fail_at_size:
            raise _BoomError(
                f"{self.peer_name}: injected extraction fault"
            )
        return super().extract_round(key_size)


def _world(collection, num_peers, indexer_cls_by_position=None):
    network = P2PNetwork(overlay=ChordOverlay())
    peers = spawn_peers(network, collection, num_peers)
    global_index = GlobalKeyIndex(network, PARAMS)
    indexers = []
    for position, peer in enumerate(peers):
        cls = PeerIndexer
        if indexer_cls_by_position and position in indexer_cls_by_position:
            cls = indexer_cls_by_position[position]
        indexers.append(
            cls(peer.name, peer.collection, global_index, PARAMS)
        )
    return network, global_index, indexers


@pytest.fixture(scope="module")
def collection():
    return SyntheticCorpusGenerator(CORPUS, seed=11).generate(90)


def test_extraction_fault_does_not_corrupt_index(collection):
    """Extraction fault in round 2 → the index equals a clean build
    whose rounds stop before round 2 (``s_max=1``), byte for byte,
    including traffic: nothing of the failed round was staged."""
    reference_params = HDKParameters(
        df_max=PARAMS.df_max,
        window_size=PARAMS.window_size,
        s_max=1,
        ff=PARAMS.ff,
        fr=PARAMS.fr,
    )
    ref_network, ref_index, ref_indexers = _world(collection, 5)
    IndexingPipeline().build(ref_indexers, reference_params)
    reference = build_fingerprint(
        ref_index, traffic=ref_network.accounting.snapshot()
    )

    network, global_index, indexers = _world(
        collection, 5, indexer_cls_by_position={2: _PoisonedIndexer}
    )
    with pytest.raises(_BoomError):
        IndexingPipeline().build(indexers, PARAMS)
    faulted = build_fingerprint(
        global_index, traffic=network.accounting.snapshot()
    )
    assert faulted == reference


def test_extraction_fault_leaks_no_window_or_phase(collection):
    """After a mid-round fault no charge stays open (a leaked charge
    would silently absorb every later message of this context and name
    its phase)."""
    network, _, indexers = _world(
        collection, 5, indexer_cls_by_position={0: _PoisonedIndexer}
    )
    accounting = network.accounting
    with pytest.raises(_BoomError):
        IndexingPipeline().build(indexers, PARAMS)
    assert accounting._charges == []
    assert accounting.phase is Phase.INDEXING


def test_fault_then_fresh_rebuild_matches_clean_build(collection):
    """The documented recovery path after a failed build: rebuild into a
    fresh world — and get exactly the never-faulted outcome."""
    clean_network, clean_index, clean_indexers = _world(collection, 4)
    IndexingPipeline().build(clean_indexers, PARAMS)
    clean = build_fingerprint(
        clean_index,
        [indexer.report for indexer in clean_indexers],
        clean_network.accounting.snapshot(),
    )

    _, _, poisoned = _world(
        collection, 4, indexer_cls_by_position={1: _PoisonedIndexer}
    )
    with pytest.raises(_BoomError):
        IndexingPipeline().build(poisoned, PARAMS)

    network, global_index, indexers = _world(collection, 4)
    IndexingPipeline().build(indexers, PARAMS)
    rebuilt = build_fingerprint(
        global_index,
        [indexer.report for indexer in indexers],
        network.accounting.snapshot(),
    )
    assert rebuilt == clean


def test_hdk_disk_interrupted_build_reopens_cleanly(collection, tmp_path):
    """An ``hdk_disk`` build killed before the snapshot manifest is
    written leaves only segment files — possibly with a torn tail from
    the in-flight write.  Reopening the directory must recover every
    whole record and skip the tail, not brick the store."""
    store_dir = tmp_path / "segments"
    service = SearchService.build(
        collection,
        num_peers=4,
        backend="hdk_disk",
        params=PARAMS,
        store_dir=store_dir,
        memory_budget_bytes=0,  # spill every entry through the store
    )
    service.index()
    spilling = service.backend.global_index
    # Checkpoint: spill every hot entry and flush the store's memtable
    # into sealed segments so the records under test are on disk.
    spilling.checkpoint()
    expected_keys = set(spilling.store.keys())
    assert expected_keys, "the build should have spilled entries"
    reference_postings = {
        key: [
            (posting.doc_id, posting.tf)
            for posting in spilling.store.get_postings(key)
        ]
        for key in expected_keys
    }

    # Simulate the interruption: a torn (half-written) record at the
    # tail of the newest segment, and no manifest anywhere.
    segments = sorted(store_dir.glob("segment-*.seg"))
    assert segments
    with open(segments[-1], "ab") as handle:
        handle.write(b"\x9c\x01torn-record-gets-cut-righ")

    reopened = SegmentStore(store_dir, cache_bytes=0)
    assert set(reopened.keys()) == expected_keys
    assert reopened.stats()["truncated_tails_skipped"] == 1
    assert scan_segment(segments[-1]).truncated
    for key, expected in reference_postings.items():
        postings = reopened.get_postings(key)
        assert postings is not None
        assert [(p.doc_id, p.tf) for p in postings] == expected
