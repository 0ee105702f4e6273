"""The NDK views a ``PeerIndexer`` keeps beside ``_known_status``.

Every status a peer learns goes through ``PeerIndexer._learn``, which
keeps the per-size NDK counts and the single-term statuses in step, so
expansions read the NDK terms and ``known_ndk_count`` reads a count
instead of rescanning everything the peer knows.  These tests rescan
``_known_status`` and compare, after a build followed by joins (where
the expansion cascade writes most statuses) and after a status moves
back from NDK to DK.
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
from repro.hdk.indexer import PeerIndexer
from repro.index.global_index import GlobalKeyIndex, KeyStatus
from repro.net.network import P2PNetwork

PARAMS = HDKParameters(df_max=4, window_size=6, s_max=3, ff=3_000, fr=3)
CORPUS = SyntheticCorpusConfig(
    vocabulary_size=300, mean_doc_length=30, num_topics=6
)
NDK = KeyStatus.NON_DISCRIMINATIVE


def assert_matches_rescan(indexer: PeerIndexer) -> None:
    counts: dict[int, int] = {}
    for key, status in indexer._known_status.items():
        if status is NDK:
            counts[len(key)] = counts.get(len(key), 0) + 1
    for size in range(1, PARAMS.s_max + 1):
        assert indexer.known_ndk_count(size) == counts.get(size, 0)
    assert list(indexer._single_is_ndk.items()) == [
        (next(iter(key)), status is NDK)
        for key, status in indexer._known_status.items()
        if len(key) == 1
    ]
    # The NDK terms iterate like the frozenset a scan of _known_status
    # builds, so the expansion order does not move.
    scanned = frozenset(
        next(iter(key))
        for key, status in indexer._known_status.items()
        if len(key) == 1 and status is NDK
    )
    assert indexer._ndk_terms() == scanned
    assert list(indexer._ndk_terms()) == list(scanned)


@pytest.mark.parametrize("backend", ["hdk", "hdk_super"])
def test_views_match_rescan_after_joins(backend):
    whole = SyntheticCorpusGenerator(CORPUS, seed=11).generate(160)
    ids = whole.doc_ids()
    service = SearchService.build(
        whole.subset(ids[:100]),
        num_peers=6,
        backend=backend,
        params=PARAMS,
        cache_capacity=None,
        replication=2,
    )
    service.index()
    for start in (100, 120, 140):
        service.add_peers(whole.subset(ids[start : start + 20]), 2)
    indexers = service.backend._indexers
    assert len(indexers) == 12
    assert sum(indexer.known_ndk_count(2) for indexer in indexers) > 0
    for indexer in indexers:
        assert_matches_rescan(indexer)


def test_dk_after_ndk_leaves_the_views():
    network = P2PNetwork()
    network.add_peer("p0")
    collection = DocumentCollection([Document(doc_id=0, tokens=("a", "b"))])
    indexer = PeerIndexer(
        "p0", collection, GlobalKeyIndex(network, PARAMS), PARAMS
    )
    a, b, ab, abc = (frozenset(terms) for terms in ("a", "b", "ab", "abc"))
    indexer.learn_status(a, KeyStatus.DISCRIMINATIVE)
    indexer.learn_status(b, NDK)
    indexer.learn_status(a, NDK)
    indexer.learn_status(ab, NDK)
    indexer.learn_status(abc, NDK)
    assert_matches_rescan(indexer)
    assert indexer._ndk_terms() == {"a", "b"}
    for key in (a, ab, abc):
        indexer.learn_status(key, KeyStatus.DISCRIMINATIVE)
    assert_matches_rescan(indexer)
    assert indexer._ndk_terms() == {"b"}
    assert indexer.known_ndk_count(2) == indexer.known_ndk_count(3) == 0
