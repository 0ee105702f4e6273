"""Tests for the distributed global key index."""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.errors import IndexError_
from repro.index.global_index import (
    GlobalKeyIndex,
    KeyStatus,
    StagedInsert,
    key_repr,
)
from repro.index.postings import Posting, PostingList
from repro.net.accounting import Phase
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork


PARAMS = HDKParameters(df_max=3, window_size=8, s_max=3, ff=1000, fr=2)


@pytest.fixture()
def index():
    network = P2PNetwork()
    for i in range(3):
        network.add_peer(f"peer-{i}")
    return GlobalKeyIndex(network, PARAMS)


def pl(*doc_ids, tf=1):
    return PostingList(Posting(doc_id=d, tf=tf) for d in doc_ids)


def key(*terms):
    return frozenset(terms)


class TestInsertClassification:
    def test_small_insert_is_discriminative(self, index):
        status = index.insert("peer-0", key("alpha"), pl(1, 2))
        assert status is KeyStatus.DISCRIMINATIVE

    def test_crossing_threshold_becomes_ndk(self, index):
        index.insert("peer-0", key("alpha"), pl(1, 2))
        status = index.insert("peer-1", key("alpha"), pl(3, 4))
        assert status is KeyStatus.NON_DISCRIMINATIVE

    def test_ndk_posting_list_truncated(self, index):
        index.insert("peer-0", key("alpha"), pl(1, 2, 3))
        index.insert("peer-1", key("alpha"), pl(4, 5, 6))
        entry = index.lookup("peer-2", key("alpha"))
        assert entry.status is KeyStatus.NON_DISCRIMINATIVE
        assert len(entry.postings) == PARAMS.df_max
        assert entry.global_df == 6  # true df keeps counting

    def test_df_accumulates_across_truncation(self, index):
        index.insert("peer-0", key("alpha"), pl(1, 2, 3, 4))  # hits NDK? no: 4 > 3 -> NDK immediately
        entry = index.lookup("peer-2", key("alpha"))
        assert entry.global_df == 4
        index.insert("peer-1", key("alpha"), pl(10, 11))
        entry = index.lookup("peer-2", key("alpha"))
        assert entry.global_df == 6
        assert len(entry.postings) == PARAMS.df_max

    def test_dk_keeps_full_postings(self, index):
        index.insert("peer-0", key("beta"), pl(1))
        index.insert("peer-1", key("beta"), pl(2))
        entry = index.lookup("peer-2", key("beta"))
        assert entry.status is KeyStatus.DISCRIMINATIVE
        assert entry.postings.doc_ids() == [1, 2]
        assert not entry.is_truncated

    def test_empty_key_rejected(self, index):
        with pytest.raises(IndexError_):
            index.insert("peer-0", frozenset(), pl(1))

    def test_empty_postings_rejected(self, index):
        with pytest.raises(IndexError_):
            index.insert("peer-0", key("x"), PostingList())

    def test_multiterm_keys_supported(self, index):
        status = index.insert("peer-0", key("a", "b"), pl(7))
        assert status is KeyStatus.DISCRIMINATIVE
        entry = index.lookup("peer-1", key("b", "a"))
        assert entry.postings.doc_ids() == [7]


class TestNotifications:
    def test_transition_notifies_contributors(self, index):
        acc = index.network.accounting
        index.insert("peer-0", key("alpha"), pl(1, 2))
        before = acc.snapshot().messages_by_kind.get(
            MessageKind.NDK_NOTIFY, 0
        )
        index.insert("peer-1", key("alpha"), pl(3, 4))  # DK -> NDK
        after = acc.snapshot().messages_by_kind.get(
            MessageKind.NDK_NOTIFY, 0
        )
        # Both contributors are notified.
        assert after - before == 2

    def test_immediately_ndk_insert_notifies(self, index):
        acc = index.network.accounting
        index.insert("peer-0", key("alpha"), pl(1, 2, 3, 4, 5))
        notify = acc.snapshot().messages_by_kind.get(
            MessageKind.NDK_NOTIFY, 0
        )
        assert notify == 1

    def test_no_notification_while_discriminative(self, index):
        acc = index.network.accounting
        index.insert("peer-0", key("alpha"), pl(1))
        index.insert("peer-1", key("alpha"), pl(2))
        assert (
            acc.snapshot().messages_by_kind.get(MessageKind.NDK_NOTIFY, 0)
            == 0
        )


class TestLookup:
    def test_missing_key_returns_none(self, index):
        assert index.lookup("peer-0", key("ghost")) is None

    def test_lookup_counts_retrieval_postings(self, index):
        index.insert("peer-0", key("alpha"), pl(1, 2))
        index.set_phase(Phase.RETRIEVAL)
        index.lookup("peer-1", key("alpha"))
        assert index.network.accounting.postings(Phase.RETRIEVAL) == 2

    def test_status_of_carries_no_postings(self, index):
        index.insert("peer-0", key("alpha"), pl(1, 2))
        index.set_phase(Phase.RETRIEVAL)
        status = index.status_of("peer-1", key("alpha"))
        assert status is KeyStatus.DISCRIMINATIVE
        assert index.network.accounting.postings(Phase.RETRIEVAL) == 0

    def test_status_of_missing(self, index):
        assert index.status_of("peer-0", key("ghost")) is None


class TestTermStats:
    def test_aggregation(self, index):
        index.publish_term_stats(
            "peer-0", {"x": (2, 5)}, num_documents=10, total_doc_length=500
        )
        index.publish_term_stats(
            "peer-1", {"x": (3, 7)}, num_documents=5, total_doc_length=300
        )
        stats = index.term_stats("x")
        assert stats.document_frequency == 5
        assert stats.collection_frequency == 12
        assert index.num_documents == 15
        assert index.average_document_length == pytest.approx(800 / 15)

    def test_very_frequent_terms(self, index):
        index.publish_term_stats(
            "peer-0",
            {"common": (500, 2000), "rare": (2, 3)},
            num_documents=10,
            total_doc_length=100,
        )
        assert index.very_frequent_terms() == {"common"}

    def test_unknown_term_defaults(self, index):
        assert index.term_stats("nope") is None
        assert index.term_document_frequency("nope") == 0
        assert index.term_collection_frequency("nope") == 0


class TestInspection:
    def test_stored_postings_total(self, index):
        index.insert("peer-0", key("a"), pl(1, 2))
        index.insert("peer-0", key("b"), pl(3))
        assert index.stored_postings_total() == 3

    def test_stored_postings_per_peer_sums_to_total(self, index):
        index.insert("peer-0", key("a"), pl(1, 2))
        index.insert("peer-1", key("b"), pl(3))
        per_peer = index.stored_postings_per_peer()
        assert sum(per_peer.values()) == index.stored_postings_total()

    def test_key_count_and_entries(self, index):
        index.insert("peer-0", key("a"), pl(1))
        index.insert("peer-0", key("b", "c"), pl(2))
        assert index.key_count() == 2
        keys = {entry.key for entry in index.entries()}
        assert keys == {key("a"), key("b", "c")}


class TestStagedInsert:
    def test_send_phase_carries_the_key_id(self, index):
        staged = index.stage_insert("peer-0", key("a", "b"), pl(1))
        assert staged.key_id == index.network.key_id(key("a", "b"))

    def test_each_insert_hashes_its_key_once(self, index, monkeypatch):
        # The id hashed for the INSERT message is the one the merge
        # stores under: an insert that does not transition to NDK (no
        # notification fan-out) hashes its key exactly once.
        calls = []
        hash_key = P2PNetwork._key_id

        def counting(key_):
            calls.append(key_)
            return hash_key(key_)

        monkeypatch.setattr(P2PNetwork, "_key_id", staticmethod(counting))
        index.insert("peer-0", key("a"), pl(1))
        index.insert("peer-1", key("a"), pl(2))
        assert calls == [key("a"), key("a")]
        entry = index.lookup("peer-2", key("a"))
        assert [p.doc_id for p in entry.postings] == [1, 2]

    def test_staged_without_key_id_still_applies(self, index):
        # Older callers build StagedInsert without the id.
        staged = StagedInsert("peer-0", key("a"), pl(1), local_df=1)
        assert index.apply_staged(staged) is KeyStatus.DISCRIMINATIVE
        assert index.lookup("peer-1", key("a")) is not None


def test_key_repr():
    assert key_repr(frozenset(["b", "a"])) == "{a+b}"
