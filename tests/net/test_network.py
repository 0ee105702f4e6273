"""Tests for the P2PNetwork facade."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError, PeerNotFoundError
from repro.net.accounting import Phase
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork
from repro.net.pgrid import PGridOverlay


@pytest.fixture()
def network():
    net = P2PNetwork()
    for i in range(4):
        net.add_peer(f"peer-{i}")
    return net


class TestMembership:
    def test_add_peer_registers_name(self, network):
        assert len(network) == 4
        assert "peer-0" in network.peer_names()
        assert network.id_of("peer-0") in network.peer_ids()

    def test_duplicate_name_rejected(self, network):
        with pytest.raises(NetworkError):
            network.add_peer("peer-0")

    def test_unknown_name_raises(self, network):
        with pytest.raises(PeerNotFoundError):
            network.id_of("ghost")


class TestInsertLookup:
    def test_insert_then_lookup(self, network):
        network.insert("peer-0", "key", lambda cur: "stored", 3)
        value = network.lookup(
            "peer-1", "key", lambda v: 0 if v is None else 1
        )
        assert value == "stored"

    def test_lookup_missing_returns_none(self, network):
        assert (
            network.lookup("peer-0", "missing", lambda v: 0) is None
        )

    def test_merge_receives_current(self, network):
        network.insert("peer-0", "k", lambda cur: [1], 1)
        network.insert("peer-1", "k", lambda cur: cur + [2], 1)
        assert network.lookup("peer-2", "k", lambda v: 0) == [1, 2]

    def test_frozenset_keys_canonicalized(self, network):
        # Insertion and lookup with equal frozensets must hit the same peer
        # regardless of construction order.
        key_a = frozenset(["x", "y"])
        key_b = frozenset(["y", "x"])
        network.insert("peer-0", key_a, lambda cur: "v", 1)
        assert network.lookup("peer-1", key_b, lambda v: 0) == "v"

    def test_insert_accounts_postings(self, network):
        before = network.accounting.postings(Phase.INDEXING)
        network.insert("peer-0", "k", lambda cur: "v", 17)
        assert network.accounting.postings(Phase.INDEXING) == before + 17

    def test_lookup_accounts_response_postings(self, network):
        network.insert("peer-0", "k", lambda cur: "v", 1)
        with network.accounting.charge(Phase.RETRIEVAL):
            network.lookup("peer-1", "k", lambda v: 9)
        assert network.accounting.postings(Phase.RETRIEVAL) == 9

    def test_lookup_logs_two_messages(self, network):
        network.insert("peer-0", "k", lambda cur: "v", 1)
        with network.accounting.charge(Phase.RETRIEVAL):
            network.lookup("peer-1", "k", lambda v: 0)
        snap = network.accounting.snapshot()
        assert snap.messages_by_kind[MessageKind.LOOKUP] == 1
        assert snap.messages_by_kind[MessageKind.RESPONSE] == 1


class TestChurn:
    def test_join_hands_off_keys(self):
        net = P2PNetwork()
        net.add_peer("a")
        for i in range(50):
            net.insert("a", f"key-{i}", lambda cur: "v", 1)
        net.add_peer("b")
        # Every key must still be found, and "b" now holds some.
        for i in range(50):
            assert net.lookup("a", f"key-{i}", lambda v: 0) == "v"
        assert len(net.storage_of("b")) + len(net.storage_of("a")) == 50

    def test_join_traffic_is_maintenance(self):
        net = P2PNetwork()
        net.add_peer("a")
        for i in range(20):
            net.insert("a", f"key-{i}", lambda cur: [1, 2], 2)
        indexing_before = net.accounting.postings(Phase.INDEXING)
        net.add_peer("b")
        # Indexing counters untouched; any handoff lands in MAINTENANCE.
        assert net.accounting.postings(Phase.INDEXING) == indexing_before
        snap = net.accounting.snapshot()
        assert snap.messages_by_kind.get(MessageKind.HANDOFF, 0) >= 1

    def test_leave_hands_off_keys(self):
        net = P2PNetwork()
        for name in ("a", "b", "c"):
            net.add_peer(name)
        for i in range(60):
            net.insert("a", f"key-{i}", lambda cur: "v", 1)
        net.remove_peer("b")
        for i in range(60):
            assert net.lookup("a", f"key-{i}", lambda v: 0) == "v"

    def test_remove_unknown_raises(self, network):
        with pytest.raises(PeerNotFoundError):
            network.remove_peer("ghost")


class TestInspection:
    def test_stored_entry_count(self, network):
        network.insert("peer-0", "x", lambda cur: "v", 1)
        network.insert("peer-0", "y", lambda cur: "v", 1)
        assert network.stored_entry_count() == 2

    def test_stored_value_total(self, network):
        network.insert("peer-0", "x", lambda cur: [1, 2, 3], 3)
        network.insert("peer-0", "y", lambda cur: [1], 1)
        assert network.stored_value_total(len) == 4

    def test_works_on_pgrid_overlay(self):
        net = P2PNetwork(overlay=PGridOverlay())
        for i in range(4):
            net.add_peer(f"p{i}")
        net.insert("p0", "key", lambda cur: "v", 2)
        assert net.lookup("p1", "key", lambda v: 0) == "v"
