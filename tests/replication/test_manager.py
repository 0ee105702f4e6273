"""Tests for the replication manager: fan-out, liveness, crash model."""

from __future__ import annotations

import pytest

from replication_helpers import build_replicated, name_of
from repro.errors import (
    ConfigurationError,
    NetworkError,
    PeerNotFoundError,
)
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork
from repro.replication import ReplicationManager
from repro.replication.manager import ANONYMOUS_ORIGIN


@pytest.fixture()
def replicated():
    return build_replicated()


class TestInstall:
    def test_replication_one_rejected(self):
        net = P2PNetwork()
        net.add_peer("a")
        with pytest.raises(ConfigurationError):
            ReplicationManager(net, 1)

    def test_second_manager_rejected(self, replicated):
        net, _ = replicated
        with pytest.raises(ConfigurationError):
            ReplicationManager(net, 2).install()

    def test_install_idempotent_for_same_instance(self, replicated):
        net, manager = replicated
        assert manager.install() is manager


class TestWritePath:
    def test_insert_stores_at_every_live_owner(self, replicated):
        net, manager = replicated
        net.insert("peer-0", "k", lambda cur: ["v"], 1)
        owners = manager.owners(net.key_id("k"))
        assert len(owners) == 2
        for owner in owners:
            assert net.storage_by_id(owner).get("k") == ["v"]

    def test_insert_logs_one_replica_write_per_backup(self, replicated):
        net, manager = replicated
        before = net.accounting.snapshot().messages_by_kind.get(
            MessageKind.REPLICA_WRITE, 0
        )
        net.insert("peer-0", "k", lambda cur: "v", 3)
        snap = net.accounting.snapshot()
        assert (
            snap.messages_by_kind[MessageKind.REPLICA_WRITE] == before + 1
        )
        assert manager.replica_writes == before + 1

    def test_merge_sees_each_replicas_own_copy(self, replicated):
        net, manager = replicated
        net.insert("peer-0", "k", lambda cur: [1], 1)
        net.insert("peer-1", "k", lambda cur: cur + [2], 1)
        for owner in manager.owners(net.key_id("k")):
            assert net.storage_by_id(owner).get("k") == [1, 2]

    def test_replicas_do_not_share_the_stored_object(self, replicated):
        net, manager = replicated
        net.insert("peer-0", "k", lambda cur: (cur or []) + [1], 1)
        first, second = manager.owners(net.key_id("k"))
        assert net.storage_by_id(first).get("k") is not (
            net.storage_by_id(second).get("k")
        )

    def test_redelivered_op_discarded(self, replicated):
        net, manager = replicated
        owners = manager.owners(net.key_id("k"))
        # One replica already covers the op's (origin, seq): the merge
        # must be skipped there and applied at the other.
        manager.vector_of(owners[1]).observe(ANONYMOUS_ORIGIN, 1)
        net.insert("peer-0", "k", lambda cur: "v", 1)
        assert net.storage_by_id(owners[0]).get("k") == "v"
        assert net.storage_by_id(owners[1]).get("k") is None

    def test_write_lost_when_whole_replica_set_dead(self, replicated):
        net, manager = replicated
        owners = manager.owners(net.key_id("k"))
        for owner in owners:
            net.kill_peer(name_of(net, owner))
        merged = net.insert("peer-0", "k", lambda cur: "v", 1)
        # The writer still observes the merged value its ack would have
        # carried, but nothing stored it.
        assert merged == "v"
        assert manager.lost_writes == 1
        assert net.lookup("peer-0", "k", lambda v: 0) is None

    def test_publish_stats_sequences_at_live_owners(self, replicated):
        net, manager = replicated
        net.publish_stats("peer-0", "k", postings=2)
        source = net.id_of("peer-0")
        for owner in manager.owners(net.key_id("k")):
            assert manager.vector_of(owner).covers(source, 1)


class TestCrashModel:
    def test_kill_destroys_storage_but_keeps_ring_position(
        self, replicated
    ):
        net, _ = replicated
        net.insert("peer-0", "k", lambda cur: "v", 1)
        ring_before = sorted(net.peer_ids())
        victim = name_of(net, net.responsible_peer_for("k"))
        net.kill_peer(victim)
        assert sorted(net.peer_ids()) == ring_before
        assert victim in net.peer_names()
        with pytest.raises(PeerNotFoundError):
            net.storage_of(victim)

    def test_kill_twice_raises(self, replicated):
        net, _ = replicated
        net.kill_peer("peer-0")
        with pytest.raises(NetworkError):
            net.kill_peer("peer-0")

    def test_kill_unknown_raises(self, replicated):
        net, _ = replicated
        with pytest.raises(PeerNotFoundError):
            net.kill_peer("ghost")

    def test_respawn_alive_raises(self, replicated):
        net, _ = replicated
        with pytest.raises(NetworkError):
            net.respawn_peer("peer-0")

    def test_respawn_comes_back_empty(self, replicated):
        net, _ = replicated
        net.insert("peer-0", "k", lambda cur: "v", 1)
        victim = name_of(net, net.responsible_peer_for("k"))
        net.kill_peer(victim)
        net.respawn_peer(victim)
        assert net.is_live(net.id_of(victim))
        assert len(net.storage_of(victim)) == 0

    def test_crash_drops_repair_bookkeeping(self, replicated):
        net, manager = replicated
        net.insert("peer-0", "k", lambda cur: "v", 1)
        victim = manager.owners(net.key_id("k"))[0]
        assert len(manager.vector_of(victim)) > 0
        net.kill_peer(name_of(net, victim))
        assert len(manager.vector_of(victim)) == 0
        assert manager.version_of(victim, "k") == 0

    def test_effective_owner_fails_over_then_goes_dark(self, replicated):
        net, manager = replicated
        key_id = net.key_id("k")
        primary, backup = manager.owners(key_id)
        assert net.effective_owner(key_id) == primary
        net.kill_peer(name_of(net, primary))
        assert net.effective_owner(key_id) == backup
        assert manager.failover_target(key_id) == (1, backup)
        net.kill_peer(name_of(net, backup))
        assert net.effective_owner(key_id) is None
        assert manager.failover_target(key_id) == (2, None)

    def test_kill_then_graceful_remove_skips_handoff(self, replicated):
        net, _ = replicated
        net.insert("peer-0", "k", lambda cur: "v", 1)
        handoffs = net.accounting.snapshot().messages_by_kind.get(
            MessageKind.HANDOFF, 0
        )
        net.kill_peer("peer-3")
        net.remove_peer("peer-3")
        assert "peer-3" not in net.peer_names()
        snap = net.accounting.snapshot()
        assert snap.messages_by_kind.get(
            MessageKind.HANDOFF, 0
        ) == handoffs


class TestUnreplicatedContrast:
    """R=1 keeps the original crash semantics: no fan-out, dark ranges."""

    def test_no_manager_means_no_replica_traffic(self):
        net = P2PNetwork()
        for i in range(4):
            net.add_peer(f"peer-{i}")
        net.insert("peer-0", "k", lambda cur: "v", 1)
        snap = net.accounting.snapshot()
        assert MessageKind.REPLICA_WRITE not in snap.messages_by_kind

    def test_crashed_range_goes_dark_without_replication(self):
        net = P2PNetwork()
        for i in range(4):
            net.add_peer(f"peer-{i}")
        net.insert("peer-0", "k", lambda cur: "v", 1)
        victim = name_of(net, net.responsible_peer_for("k"))
        net.kill_peer(victim)
        assert net.lookup("peer-0", "k", lambda v: 0) is None
        assert net.effective_owner(net.key_id("k")) is None
