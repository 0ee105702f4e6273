"""Tests for Merkle anti-entropy repair."""

from __future__ import annotations

import pytest

from replication_helpers import build_replicated, name_of
from repro.errors import ConfigurationError
from repro.net.accounting import Phase
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork
from repro.replication import AntiEntropyRepairer
from repro.replication.merkle import value_fingerprint

KEYS = [f"key-{i:03d}" for i in range(60)]


def _value(i):
    # Varying sizes so shipped-posting proportionality is observable.
    return list(range(i % 3 + 1))


def _populate(net):
    for i, key in enumerate(KEYS):
        value = _value(i)
        net.insert("peer-0", key, lambda cur, v=value: list(v), len(value))


def _keys_owned_by(net, manager, peer_id):
    return [
        key
        for key in KEYS
        if peer_id in manager.owners(net.key_id(key))
    ]


def _assert_converged(net, manager):
    for key in KEYS:
        key_id = net.key_id(key)
        copies = [
            net.storage_by_id(owner).get(key)
            for owner in manager.owners(key_id)
            if net.is_live(owner)
        ]
        fingerprints = {value_fingerprint(c) for c in copies}
        assert len(fingerprints) == 1, f"{key} diverged: {copies}"


@pytest.fixture()
def replicated():
    return build_replicated()


def test_repairer_requires_manager():
    net = P2PNetwork()
    net.add_peer("a")
    with pytest.raises(ConfigurationError):
        AntiEntropyRepairer(net)


def test_converged_groups_exchange_only_roots(replicated):
    net, manager = replicated
    _populate(net)
    report = AntiEntropyRepairer(net).run()
    assert report.keys_repaired == 0
    assert report.postings_shipped == 0
    assert report.buckets_diverged == 0
    # One root digest per compared pair, nothing deeper.
    assert report.digests_exchanged == report.replica_pairs_compared
    assert report.groups_checked == len(net.peer_names())


def test_respawned_replica_reconverges(replicated):
    net, manager = replicated
    _populate(net)
    victim_id = net.id_of("peer-2")
    expected = _keys_owned_by(net, manager, victim_id)
    net.kill_peer("peer-2")
    net.respawn_peer("peer-2")
    report = AntiEntropyRepairer(net).run()
    assert report.keys_repaired == len(expected)
    _assert_converged(net, manager)
    # Every key the victim co-owns is back in its storage.
    storage = net.storage_of("peer-2")
    for key in expected:
        assert storage.get(key) is not None


def test_repair_traffic_proportional_to_divergence(replicated):
    net, manager = replicated
    _populate(net)
    victim_id = net.id_of("peer-2")
    expected = _keys_owned_by(net, manager, victim_id)
    net.kill_peer("peer-2")
    net.respawn_peer("peer-2")
    report = AntiEntropyRepairer(net).run()
    # Shipped postings are exactly the divergent keys' payloads — the
    # converged remainder of every range moves nothing.
    assert report.postings_shipped == sum(
        len(_value(KEYS.index(key))) for key in expected
    )


def test_second_pass_ships_nothing(replicated):
    net, _ = replicated
    _populate(net)
    net.kill_peer("peer-2")
    net.respawn_peer("peer-2")
    repairer = AntiEntropyRepairer(net)
    first = repairer.run()
    assert first.keys_repaired > 0
    second = repairer.run()
    assert second.keys_repaired == 0
    assert second.postings_shipped == 0
    assert second.digests_exchanged == second.replica_pairs_compared
    assert repairer.runs == 2


def test_writes_during_downtime_are_repaired(replicated):
    net, manager = replicated
    net.kill_peer("peer-2")
    _populate(net)
    net.respawn_peer("peer-2")
    AntiEntropyRepairer(net).run()
    _assert_converged(net, manager)


def test_repair_traffic_is_maintenance(replicated):
    net, _ = replicated
    _populate(net)
    net.kill_peer("peer-2")
    net.respawn_peer("peer-2")
    retrieval_before = net.accounting.postings(Phase.RETRIEVAL)
    maintenance_before = net.accounting.postings(Phase.MAINTENANCE)
    # Fired inside a query, repair still charges MAINTENANCE.
    with net.accounting.charge(Phase.RETRIEVAL):
        report = AntiEntropyRepairer(net).run()
    assert report.postings_shipped > 0
    assert (
        net.accounting.postings(Phase.RETRIEVAL) == retrieval_before
    )
    assert net.accounting.postings(Phase.MAINTENANCE) == (
        maintenance_before + report.postings_shipped
    )
    snap = net.accounting.snapshot()
    assert snap.messages_by_kind.get(MessageKind.REPLICA_REPAIR, 0) == (
        report.keys_repaired
    )


def test_repair_never_deletes(replicated):
    net, manager = replicated
    _populate(net)
    # Plant an extra key at a backup only (e.g. a write the primary
    # missed): repair must ship it to the primary, not remove it.
    key = "only-at-backup"
    key_id = net.key_id(key)
    primary, backup = manager.owners(key_id)
    net.storage_by_id(backup).put(key, key_id, ["x", "y"])
    AntiEntropyRepairer(net).run()
    assert net.storage_by_id(primary).get(key) == ["x", "y"]
    assert net.storage_by_id(backup).get(key) == ["x", "y"]


def test_shipped_copies_are_independent(replicated):
    net, manager = replicated
    _populate(net)
    net.kill_peer("peer-2")
    net.respawn_peer("peer-2")
    AntiEntropyRepairer(net).run()
    victim_id = net.id_of("peer-2")
    for key in _keys_owned_by(net, manager, victim_id):
        copies = [
            net.storage_by_id(owner).get(key)
            for owner in manager.owners(net.key_id(key))
        ]
        assert copies[0] is not copies[1]
