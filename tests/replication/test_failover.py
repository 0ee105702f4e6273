"""Tests for failover reads through :class:`ReplicaFailoverRouter`."""

from __future__ import annotations

import pytest

from harness.messages import recorded_messages
from replication_helpers import build_replicated, name_of
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork
from repro.overlay import HierarchicalRouter, SuperPeerTopology
from repro.replication import ReplicaFailoverRouter, ReplicationManager


@pytest.fixture()
def replicated():
    return build_replicated()


def _kind_count(net, kind):
    return net.accounting.snapshot().messages_by_kind.get(kind, 0)


def test_lookup_unaffected_while_all_owners_live(replicated):
    net, _ = replicated
    net.insert("peer-0", "k", lambda cur: "v", 1)
    assert net.lookup("peer-1", "k", lambda v: 0) == "v"
    assert _kind_count(net, MessageKind.REPLICA_PROBE) == 0


def test_lookup_fails_over_to_backup(replicated):
    net, manager = replicated
    net.insert("peer-0", "k", lambda cur: "v", 1)
    primary, _backup = manager.owners(net.key_id("k"))
    net.kill_peer(name_of(net, primary))
    assert net.lookup("peer-0", "k", lambda v: 0) == "v"


def test_failover_charges_one_probe_per_dead_owner(replicated):
    net, manager = replicated
    net.insert("peer-0", "k", lambda cur: "v", 1)
    primary, _ = manager.owners(net.key_id("k"))
    net.kill_peer(name_of(net, primary))
    before = _kind_count(net, MessageKind.REPLICA_PROBE)
    net.lookup("peer-0", "k", lambda v: 0)
    assert _kind_count(net, MessageKind.REPLICA_PROBE) == before + 1
    assert net.router.failover_probes == 1


def test_whole_replica_set_dead_times_out(replicated):
    net, manager = replicated
    net.insert("peer-0", "k", lambda cur: "v", 1)
    responses_before = _kind_count(net, MessageKind.RESPONSE)
    for owner in manager.owners(net.key_id("k")):
        net.kill_peer(name_of(net, owner))
    assert net.lookup("peer-0", "k", lambda v: 0) is None
    # The request is logged but no RESPONSE ever arrives.
    assert _kind_count(net, MessageKind.RESPONSE) == responses_before


def test_writes_keep_flowing_while_primary_dead(replicated):
    net, manager = replicated
    primary, backup = manager.owners(net.key_id("k"))
    net.kill_peer(name_of(net, primary))
    net.insert("peer-0", "k", lambda cur: "v", 1)
    assert net.storage_by_id(backup).get("k") == "v"
    assert net.lookup("peer-0", "k", lambda v: 0) == "v"


def test_describe_reports_wrapped_policy(replicated):
    net, _ = replicated
    info = net.router.describe()
    assert info == {"failover_probes": 0, "inner": None}


# -- a crash or respawn racing the failover decision ----------------------------------


def _build_hierarchical():
    """R=2 failover wrapped around the super-peer hierarchy."""
    net = P2PNetwork()
    for i in range(9):
        net.add_peer(f"peer-{i}")
    manager = ReplicationManager(net, 2).install()
    router = HierarchicalRouter(SuperPeerTopology(net, fanout=3))
    router.install(net)
    net.router = ReplicaFailoverRouter(manager, inner=router)
    return net, manager


def _key_with_one_cluster(net, manager):
    """A key whose primary and backup sit in one cluster, so the lookup
    is answered by whichever replica the failover picked (not by a
    summary that never heard of the other one)."""
    topology = getattr(net.router.inner, "topology", None)
    for probe in range(200):
        key = f"k{probe}"
        primary, backup = manager.owners(net.key_id(key))
        if topology is None or topology.cluster_of_peer(
            primary
        ) is topology.cluster_of_peer(backup):
            return key, primary, backup
    raise AssertionError("no key with both replicas in one cluster")


@pytest.mark.parametrize(
    "build", [build_replicated, _build_hierarchical], ids=["flat", "super"]
)
@pytest.mark.parametrize("event", ["crash", "respawn"])
def test_liveness_change_during_failover_is_read_once(build, event):
    """The primary crashes (or respawns) right after the failover walk
    first asks whether it is live.  The lookup must act on that one
    answer: a primary seen live is where the lookup goes, with no
    probe; a primary seen dead costs exactly one probe and the lookup
    lands on the backup the probe names.  Two separate walks would
    fail over without a probe, or charge a probe for a skip that never
    happened."""
    net, manager = build()
    key, primary, backup = _key_with_one_cluster(net, manager)
    net.insert("peer-0", key, lambda cur: "v", 1)
    victim = name_of(net, primary)
    source = name_of(
        net, next(p for p in net.peer_ids() if p not in (primary, backup))
    )
    if event == "respawn":
        # It comes back empty: only the backup can answer.
        net.kill_peer(victim)
    is_live = net.is_live
    flipped = []

    def racing_is_live(peer_id):
        live = is_live(peer_id)
        if peer_id == primary and not flipped:
            flipped.append(live)
            if event == "crash":
                net.kill_peer(victim)
            else:
                net.respawn_peer(victim)
        return live

    net.is_live = racing_is_live
    with recorded_messages() as sent:
        value = net.lookup(source, key, lambda v: 0 if v is None else 1)
    assert flipped == [event == "crash"]
    probes = [m for m in sent if m["kind"] == MessageKind.REPLICA_PROBE.name]
    (lookup,) = [m for m in sent if m["kind"] == MessageKind.LOOKUP.name]
    if event == "crash":
        # Seen live: the request is aimed at the primary, which died
        # on the way and answers nothing.
        assert probes == []
        assert lookup["destination"] == primary
        assert value is None
    else:
        # Seen dead: one probe past it, and the backup answers.
        assert [(m["destination"], m["hops"]) for m in probes] == [
            (backup, 1)
        ]
        assert lookup["destination"] == backup
        assert value == "v"
    assert net.router.failover_probes == len(probes)
    if event == "crash":
        # The dead primary's silence was not cached as the key's value:
        # the next lookup fails over to the backup, which still has it.
        net.is_live = is_live
        assert net.lookup(source, key, lambda v: 0) == "v"
