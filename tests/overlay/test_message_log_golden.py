"""Golden message log of the super-peer hierarchy.

A scripted 12-peer, fanout-3 world — at R=1 and R=2, static and
adaptive with a short decision interval — is driven through every
route the hierarchical router can take: self-owned, cold full-path,
path-cache, local-cache and summary-skip answers, crashes (dark
ranges at R=1, failover probes at R=2, a crashed super-peer's
re-election), respawns (scoped repair, and the fallback to a full
refresh), joins and leaves (re-clustering), inserts onto keys with
remote path-cache copies (invalidation fan-out), a saturating insert
(single-flight summary rebuild), and a load skew that splits a cluster
and lets it merge back.

Every message the network logs is recorded — from its ``net.msg`` trace
span — as ``(phase, kind, source, destination, postings, hops, route)``
and compared, byte for byte,
with ``golden/message_log.json``.  A refactor of the router that
claims to be behaviour-neutral must reproduce the file unchanged; a
change that moves a message on purpose regenerates it with
``PYTHONPATH=src python tests/overlay/test_message_log_golden.py`` and
commits the diff.  The key is left out of the row, and CI runs this test
under two hash seeds, so a set-iteration order can never be committed
as golden.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from harness.messages import recorded_messages

from repro.net.accounting import Phase
from repro.net.messages import MessageKind
from repro.net.network import P2PNetwork
from repro.net.node_id import peer_id_for
from repro.overlay import HierarchicalRouter, SuperPeerTopology
from repro.overlay.summaries import ClusterSummary
from repro.replication import ReplicaFailoverRouter, ReplicationManager

GOLDEN = Path(__file__).parent / "golden" / "message_log.json"

WORLDS = {
    f"R{replication}-{'adaptive' if adaptive else 'static'}": (
        replication,
        adaptive,
    )
    for replication in (1, 2)
    for adaptive in (False, True)
}

#: What the four worlds together must exercise, or the scenario no
#: longer covers the router (checked against the committed fixture too,
#: so a regenerated log cannot silently lose a path).
REQUIRED_ROUTES = {
    "dark_range",
    "self_owned",
    "local_cache",
    "path_cache",
    "summary_skip",
    "leaf>sp>home>owner",
    "owner>home>leaf",
    "owner>home>local>leaf",
    "failover_probe",
}
REQUIRED_KINDS = {
    "insert",
    "lookup",
    "response",
    "handoff",
    "cluster_join",
    "routing_update",
    "cluster_split",
    "cluster_merge",
    "cache_invalidate",
    "replica_write",
    "replica_probe",
}


class World:
    """One scripted network; :func:`run_world` fills :attr:`log`."""

    def __init__(self, replication: int, adaptive: bool) -> None:
        self.network = network = P2PNetwork()
        self.log: list[tuple] = []
        self._names: dict[int, str] = {}
        for i in range(12):
            self.join(f"peer-{i:03d}")
        manager = (
            ReplicationManager(network, replication).install()
            if replication > 1
            else None
        )
        self.router = HierarchicalRouter(
            SuperPeerTopology(network, fanout=3),
            path_cache_capacity=8,
            adaptive=adaptive,
            split_threshold=6,
            merge_threshold=1,
            decision_interval=8,
            merge_cool_down=2,
        )
        self.router.install(network)
        if manager is not None:
            network.router = ReplicaFailoverRouter(manager, inner=self.router)
        self.topology = self.router.topology

    # -- scripted operations ------------------------------------------------------

    def join(self, name: str) -> None:
        # Named before the join so its handoff is logged by name.
        self._names[peer_id_for(name)] = name
        self.network.add_peer(name)

    def name_of(self, peer_id: int) -> str:
        return self._names[peer_id]

    def row(self, message) -> tuple:
        """A ``net.msg`` span's attributes as a golden row (peers by
        name: every peer is named before it joins)."""
        return (
            message["phase"],
            MessageKind[message["kind"]].value,
            self._names.get(message["source"], message["source"]),
            self._names.get(message["destination"], message["destination"]),
            message["postings"],
            message["hops"],
            message.get("route"),
        )

    def insert(self, source: str, key: frozenset, value: list) -> None:
        with self.network.accounting.charge(Phase.INDEXING):
            self.network.insert(
                source,
                key,
                lambda current: (current or []) + value,
                payload_postings=len(value),
            )

    def lookup(self, source: str, key: frozenset):
        with self.network.accounting.charge(Phase.RETRIEVAL):
            return self.network.lookup(source, key, lambda v: len(v or []))

    def keys_homed_in(self, members, count: int, tag: str) -> list[frozenset]:
        """``count`` keys whose responsible peer is in ``members``
        (probes ``{tag}-0``, ``{tag}-1``, ... in order)."""
        keys: list[frozenset] = []
        probe = 0
        while len(keys) < count:
            key = frozenset({f"{tag}-{probe}"})
            if self.network.responsible_peer_for(key) in members:
                keys.append(key)
            probe += 1
        return keys

    def leaves_and_super_peers(self) -> list[str]:
        """Every live peer's name, in cluster order."""
        return [
            self.name_of(member)
            for cluster in self.topology.clusters
            for member in cluster.members
            if self.network.is_live(member)
        ]


def run_world(replication: int, adaptive: bool) -> World:
    with recorded_messages() as messages:
        world = script_world(replication, adaptive)
    world.log = [world.row(message) for message in messages]
    return world


def script_world(replication: int, adaptive: bool) -> World:
    world = World(replication, adaptive)
    network, topology = world.network, world.topology
    first, second, third, fourth = topology.clusters

    # A cached key with two remote copies, then an insert onto it: the
    # cold lookup takes the full path, the repeat is a cache hit (local
    # level when adaptive), a third cluster's lookup leaves a second
    # copy, and the insert fans the invalidation out to both.
    cached, stored, other = world.keys_homed_in(first.members, 3, "cached")
    leaf_b = world.name_of(second.members[-1])
    leaf_c = world.name_of(third.members[-1])
    world.insert(leaf_b, cached, [1, 2])
    world.lookup(leaf_b, cached)
    world.lookup(leaf_b, cached)
    world.lookup(leaf_c, cached)
    world.insert(leaf_c, cached, [3])
    world.lookup(leaf_b, cached)

    # Every source against a stored key and an absent one, twice: self-
    # owned lookups, sources that are their own super-peer, sources in
    # the home cluster, summary skips, and cached absences.  The skew
    # toward the first cluster splits it when adaptive.
    absent = world.keys_homed_in(first.members, 1, "absent")[0]
    world.insert(leaf_c, stored, [7])
    for _ in range(2):
        for source in world.leaves_and_super_peers():
            world.lookup(source, stored)
            world.lookup(source, absent)

    # A saturating insert: the home cluster's summary is swapped for a
    # one-key filter, so the next insert claims the single-flight
    # rebuild and ships the members' summaries mid-insert.
    start = topology.home_cluster(network.key_id(other)).start
    with world.router._lock:
        tiny = ClusterSummary(capacity=1)
        tiny.add(network.key_id(cached))
        tiny.add(network.key_id(stored))
        world.router._summaries[start] = tiny
    world.insert(leaf_b, other, [4, 5])
    world.lookup(leaf_c, other)

    # Calm windows: traffic homed elsewhere lets the split pair merge.
    calm = world.keys_homed_in(fourth.members, 6, "calm")
    for key in calm[:3]:
        world.insert(leaf_b, key, [9])
    for _ in range(3):
        for key in calm:
            world.lookup(leaf_b, key)
            world.lookup(leaf_c, key)

    # Crash the owner of a stored key: dark at R=1, failover at R=2.  A
    # write into the dead range, lookups from inside and outside the
    # affected cluster, then the respawn (scoped repair both times).
    owner = network.responsible_peer_for(stored)
    victim = world.name_of(owner)
    witness = next(
        world.name_of(m)
        for m in topology.cluster_of_peer(owner).members
        if m != owner
    )
    network.kill_peer(victim)
    for source in (leaf_b, witness, victim):
        world.lookup(source, stored)
        world.lookup(source, absent)
    world.insert(leaf_c, stored, [8])
    world.lookup(leaf_c, stored)
    network.respawn_peer(victim)
    for source in (leaf_b, witness, victim):
        world.lookup(source, stored)

    # Crash a super-peer (re-election), and at R=2 its successor too,
    # so keys whose whole replica set is gone are dark there as well.
    crashed_sp = topology.cluster_of_peer(
        network.responsible_peer_for(calm[0])
    ).super_peer
    network.kill_peer(world.name_of(crashed_sp))
    ring = network.peer_ids()
    successor = ring[(ring.index(crashed_sp) + 1) % len(ring)]
    network.kill_peer(world.name_of(successor))
    for key in calm:
        world.lookup(leaf_b, key)
    network.respawn_peer(world.name_of(successor))
    world.lookup(leaf_b, calm[0])

    # A join and a leave re-cluster the world (the crashed super-peer
    # is left out of the map), after which its respawn cannot be scoped
    # and falls back to a full refresh.  Then a batched double join.
    world.join("peer-012")
    world.lookup("peer-012", cached)
    world.lookup(leaf_b, cached)
    network.remove_peer("peer-012")
    network.respawn_peer(world.name_of(crashed_sp))
    with network.membership_batch():
        world.join("peer-013")
        world.join("peer-014")
    for source in world.leaves_and_super_peers():
        world.lookup(source, cached)
        world.lookup(source, calm[1])
    return world


def render(logs: dict[str, list[tuple]]) -> str:
    """The fixture's text: one message per line, worlds in order."""
    blocks = []
    for name, log in logs.items():
        rows = ",\n".join(json.dumps(list(row)) for row in log)
        blocks.append(f"{json.dumps(name)}: [\n{rows}\n]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def coverage(logs: dict[str, list[tuple]]) -> tuple[set, set]:
    rows = [row for log in logs.values() for row in log]
    return {row[1] for row in rows}, {row[6] for row in rows}


@pytest.fixture(scope="module")
def golden() -> dict[str, list[list]]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def worlds() -> dict[str, World]:
    return {name: run_world(*args) for name, args in WORLDS.items()}


@pytest.mark.parametrize("name", WORLDS)
def test_message_log_matches_golden(name, worlds, golden):
    # Message by message first, so a mismatch names where it starts.
    produced = [list(row) for row in worlds[name].log]
    expected = golden[name]
    for index, (got, want) in enumerate(zip(produced, expected)):
        assert got == want, f"{name}: message {index} differs"
    assert len(produced) == len(expected), name


def test_rendered_log_is_byte_identical(worlds):
    logs = {name: world.log for name, world in worlds.items()}
    assert render(logs) == GOLDEN.read_text()


def test_golden_covers_every_route_and_kind(golden):
    kinds, routes = coverage(golden)
    assert REQUIRED_KINDS <= kinds, REQUIRED_KINDS - kinds
    assert REQUIRED_ROUTES <= routes, REQUIRED_ROUTES - routes


def test_adaptive_worlds_split_and_merge(worlds):
    for name, (_, adaptive) in WORLDS.items():
        topology = worlds[name].topology
        assert (topology.splits >= 1) == adaptive, name
        assert (topology.merges >= 1) == adaptive, name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        render({name: run_world(*args).log for name, args in WORLDS.items()})
    )
    print(f"wrote {GOLDEN}")
