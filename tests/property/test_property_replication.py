"""Replica placement against a reference successor walk.

:class:`ReplicaPlacement` derives one ``{primary: replica set}`` table
per ring generation and swaps it whole on ``invalidate()``.  The model
below is the definition it replaced: sort the ring, find the primary,
take the next R distinct peers, wrapping.  Hypothesis drives random
join / leave / crash / respawn sequences at R = 1..5 (rings smaller
than R included) and compares every owner list after every step, before
and after an extra ``invalidate()``; at R >= 2 the installed manager's
failover walk is checked against the model's too.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import P2PNetwork
from repro.replication import (
    ReplicaFailoverRouter,
    ReplicaPlacement,
    ReplicationManager,
)


def reference_primary(ring: list[int], key_id: int) -> int:
    """Chord's rule: the first peer at or after the key, wrapping."""
    return ring[bisect.bisect_left(ring, key_id) % len(ring)]


def reference_owners(
    ring: list[int], primary: int, replication: int
) -> tuple[int, ...]:
    start = ring.index(primary)
    return tuple(
        ring[(start + offset) % len(ring)]
        for offset in range(min(replication, len(ring)))
    )


def reference_failover(
    owners: tuple[int, ...], live: set[int]
) -> tuple[int, int | None]:
    for skipped, owner in enumerate(owners):
        if owner in live:
            return skipped, owner
    return len(owners), None


def probe_keys(ring: list[int], extra: list[int]) -> list[int]:
    """Peer ids and their neighbours (where successor bugs live), the
    ends of the id space, and a few drawn ids."""
    keys = {0, 2**64 - 1, *extra}
    for peer in ring:
        keys.update((peer - 1, peer, min(peer + 1, 2**64 - 1)))
    return sorted(key for key in keys if 0 <= key < 2**64)


membership_ops = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "crash", "respawn"]),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    membership_ops,
    st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=4),
)
def test_placement_matches_reference_walk(replication, ops, extra_keys):
    network = P2PNetwork()
    network.add_peer("peer-0")
    placement = ReplicaPlacement(network.overlay, replication)
    manager = None
    if replication >= 2:
        # The installed manager keeps its own placement, invalidated
        # through the membership hook rather than by this test.
        manager = ReplicationManager(network, replication).install()
        network.router = ReplicaFailoverRouter(manager)
    names = ["peer-0"]

    def check() -> None:
        ring = sorted(network.peer_ids())
        live = set(network.live_peer_ids())
        for _ in range(2):
            assert list(placement.ring()) == ring
            for primary in ring:
                expected = reference_owners(ring, primary, replication)
                assert placement.owners_of_primary(primary) == expected
            for key_id in probe_keys(ring, extra_keys):
                owners = reference_owners(
                    ring, reference_primary(ring, key_id), replication
                )
                assert placement.owners(key_id) == owners
                if manager is not None:
                    assert manager.owners(key_id) == owners
                    assert manager.failover_target(
                        key_id
                    ) == reference_failover(owners, live)
            placement.invalidate()

    check()
    for op, number in ops:
        name = names[number % len(names)]
        peer_id = network.id_of(name)
        if op == "join" and f"peer-{number}" not in names:
            network.add_peer(f"peer-{number}")
            names.append(f"peer-{number}")
            placement.invalidate()
        elif op == "leave" and len(names) > 1:
            network.remove_peer(name)
            names.remove(name)
            placement.invalidate()
        elif op == "crash" and network.is_live(peer_id):
            # The ring keeps a crashed peer: nothing to invalidate.
            network.kill_peer(name)
        elif op == "respawn" and not network.is_live(peer_id):
            network.respawn_peer(name)
        check()
