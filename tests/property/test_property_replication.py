"""Replica placement against a reference successor walk.

:class:`ReplicaPlacement` derives one ``{primary: replica set}`` table
per ring generation and swaps it whole on ``invalidate()``.  The model
below is the definition it replaced: sort the ring, find the primary,
take the next R distinct peers, wrapping.  Hypothesis drives random
join / leave / crash / respawn sequences at R = 1..5 (rings smaller
than R included) and compares every owner list after every step, before
and after an extra ``invalidate()``; at R >= 2 the installed manager's
failover walk is checked against the model's too.  A thread race then
checks that a reader racing a stream of joins only ever sees the answer
of one ring generation.
"""

from __future__ import annotations

import bisect
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.chord import ChordOverlay
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


@pytest.mark.concurrency
def test_placement_racing_joins_sees_one_ring_generation():
    """Six readers race a stream of joins.  Every replica set a reader
    sees must be the reference answer on *one* of the rings that
    existed, every ring it sees must be one of them, and once the joins
    are over the placement must answer for the final ring without a
    further ``invalidate()`` — a derivation that read an old ring must
    never be published after the invalidation that dropped it."""
    replication = 3
    rng = random.Random(11)
    ids = rng.sample(range(1, 2**20), 256)
    initial, joiners = sorted(ids[:6]), ids[6:]
    rings = [list(initial)]
    for joiner in joiners:
        rings.append(sorted(rings[-1] + [joiner]))
    # Every initial peer stays on the ring, so a key equal to its id
    # has that peer as primary in every generation.  Keys that move to a
    # joiner are left out: their primary is read from the live overlay
    # before the table, and that pairing can still mix generations.
    keys = list(initial)
    allowed = {
        key: {reference_owners(ring, key, replication) for ring in rings}
        for key in keys
    }
    ring_shapes = {tuple(ring) for ring in rings}
    overlay = ChordOverlay(initial)
    placement = ReplicaPlacement(overlay, replication)
    failures: list[object] = []
    done = threading.Event()

    def read(seed: int) -> None:
        local = random.Random(seed)
        try:
            while not done.is_set():
                key = local.choice(keys)
                owners = placement.owners(key)
                if owners not in allowed[key]:
                    failures.append((key, owners))
                if placement.ring() not in ring_shapes:
                    failures.append(("ring", placement.ring()))
        except Exception as error:  # surfaced by the assert below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [
            threading.Thread(target=read, args=(seed,)) for seed in range(6)
        ]
        for thread in readers:
            thread.start()
        try:
            for joiner in joiners:
                overlay.add_peer(joiner)
                placement.invalidate()
                # Give the readers a chance to derive this generation.
                for key in keys:
                    placement.owners(key)
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in readers)
        assert failures == []
        assert list(placement.ring()) == rings[-1]
        for key in keys:
            assert placement.owners(key) == reference_owners(
                rings[-1], key, replication
            )
    finally:
        sys.setswitchinterval(interval)
