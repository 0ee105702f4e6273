"""Property-based tests for the DHT overlays."""

from __future__ import annotations

import bisect
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import chord
from repro.net.chord import ChordOverlay
from repro.net.node_id import KEY_SPACE_SIZE, hash_to_id
from repro.net.pgrid import PGridOverlay

peer_sets = st.lists(
    st.integers(min_value=0, max_value=KEY_SPACE_SIZE - 1),
    min_size=1,
    max_size=20,
    unique=True,
)
key_ids = st.integers(min_value=0, max_value=KEY_SPACE_SIZE - 1)


@given(peer_sets, key_ids)
def test_chord_owner_is_member(peers, key):
    overlay = ChordOverlay(peers)
    assert overlay.responsible_peer(key) in peers


@given(peer_sets, key_ids)
def test_pgrid_owner_is_member(peers, key):
    overlay = PGridOverlay(peers)
    assert overlay.responsible_peer(key) in peers


@given(peer_sets, key_ids)
def test_chord_routing_reaches_owner(peers, key):
    overlay = ChordOverlay(peers)
    for source in peers:
        hops = overlay.route_hops(source, key)
        assert 0 <= hops < max(2, len(peers))


@given(peer_sets, key_ids, st.integers(min_value=0, max_value=2**63))
def test_chord_join_moves_keys_only_to_joiner(peers, key, joiner_seed):
    overlay = ChordOverlay(peers)
    joiner = hash_to_id(f"joiner-{joiner_seed}")
    if joiner in overlay:
        return
    owner_before = overlay.responsible_peer(key)
    overlay.add_peer(joiner)
    owner_after = overlay.responsible_peer(key)
    assert owner_after in (owner_before, joiner)


@settings(max_examples=50)
@given(peer_sets)
def test_pgrid_cover_is_prefix_free_and_complete(peers):
    overlay = PGridOverlay(peers)
    paths = list(overlay.paths())
    for a in paths:
        for b in paths:
            if a != b:
                assert not b.startswith(a)
    assert sum(2.0 ** -len(p) for p in paths) == 1.0


@settings(max_examples=30)
@given(peer_sets, key_ids)
def test_pgrid_removal_preserves_coverage(peers, key):
    if len(peers) < 2:
        return
    overlay = PGridOverlay(peers)
    overlay.remove_peer(peers[0])
    remaining = set(peers[1:])
    assert overlay.responsible_peer(key) in remaining


@given(peer_sets)
def test_overlays_agree_on_membership(peers):
    chord = ChordOverlay(peers)
    pgrid = PGridOverlay(peers)
    assert set(chord.peer_ids()) == set(pgrid.peer_ids()) == set(peers)


# -- cached routing vs an uncached reference walk ---------------------------------
#
# ChordOverlay keeps finger tables and walked hop counts between
# membership changes.  The reference below is the straightforward walk it
# replaced: every finger recomputed from the ring on every hop.  Small id
# spaces make rings dense (adjacent ids, peers at 0 and 2**bits - 1, keys
# that are peer ids), which is where interval and wrap-around bugs live.


def _reference_successor(ring, value):
    index = bisect.bisect_left(ring, value)
    return ring[index % len(ring)]


def _reference_in_open_interval(value, low, high):
    if low == high:
        return value != low
    if low < high:
        return low < value < high
    return value > low or value < high


def reference_route_hops(ring, bits, source, key):
    """Greedy closest-preceding-finger walk over sorted ``ring``."""
    size = 1 << bits
    target = _reference_successor(ring, key)
    current, hops = source, 0
    while current != target:
        assert hops <= len(ring), "reference walk looped"
        step = _reference_successor(ring, (current + 1) % size)
        for i in reversed(range(bits)):
            finger = _reference_successor(ring, (current + (1 << i)) % size)
            if finger != current and _reference_in_open_interval(
                finger, current, key
            ):
                step = finger
                break
        current = step
        hops += 1
    return hops


def id_space(bits):
    """Shrink the overlay's id space to ``bits`` for the block."""
    return mock.patch.multiple(
        chord, KEY_SPACE_BITS=bits, KEY_SPACE_SIZE=1 << bits
    )


def interesting_keys(ring, size, extra):
    keys = {0, size - 1, extra % size}
    for peer in ring:
        keys.update(((peer - 1) % size, peer, (peer + 1) % size))
    return sorted(keys)


membership_ops = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "route"]),
        st.integers(min_value=0, max_value=KEY_SPACE_SIZE - 1),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([4, 8, 64]), membership_ops)
def test_chord_cached_routing_equals_reference_walk(bits, ops):
    size = 1 << bits
    with id_space(bits):
        overlay = ChordOverlay([ops[0][1] % size])
        ring = [ops[0][1] % size]
        for op, number in ops:
            if op == "join" and number % size not in ring:
                overlay.add_peer(number % size)
                bisect.insort(ring, number % size)
            elif op == "leave" and len(ring) > 1:
                overlay.remove_peer(ring.pop(number % len(ring)))
            assert overlay.peer_ids() == ring
            # Every op is followed by a full sweep, twice: the first
            # fills the caches after the change, the second reads them.
            for _ in range(2):
                for source in ring:
                    for key in interesting_keys(ring, size, number):
                        assert overlay.route_hops(
                            source, key
                        ) == reference_route_hops(ring, bits, source, key)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([4, 8]),
    st.data(),
)
def test_chord_membership_change_between_identical_calls_is_observed(
    bits, data
):
    size = 1 << bits
    ids = st.integers(min_value=0, max_value=size - 1)
    ring = sorted(data.draw(st.sets(ids, min_size=2, max_size=size // 2)))
    source = data.draw(st.sampled_from(ring))
    key = data.draw(ids)
    with id_space(bits):
        overlay = ChordOverlay(ring)
        before = overlay.route_hops(source, key)
        assert before == reference_route_hops(ring, bits, source, key)
        if data.draw(st.booleans()):
            joiner = data.draw(ids.filter(lambda i: i not in ring))
            overlay.add_peer(joiner)
            bisect.insort(ring, joiner)
        else:
            leaver = data.draw(
                st.sampled_from([p for p in ring if p != source])
            )
            overlay.remove_peer(leaver)
            ring.remove(leaver)
        # The identical call again: no stale finger table, no stale memo.
        assert overlay.route_hops(source, key) == reference_route_hops(
            ring, bits, source, key
        )


@pytest.mark.concurrency
def test_chord_route_hops_racing_add_peer_sees_one_ring_generation():
    """Routers race a joiner.  Every hop count must be the reference
    count on *one* of the rings that existed (a walk never mixes two),
    and once the joins are over, on the final ring — a walk that began
    before a join must not have left its hops in the new ring's memo."""
    bits = 8
    size = 1 << bits
    rng = random.Random(5)
    ids = rng.sample(range(size), 72)
    initial, joiners = sorted(ids[:8]), ids[8:]
    keys = list(range(0, size, 5))
    rings = [list(initial)]
    for joiner in joiners:
        rings.append(sorted(rings[-1] + [joiner]))
    allowed = {
        (source, key): {
            reference_route_hops(ring, bits, source, key) for ring in rings
        }
        for source in initial
        for key in keys
    }
    failures: list[object] = []
    done = threading.Event()

    def route(seed):
        local = random.Random(seed)
        try:
            while not done.is_set():
                source, key = local.choice(initial), local.choice(keys)
                hops = overlay.route_hops(source, key)
                if hops not in allowed[source, key]:
                    failures.append((source, key, hops))
        except Exception as error:  # surfaced by the assert below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with id_space(bits):
            overlay = ChordOverlay(initial)
            routers = [
                threading.Thread(target=route, args=(seed,))
                for seed in range(6)
            ]
            for thread in routers:
                thread.start()
            try:
                for joiner in joiners:
                    overlay.add_peer(joiner)
                    # Let the routers populate this generation's caches.
                    for key in keys[:8]:
                        overlay.route_hops(initial[0], key)
            finally:
                done.set()
                for thread in routers:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in routers)
            assert failures == []
            assert overlay.peer_ids() == rings[-1]
            for source in initial:
                for key in keys:
                    assert overlay.route_hops(
                        source, key
                    ) == reference_route_hops(rings[-1], bits, source, key)
    finally:
        sys.setswitchinterval(interval)
