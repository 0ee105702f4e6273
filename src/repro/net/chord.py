"""A Chord-style ring overlay with finger-table routing.

Responsibility follows consistent hashing: the peer responsible for a key
id is its *successor* on the ring.  Routing uses classic Chord fingers
(peer p's i-th finger is the successor of ``p + 2^i``), giving O(log N)
hops, which the simulator counts per lookup.

Both this overlay and :class:`repro.net.pgrid.PGridOverlay` satisfy the
:class:`Overlay` protocol, so higher layers are overlay-agnostic.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Protocol

from ..errors import NetworkError, PeerNotFoundError
from .node_id import KEY_SPACE_BITS, KEY_SPACE_SIZE

__all__ = ["Overlay", "ChordOverlay"]


class Overlay(Protocol):
    """Minimal overlay interface required by :class:`P2PNetwork`."""

    def peer_ids(self) -> list[int]:
        """All peer ids currently in the overlay."""
        ...

    def responsible_peer(self, key_id: int) -> int:
        """The peer id responsible for ``key_id``."""
        ...

    def route_hops(self, source_peer: int, key_id: int) -> int:
        """Overlay hops from ``source_peer`` to the responsible peer."""
        ...

    def add_peer(self, peer_id: int) -> int:
        """Add a peer; returns the id of the peer that previously covered
        the new peer's range (the handoff source)."""
        ...

    def remove_peer(self, peer_id: int) -> int:
        """Remove a peer; returns the id of the peer that inherits its
        range (the handoff target)."""
        ...


#: Entries the per-ring hop memo may hold (N*N at 256 peers).  Past it new
#: routes are walked but not stored, so memory stays bounded on large rings.
_HOP_MEMO_LIMIT = 1 << 16


class ChordOverlay:
    """Chord ring over the shared 2**64 id space.

    The ring changes only on join/leave while every message is routed,
    so routing state derived from it is cached between membership
    changes (like :class:`repro.replication.ReplicaPlacement`'s ring):
    one finger table per peer, built when a walk first visits the peer,
    and the hop count of every ``(source, owner)`` pair already walked.
    """

    def __init__(self, peer_ids: Iterable[int] = ()) -> None:
        #: ``(ring ascending, finger tables by peer, hops by (source,
        #: owner))``, replaced as one tuple by every membership change: a
        #: reader gets a consistent generation in a single load, and a
        #: walk racing a join stores into the caches of the ring it
        #: walked, never stale entries into the new ring's.
        self._routing: tuple[
            tuple[int, ...],
            dict[int, tuple[int, ...]],
            dict[tuple[int, int], int],
        ] = ((), {}, {})
        for peer_id in peer_ids:
            self.add_peer(peer_id)

    # -- membership --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._routing[0])

    def peer_ids(self) -> list[int]:
        """Peers in ring order (ascending id)."""
        return list(self._routing[0])

    def __contains__(self, peer_id: int) -> bool:
        return _on_ring(self._routing[0], peer_id)

    def add_peer(self, peer_id: int) -> int:
        """Insert ``peer_id``; returns the previous owner of its range.

        The previous owner is the new peer's successor — in Chord, a
        joining node takes over part of its successor's key range.  For
        the first peer, the peer itself is returned.
        """
        self._validate_id(peer_id)
        ring = self._routing[0]
        index = bisect.bisect_left(ring, peer_id)
        if index < len(ring) and ring[index] == peer_id:
            raise NetworkError(f"peer id {peer_id} already in overlay")
        self._routing = (ring[:index] + (peer_id,) + ring[index:], {}, {})
        # The successor on the old ring (wrapping); itself when first.
        return ring[index % len(ring)] if ring else peer_id

    def remove_peer(self, peer_id: int) -> int:
        """Remove ``peer_id``; returns the peer inheriting its range.

        Raises:
            PeerNotFoundError: if the peer is not in the overlay.
            NetworkError: when removing the last peer (no inheritor).
        """
        ring = self._routing[0]
        index = bisect.bisect_left(ring, peer_id)
        if index == len(ring) or ring[index] != peer_id:
            raise PeerNotFoundError(f"peer id {peer_id} not in overlay")
        if len(ring) == 1:
            raise NetworkError("cannot remove the last peer of the overlay")
        ring = ring[:index] + ring[index + 1 :]
        self._routing = (ring, {}, {})
        # The departed peer's keys go to its successor (wrapping).
        return ring[index % len(ring)]

    # -- responsibility and routing -------------------------------------------------

    def responsible_peer(self, key_id: int) -> int:
        """Successor of ``key_id`` on the ring."""
        self._validate_id(key_id)
        ring = self._routing[0]
        if not ring:
            raise NetworkError("overlay has no peers")
        return _successor(ring, key_id)

    def route_hops(self, source_peer: int, key_id: int) -> int:
        """Count greedy finger-table hops from ``source_peer`` to the peer
        responsible for ``key_id``.

        Each hop jumps to the finger that most closely precedes the key,
        exactly Chord's ``closest_preceding_node`` walk; the hop count is
        O(log N) with high probability.  No peer id lies between a key
        and its owner, so the walk — and its hop count — depends on the
        key only through its owner, which is what the memo is keyed by.
        """
        ring, tables, memo = self._routing
        if not _on_ring(ring, source_peer):
            raise PeerNotFoundError(
                f"source peer {source_peer} not in overlay"
            )
        self._validate_id(key_id)
        owner = _successor(ring, key_id)
        hops = memo.get((source_peer, owner))
        if hops is None:
            hops = self._walk(ring, tables, source_peer, owner)
            if len(memo) < _HOP_MEMO_LIMIT:
                memo[source_peer, owner] = hops
        return hops

    # -- internals ------------------------------------------------------------------

    @staticmethod
    def _validate_id(value: int) -> None:
        if not 0 <= value < KEY_SPACE_SIZE:
            raise NetworkError(
                f"id {value} outside the {KEY_SPACE_BITS}-bit space"
            )

    @staticmethod
    def _walk(
        ring: tuple[int, ...],
        tables: dict[int, tuple[int, ...]],
        source_peer: int,
        owner: int,
    ) -> int:
        """Hops of the greedy walk from ``source_peer`` to ``owner``."""
        current = source_peer
        # Guard: in a ring of N peers the greedy walk must terminate in
        # fewer than N hops; a violation indicates a routing bug.
        for hops in range(len(ring) + 1):
            if current == owner:
                return hops
            fingers = tables.get(current)
            if fingers is None:
                fingers = tables[current] = _fingers(ring, current)
            for finger in fingers:
                if _in_open_interval(finger, current, owner):
                    current = finger
                    break
            else:
                # No finger strictly precedes the owner: the successor
                # is it; one final hop reaches it.
                current = fingers[-1]
        raise NetworkError(
            f"routing loop from {source_peer} to peer {owner}"
        )


def _successor(ring: tuple[int, ...], value: int) -> int:
    """First peer id >= value, wrapping around the ring."""
    index = bisect.bisect_left(ring, value)
    return ring[index] if index < len(ring) else ring[0]


def _on_ring(ring: tuple[int, ...], peer_id: int) -> bool:
    index = bisect.bisect_left(ring, peer_id)
    return index < len(ring) and ring[index] == peer_id


def _fingers(ring: tuple[int, ...], peer_id: int) -> tuple[int, ...]:
    """Finger table of ``peer_id`` — the successors of ``peer + 2^i`` —
    as its distinct fingers other than the peer itself, farthest first
    (the order the greedy walk tries them in); the last entry is the
    immediate successor."""
    fingers: list[int] = []
    for i in reversed(range(KEY_SPACE_BITS)):
        finger = _successor(ring, (peer_id + (1 << i)) % KEY_SPACE_SIZE)
        if finger != peer_id and (not fingers or fingers[-1] != finger):
            fingers.append(finger)
    return tuple(fingers)


def _in_open_interval(value: int, low: int, high: int) -> bool:
    """True iff ``value`` lies in the circular open interval (low, high)."""
    if low == high:
        # Full circle (single-peer degenerate case).
        return value != low
    if low < high:
        return low < value < high
    return value > low or value < high
