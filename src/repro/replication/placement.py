"""Successor-list replica placement over the structured overlay.

The primary owner of a key is whatever the overlay's responsibility rule
says (Chord ring successor, P-Grid prefix region); its backups are the
next R-1 *distinct* peers in ascending id order, wrapping around — the
classic successor-list placement.  Placement is a pure function of the
overlay membership, so every peer computes the same owner list without
coordination, and it deliberately includes crashed peers: a crash does
not move responsibility (the population hasn't agreed the peer left),
it only makes reads fail over and writes skip the dead owner until
anti-entropy repair re-converges it.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..net.chord import Overlay

__all__ = ["ReplicaPlacement"]


class ReplicaPlacement:
    """Maps key ids to their R successor owners on the ring.

    Args:
        overlay: the structured overlay placement follows.
        replication: R, the number of owners per key range (>= 1).
            When the network is smaller than R, every peer owns every
            range.
    """

    def __init__(self, overlay: Overlay, replication: int) -> None:
        if replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1, got {replication}"
            )
        self.overlay = overlay
        self.replication = replication
        #: ``(ring ascending, {primary: replica set})`` of one ring
        #: generation, derived on first use after a membership change
        #: and dropped as one: owners() runs on every lookup and
        #: several times per insert, so it is one dict read.
        self._placement: (
            tuple[tuple[int, ...], dict[int, tuple[int, ...]]] | None
        ) = None

    def invalidate(self) -> None:
        """Drop the cached placement (call on join/leave; crash and
        respawn do not change the ring)."""
        self._placement = None

    def _current(
        self,
    ) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
        placement = self._placement
        if placement is None:
            ring = tuple(sorted(self.overlay.peer_ids()))
            count = min(self.replication, len(ring))
            wrapped = ring + ring[:count]
            table = {
                primary: wrapped[start : start + count]
                for start, primary in enumerate(ring)
            }
            placement = self._placement = (ring, table)
        return placement

    def ring(self) -> tuple[int, ...]:
        """All peer ids (live and crashed), ascending."""
        return self._current()[0]

    def owners(self, key_id: int) -> tuple[int, ...]:
        """The R owners of ``key_id``: primary first, then its ring
        successors in placement order."""
        return self.owners_of_primary(self.overlay.responsible_peer(key_id))

    def owners_of_primary(self, primary_id: int) -> tuple[int, ...]:
        """The replica set of the key range whose primary is
        ``primary_id`` (primary first)."""
        try:
            return self._current()[1][primary_id]
        except KeyError:
            raise ConfigurationError(
                f"peer id {primary_id} is not on the ring"
            ) from None
