"""A P-Grid-style binary-trie overlay.

P-Grid (the overlay under the paper's prototype) organizes peers in a
virtual binary trie: a peer is responsible for the keys whose binary
representation starts with one of the peer's *paths* (bit-string
prefixes), and routing resolves prefix bits per hop through referral
links.

The simulator maintains the trie as a **prefix-free cover** of the id
space: a map from path to owning peer where no path is a prefix of
another and the regions sum to the whole space.  A peer normally owns one
path; after churn it may temporarily own several (a departed neighbour's
region), which P-Grid handles the same way through replication.

- **join** splits the shallowest leaf (the largest region), mirroring
  P-Grid's load balancing: the splitting peer keeps the ``0`` extension
  and the joiner takes ``1``.
- **leave** reassigns each of the departed peer's paths to the owner of a
  leaf in the sibling subtree, then coalesces sibling paths owned by the
  same peer.
- **routing cost** is the number of trie levels resolved between the
  source's deepest matching prefix and the responsible peer's path —
  O(log |paths|) with high probability, the P-Grid cost model.
"""

from __future__ import annotations

from ..errors import NetworkError, PeerNotFoundError
from .node_id import KEY_SPACE_BITS, KEY_SPACE_SIZE

__all__ = ["PGridOverlay"]


def _id_bits(value: int) -> str:
    """Binary representation of an id, fixed width."""
    return format(value, f"0{KEY_SPACE_BITS}b")


def _sibling(path: str) -> str:
    """The sibling path (last bit flipped).  Undefined for the root."""
    return path[:-1] + ("1" if path[-1] == "0" else "0")


class PGridOverlay:
    """Binary-trie overlay: peers own disjoint prefix regions."""

    def __init__(self, peer_ids: list[int] | None = None) -> None:
        #: path -> owning peer; invariant: prefix-free complete cover.
        self._paths: dict[str, int] = {}
        #: peer -> set of owned paths.
        self._peer_paths: dict[int, set[str]] = {}
        for peer_id in peer_ids or []:
            self.add_peer(peer_id)

    # -- membership --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._peer_paths)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peer_paths

    def peer_ids(self) -> list[int]:
        """All peer ids, ordered by their primary (shortest) path."""
        return sorted(self._peer_paths, key=lambda p: self.path_of(p))

    def paths(self) -> dict[str, int]:
        """A copy of the full path -> peer map (diagnostics, tests)."""
        return dict(self._paths)

    def path_of(self, peer_id: int) -> str:
        """The peer's primary path: its shortest (then lexicographically
        first) owned prefix.

        Raises:
            PeerNotFoundError: for unknown peers.
        """
        owned = self._peer_paths.get(peer_id)
        if not owned:
            raise PeerNotFoundError(f"peer id {peer_id} not in overlay")
        return min(owned, key=lambda p: (len(p), p))

    def add_peer(self, peer_id: int) -> int:
        """Add a peer by splitting the shallowest leaf; returns the peer
        whose region was split (the handoff source).

        The first peer owns the empty path (the whole space) and is its
        own handoff source.
        """
        if not 0 <= peer_id < KEY_SPACE_SIZE:
            raise NetworkError(f"peer id {peer_id} outside the id space")
        if peer_id in self._peer_paths:
            raise NetworkError(f"peer id {peer_id} already in overlay")
        if not self._paths:
            self._assign("", peer_id)
            return peer_id
        victim_path = min(self._paths, key=lambda p: (len(p), p))
        victim_peer = self._paths[victim_path]
        self._unassign(victim_path)
        self._assign(victim_path + "0", victim_peer)
        self._assign(victim_path + "1", peer_id)
        return victim_peer

    def remove_peer(self, peer_id: int) -> int:
        """Remove a peer; each of its regions merges into the trie.

        Returns one inheriting peer (the one receiving the peer's primary
        region), which the network layer uses as the handoff target.

        Raises:
            PeerNotFoundError: for unknown peers.
            NetworkError: when removing the last peer.
        """
        if peer_id not in self._peer_paths:
            raise PeerNotFoundError(f"peer id {peer_id} not in overlay")
        if len(self._peer_paths) == 1:
            raise NetworkError("cannot remove the last peer of the overlay")
        primary = self.path_of(peer_id)
        owned = sorted(self._peer_paths[peer_id])
        primary_inheritor: int | None = None
        for path in owned:
            inheritor = self._find_inheritor(path, peer_id)
            self._unassign(path)
            self._assign(path, inheritor)
            self._coalesce(path)
            if path == primary:
                primary_inheritor = inheritor
        del self._peer_paths[peer_id]
        assert primary_inheritor is not None
        return primary_inheritor

    def _find_inheritor(self, path: str, departing: int) -> int:
        """Pick the peer inheriting ``path``: the owner of the
        lexicographically first leaf in the sibling subtree, falling back
        to any other peer when the whole sibling side belongs to the
        departing peer too."""
        if path:
            sibling_prefix = _sibling(path)
            candidates = sorted(
                p
                for p, owner in self._paths.items()
                if p.startswith(sibling_prefix) and owner != departing
            )
            if candidates:
                return self._paths[candidates[0]]
        for p in sorted(self._paths):
            if self._paths[p] != departing:
                return self._paths[p]
        raise NetworkError("no inheritor available")  # pragma: no cover

    def _coalesce(self, path: str) -> None:
        """Merge sibling paths owned by the same peer, bottom-up."""
        while path:
            sibling = _sibling(path)
            owner = self._paths.get(path)
            if owner is None or self._paths.get(sibling) != owner:
                return
            self._unassign(path)
            self._unassign(sibling)
            parent = path[:-1]
            self._assign(parent, owner)
            path = parent

    def _assign(self, path: str, peer_id: int) -> None:
        self._paths[path] = peer_id
        self._peer_paths.setdefault(peer_id, set()).add(path)

    def _unassign(self, path: str) -> None:
        owner = self._paths.pop(path)
        owned = self._peer_paths[owner]
        owned.discard(path)

    # -- responsibility and routing ---------------------------------------------------

    def responsible_peer(self, key_id: int) -> int:
        """The peer owning the prefix that covers the key's bits."""
        if not 0 <= key_id < KEY_SPACE_SIZE:
            raise NetworkError(f"key id {key_id} outside the id space")
        if not self._paths:
            raise NetworkError("overlay has no peers")
        bits = _id_bits(key_id)
        # The cover is prefix-free and complete: exactly one prefix of the
        # key's bits is present.  Paths are short (≈ log2 N bits), so walk
        # prefixes from the empty path upward.
        for end in range(0, len(bits) + 1):
            owner = self._paths.get(bits[:end])
            if owner is not None:
                return owner
        raise NetworkError(
            f"trie inconsistency: no peer covers key {key_id}"
        )  # pragma: no cover

    def route_hops(self, source_peer: int, key_id: int) -> int:
        """P-Grid routing cost: one hop per referral level used.

        A peer resolves a key by following, at the first bit where the key
        diverges from its own path, a referral to the other side of the
        trie; each referral resolves at least one more bit.  The cost is
        the number of levels of the responsible peer's covering path
        beyond the longest common prefix with the source's path.

        Unlike :meth:`ChordOverlay.route_hops` this is not memoized by
        ``(source, owner)``: after churn a peer may own several paths of
        different depths, so two keys with the same owner can cost
        different hops — the cost depends on the key's covering *path*.
        """
        source_path = self.path_of(source_peer)
        target = self.responsible_peer(key_id)
        if target == source_peer:
            return 0
        bits = _id_bits(key_id)
        common = 0
        for source_bit, key_bit in zip(source_path, bits):
            if source_bit != key_bit:
                break
            common += 1
        # The covering path of the key at the target:
        target_path = next(
            p
            for p in self._peer_paths[target]
            if bits.startswith(p)
        )
        return max(1, len(target_path) - common)
