"""The hashed identifier space shared by peers and keys.

Keys and peers are mapped into one circular ``2**KEY_SPACE_BITS`` id space
(consistent hashing).  SHA-1 is used as the hash function — the classic
choice of Chord/P-Grid-era DHTs — truncated to the configured width.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "KEY_SPACE_BITS",
    "KEY_SPACE_SIZE",
    "canonical_term_set",
    "hash_to_id",
    "key_repr",
    "peer_id_for",
]

#: Width of the identifier space in bits.  64 bits keeps ids readable in
#: debug output while making collisions vanishingly unlikely at simulated
#: network sizes.
KEY_SPACE_BITS = 64

#: Size of the identifier space.
KEY_SPACE_SIZE = 1 << KEY_SPACE_BITS


def canonical_term_set(key: frozenset[str]) -> str:
    """The one canonical serialization of a term-set key (terms sorted,
    0x1f-joined).  Both the overlay hashing (`P2PNetwork.key_id`) and the
    on-disk segment format (`repro.store.segment`) build on this rule;
    keeping it in one place guarantees a persisted key rehashes to the
    same responsible peer on reload."""
    return "\x1f".join(sorted(key))


def key_repr(key: object) -> str:
    """Human-readable form of a logical key (traces, error messages): a
    term set as ``{apple+pie}`` — terms sorted, so the text does not
    depend on the hash seed — a string as itself, anything else as its
    ``repr``."""
    if isinstance(key, frozenset):
        return "{" + "+".join(sorted(key)) + "}"
    if isinstance(key, str):
        return key
    return repr(key)


def hash_to_id(value: str) -> int:
    """Map an arbitrary string to an id in ``[0, 2**KEY_SPACE_BITS)``."""
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % KEY_SPACE_SIZE


def peer_id_for(peer_name: str) -> int:
    """Map a peer name to its overlay id.

    Peer ids live in the same space as key ids (consistent hashing); the
    dedicated function exists so call sites read unambiguously.
    """
    return hash_to_id(f"peer:{peer_name}")
