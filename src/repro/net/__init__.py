"""Structured P2P overlay substrate.

The paper's prototype runs on the P-Grid overlay; its analysis counts
*transmitted postings* and deliberately excludes overlay-maintenance
payloads.  This package provides an in-process simulation with exactly that
accounting:

- :mod:`repro.net.node_id` — the hashed key/peer identifier space,
- :mod:`repro.net.messages` — the message kinds,
- :mod:`repro.net.accounting` — traffic counters by phase and kind,
  charged to the operation that sent each message,
- :mod:`repro.net.chord` — a Chord-style ring with finger-table routing,
- :mod:`repro.net.pgrid` — a P-Grid-style binary-trie overlay,
- :mod:`repro.net.storage` — per-peer key/value stores,
- :mod:`repro.net.network` — the :class:`P2PNetwork` facade gluing the
  overlay, storage, and accounting together.

Both overlays implement the same :class:`repro.net.chord.Overlay` protocol,
so the global index is overlay-agnostic (an ablation in DESIGN.md §5).
"""

from .accounting import Charge, Phase, TrafficAccounting, TrafficSnapshot
from .chord import ChordOverlay
from .messages import MessageKind
from .network import P2PNetwork
from .node_id import KEY_SPACE_BITS, hash_to_id, peer_id_for
from .pgrid import PGridOverlay
from .storage import PeerStorage

__all__ = [
    "Charge",
    "Phase",
    "TrafficAccounting",
    "TrafficSnapshot",
    "ChordOverlay",
    "MessageKind",
    "P2PNetwork",
    "KEY_SPACE_BITS",
    "hash_to_id",
    "peer_id_for",
    "PGridOverlay",
    "PeerStorage",
]
