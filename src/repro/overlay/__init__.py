"""Super-peer overlay: hierarchical routing over the flat DHT.

The paper's HDK index runs on a flat structured overlay where every
query pays an O(log N) DHT walk per key.  This subsystem adds the
super-peer architecture of Ismail & Quafafou's routing work on top of
the *unchanged* DHT responsibility rule, in four pieces:

- :class:`SuperPeerTopology` (``topology.py``) — clusters leaf peers
  under super-peers by key-range affinity over the existing ``node_id``
  space, with join/leave re-clustering accounted as maintenance
  traffic;
- :class:`ClusterSummary` (``summaries.py``) — Bloom-compressed key
  summaries each super-peer holds for its cluster's key range, so
  definitely-absent keys are answered mid-path;
- :class:`HierarchicalRouter` (``routing.py``) — the
  :class:`repro.net.network.RoutingPolicy` implementation: one exchange
  along the bounded-hop path leaf → super-peer → home super-peer →
  owner, answered by the first node that can and retraced by the
  response, with an in-network DHT-path result cache per super-peer
  kept fresh by invalidate-on-insert;
- ``LoadController`` (``adaptation.py``) — the split/merge policy the
  router consults (the static overlay's observes nothing).

Because storage placement still follows ``overlay.responsible_peer``,
the ``hdk_super`` backend built on this subsystem returns byte-identical
top-k rankings to ``hdk`` — only hop counts and mid-path answering
change.
"""

from .routing import HierarchicalRouter, RouterStats
from .summaries import ClusterSummary
from .topology import Cluster, SuperPeerTopology

__all__ = [
    "Cluster",
    "ClusterSummary",
    "HierarchicalRouter",
    "RouterStats",
    "SuperPeerTopology",
]
