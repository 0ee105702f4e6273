"""Bloom-compressed cluster key summaries.

Each super-peer holds a summary of the key ids stored inside its
cluster's key range, reusing the Bloom machinery of the
``single_term_bloom`` baseline (:class:`repro.index.bloom.BloomFilter`
hashes integers — posting doc ids there, hashed key ids here).  A
summary answers "might this cluster store key K?":

- **no** is definitive — the home super-peer replies *not found*
  without the final hop to the responsible peer (the HDK lattice walk
  probes many never-indexed subsets, so this path is hot);
- **yes** may be a false positive — the lookup is simply forwarded, so
  correctness never depends on the filter.

No false negatives by construction: every insert routes through the
home super-peer, which adds the key id before any later lookup can
consult the filter, and re-clustering rebuilds summaries from the
member storages (covering churn handoffs that move keys between
ranges).  Bloom filters cannot be resized in place, so a summary that
outgrows its capacity reports :attr:`saturated` and the router rebuilds
it at double capacity.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

from ..index.bloom import BloomFilter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..net.network import P2PNetwork
    from .topology import Cluster

__all__ = [
    "ClusterSummary",
    "DEFAULT_SUMMARY_CAPACITY",
    "scan_cluster_key_ids",
    "summary_for_scan",
]

#: Fresh-cluster filter sizing (keys); doubled on saturation.
DEFAULT_SUMMARY_CAPACITY = 1024


class ClusterSummary:
    """A bounded-size membership summary over hashed key ids.

    Args:
        capacity: element count the filter is sized for.
        target_fpr: false-positive rate at ``capacity`` elements.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_SUMMARY_CAPACITY,
        target_fpr: float = 0.01,
    ) -> None:
        self.capacity = max(1, capacity)
        self._filter = BloomFilter.for_capacity(
            self.capacity, target_fpr=target_fpr
        )

    def add(self, key_id: int) -> None:
        """Record that the cluster stores ``key_id``.

        Idempotent: a key id the filter already claims is skipped, so
        the element count tracks *distinct* keys — every HDK key is
        inserted once per contributing peer, and counting repeats would
        saturate the filter (triggering rebuilds) without adding any
        information.  On a false positive the skip is still sound: the
        membership test already answers "may contain" for the id.  The
        test and the insert share one hash pass.
        """
        self._filter.add_if_absent(key_id)

    def __contains__(self, key_id: int) -> bool:
        """May-contain test (false positives possible, negatives not)."""
        return key_id in self._filter

    def __len__(self) -> int:
        """Number of key ids added."""
        return len(self._filter)

    @property
    def saturated(self) -> bool:
        """True once more keys were added than the filter was sized
        for — the false-positive rate is degrading and the owner should
        rebuild at a larger capacity."""
        return len(self._filter) > self.capacity

    def posting_equivalents(self) -> int:
        """Wire size in postings (the traffic unit maintenance exchange
        of this summary is charged at)."""
        return self._filter.posting_equivalents()

    def expected_fpr(self) -> float:
        """Expected false-positive rate at the current load."""
        return self._filter.expected_fpr()


def scan_cluster_key_ids(
    network: "P2PNetwork", cluster: "Cluster"
) -> list[tuple[int, list[int]]]:
    """Per-member key-id scan over ``cluster``'s *live* members.

    The raw material of every summary (re)build — full refreshes,
    saturation-triggered rebuilds, and the per-half rebuilds after an
    adaptive split or merge all start from this scan.  A crashed member
    contributes an empty row: its storage is gone, so its keys must not
    be claimed (false positives only waste a hop, but claiming keys for
    a member that *might* hold them is exactly what the filter is for).
    """
    rows: list[tuple[int, list[int]]] = []
    for member in cluster.members:
        if not network.is_live(member):
            rows.append((member, []))
            continue
        rows.append(
            (
                member,
                [entry.key_id for entry in network.storage_by_id(member)],
            )
        )
    return rows


def summary_for_scan(
    rows: list[tuple[int, list[int]]],
    minimum_capacity: int = DEFAULT_SUMMARY_CAPACITY,
) -> ClusterSummary:
    """The summary of a :func:`scan_cluster_key_ids` result: sized at 2x
    the scanned key count (headroom before the next saturation),
    floored at ``minimum_capacity``, holding every scanned id.  An id
    several members store (a key and its replica in one cluster) is
    hashed once: adding it again could not change the filter."""
    total = sum(len(key_ids) for _, key_ids in rows)
    summary = ClusterSummary(capacity=max(minimum_capacity, 2 * total))
    scanned = chain.from_iterable(key_ids for _, key_ids in rows)
    for key_id in dict.fromkeys(scanned):
        summary.add(key_id)
    return summary
