"""Bounded LRU cache over decoded posting-list blocks.

The segment store pays a disk read + varint decode for every cold key;
this cache keeps the most recently used decoded lists in RAM under a
budget, so hot keys are served without touching the segments.

The budget is denominated in **encoded bytes** (``capacity_bytes``) —
what the lists actually cost on disk and on the wire.  Both occupancy
views (:attr:`held_postings`, the paper's unit, and :attr:`held_bytes`)
are tracked.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, NamedTuple

from ..errors import StoreError
from ..index.codec import posting_list_wire_size
from ..index.postings import PostingList

__all__ = ["BlockCache", "BlockCacheStats"]


@dataclass
class BlockCacheStats:
    """Hit/miss/eviction counters plus current occupancy."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Block(NamedTuple):
    postings: PostingList
    pcost: int  # postings held (floored at 1, as held_postings reports)
    bcost: int  # encoded bytes (caller-provided frame length, or estimated)


class BlockCache:
    """LRU over decoded blocks, bounded in encoded bytes.

    Thread-safe: LRU order, occupancy, and counters are guarded by an
    internal lock, and eviction makes room *before* a new block becomes
    visible, so occupancy never exceeds the budget at any observable
    instant under concurrent readers.

    Args:
        capacity_bytes: bound by total encoded bytes held; ``0``
            disables caching (every get is a miss, puts are dropped).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise StoreError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}"
            )
        self.capacity = capacity_bytes
        self._blocks: OrderedDict[Hashable, _Block] = OrderedDict()
        self._held_postings = 0
        self._held_bytes = 0
        self._lock = threading.Lock()
        self.stats = BlockCacheStats()

    def _block(self, postings: PostingList, nbytes: int | None) -> _Block:
        return _Block(
            postings=postings,
            pcost=max(1, len(postings)),
            bcost=(
                nbytes
                if nbytes is not None
                else posting_list_wire_size(postings)
            ),
        )

    @property
    def held_postings(self) -> int:
        """Postings currently held across cached blocks."""
        return self._held_postings

    @property
    def held_bytes(self) -> int:
        """Encoded bytes currently held across cached blocks."""
        return self._held_bytes

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, block_id: Hashable) -> PostingList | None:
        """Return the cached block, refreshing its recency, or None."""
        with self._lock:
            block = self._blocks.get(block_id)
            if block is None:
                self.stats.misses += 1
                return None
            self._blocks.move_to_end(block_id)
            self.stats.hits += 1
            return block.postings

    def put(
        self,
        block_id: Hashable,
        postings: PostingList,
        nbytes: int | None = None,
    ) -> None:
        """Insert (or refresh) a block, evicting LRU blocks over budget.

        ``nbytes`` is the block's exact encoded frame length when the
        caller knows it (the store's directory does); otherwise the
        byte cost is estimated by re-encoding the list.
        """
        if self.capacity == 0:
            return
        block = self._block(postings, nbytes)
        cost = block.bcost
        with self._lock:
            existing = self._blocks.pop(block_id, None)
            if existing is not None:
                self._held_postings -= existing.pcost
                self._held_bytes -= existing.bcost
            if cost > self.capacity:
                # A single block larger than the whole budget can never
                # be kept — reject it up front rather than flushing
                # every resident block on each read of an oversized key
                # (and without counting phantom evictions: nothing left).
                return
            # Make room first: the budget must hold even transiently.
            while self._held_bytes + cost > self.capacity and self._blocks:
                _, evicted = self._blocks.popitem(last=False)
                self._held_postings -= evicted.pcost
                self._held_bytes -= evicted.bcost
                self.stats.evictions += 1
            self._blocks[block_id] = block
            self._held_postings += block.pcost
            self._held_bytes += block.bcost

    def invalidate(self, block_id: Hashable) -> None:
        """Drop one block if present (stale after an overwrite)."""
        with self._lock:
            block = self._blocks.pop(block_id, None)
            if block is not None:
                self._held_postings -= block.pcost
                self._held_bytes -= block.bcost

    def clear(self) -> None:
        """Drop every block."""
        with self._lock:
            self._blocks.clear()
            self._held_postings = 0
            self._held_bytes = 0
