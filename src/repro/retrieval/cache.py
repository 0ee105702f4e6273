"""Query-result caching.

Both [15] and [17] in the paper's related work propose caching (alongside
top-k joins and Bloom filters) to reduce search cost for repeated
queries.  :class:`QueryResultCache` is a payload-agnostic LRU keyed by
the query's canonical term set; :class:`repro.engine.service.SearchService`
uses it to serve repeated queries locally at zero network cost, whatever
backend produced the result.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from ..corpus.querylog import Query
from ..errors import RetrievalError

__all__ = ["CacheStats", "QueryResultCache"]


@dataclass
class CacheStats:
    """Hit/miss counters plus the traffic the cache avoided."""

    hits: int = 0
    misses: int = 0
    postings_saved: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _CachedPayload:
    payload: Any
    k: int
    postings: int


class QueryResultCache:
    """A payload-agnostic LRU query cache.

    Keys are canonical term sets; payloads are whatever the caller
    computed for the query (any backend's response type).  A cached
    payload is served only when it was computed with a depth of at least
    the requested ``k`` (a deeper ranking prefix-matches a shallower
    request); shallower entries count as misses and are replaced by
    :meth:`put`.

    Args:
        capacity: maximum number of cached query results.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise RetrievalError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[frozenset[str], _CachedPayload] = (
            OrderedDict()
        )
        self.stats = CacheStats()

    def get(self, query: Query, k: int) -> Any | None:
        """Return the cached payload for ``query`` at depth >= ``k``,
        or ``None`` (both outcomes update the hit/miss counters)."""
        payload = self.try_hit(query, k)
        if payload is None:
            self.stats.misses += 1
        return payload

    def try_hit(self, query: Query, k: int) -> Any | None:
        """Like :meth:`get`, but an absent or too-shallow entry counts
        *nothing* — for a caller that keeps its own miss counter (the
        super-peer path caches count one miss per lookup, not one per
        cache probed)."""
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        entry = self._entries.get(query.term_set)
        if entry is not None and entry.k >= k:
            self._entries.move_to_end(query.term_set)
            self.stats.hits += 1
            self.stats.postings_saved += entry.postings
            return entry.payload
        return None

    def put(
        self,
        query: Query,
        k: int,
        payload: Any,
        postings_transferred: int = 0,
    ) -> None:
        """Cache ``payload`` for ``query``; ``postings_transferred`` is
        the traffic a future hit will have saved (for the stats)."""
        self._entries[query.term_set] = _CachedPayload(
            payload=payload, k=k, postings=postings_transferred
        )
        self._entries.move_to_end(query.term_set)
        if len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def remove(self, term_set: frozenset[str]) -> bool:
        """Drop the single entry cached under ``term_set``, if any.

        The targeted form of :meth:`invalidate`: in-network path caches
        (:mod:`repro.overlay`) evict exactly the key an insert just
        superseded instead of flushing everything.

        Returns True when an entry was removed.
        """
        return self._entries.pop(term_set, None) is not None

    def invalidate(self) -> None:
        """Drop every cached entry (call after the index changes)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
