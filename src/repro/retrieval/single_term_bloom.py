"""Bloom-filter-optimized distributed single-term retrieval.

The optimization the paper's related work proposes for conjunctive
multi-term queries over a distributed single-term index (Reynolds &
Vahdat's Middleware'03 protocol, also used by ODISSEA and analyzed by
Zhang & Suel): instead of shipping full posting lists to the query peer,

1. the peer responsible for the *rarest* query term builds a Bloom
   filter of its posting list and sends it to the peer responsible for
   the next term (traffic: the filter, a constant factor smaller than
   the list);
2. that peer pre-intersects its list through the filter and forwards the
   surviving candidate postings (true matches plus Bloom false
   positives) — iterating through all query terms;
3. the final candidates return to the first peer, which removes false
   positives exactly, and the result travels to the query initiator.

Traffic still grows linearly with the collection (both the filter and
the candidate sets scale with posting-list lengths); the point of this
baseline is to quantify the paper's claim that even the optimized
single-term approach is outscaled by HDK indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus.querylog import Query
from ..errors import RetrievalError
from ..index.bloom import BloomFilter
from ..index.bm25 import BM25Scorer
from ..net.accounting import Phase
from ..net.messages import MessageKind
from ..net.network import P2PNetwork
from .ranking import DistributedRanker, RankedResult
from .single_term import STEntry

__all__ = ["BloomSearchOutcome", "BloomSingleTermEngine"]


@dataclass
class BloomSearchOutcome:
    """Result + traffic breakdown of one Bloom-optimized AND query."""

    results: list[RankedResult]
    postings_transferred: int
    filter_posting_equivalents: int
    candidate_postings: int
    false_positives_removed: int
    #: Query terms with a non-empty indexed posting list; under AND
    #: semantics the protocol aborts at the first unknown term, so on an
    #: empty result this counts the terms found before the abort.
    terms_found: int = 0
    #: Query terms actually looked up: all of them on a completed run,
    #: ``terms_found + 1`` when the protocol aborted at an unknown term.
    terms_probed: int = 0


class BloomSingleTermEngine:
    """Conjunctive (AND) retrieval over a single-term DHT index using
    Bloom-filter pre-intersection.

    Requires the network to be indexed by
    :class:`repro.retrieval.single_term.SingleTermIndexer` first (the
    entries are shared).

    Args:
        network: the indexed network.
        num_documents: global document count (BM25).
        average_doc_length: global average document length (BM25).
        target_fpr: Bloom filter false-positive target.
    """

    def __init__(
        self,
        network: P2PNetwork,
        num_documents: int,
        average_doc_length: float,
        target_fpr: float = 0.01,
    ) -> None:
        if not 0.0 < target_fpr < 1.0:
            raise RetrievalError(
                f"target_fpr must be in (0, 1), got {target_fpr}"
            )
        self.network = network
        self.target_fpr = target_fpr
        self.scorer = BM25Scorer(
            num_documents=num_documents,
            average_doc_length=average_doc_length,
        )

    # -- internals -----------------------------------------------------------------

    def _entry_of(self, term: str) -> STEntry | None:
        """Read a term's entry without logging traffic (the protocol
        below logs the messages it actually sends)."""
        target = self.network.responsible_peer_for(term)
        for storage in self.network.storages():
            if storage.peer_id == target:
                value = storage.get(term)
                return value if isinstance(value, STEntry) else None
        return None

    def _peer_name_for(self, term: str) -> str:
        target = self.network.responsible_peer_for(term)
        for name in self.network.peer_names():
            if self.network.id_of(name) == target:
                return name
        raise RetrievalError(
            f"no registered peer is responsible for {term!r}"
        )  # pragma: no cover - network invariant

    # -- public API -----------------------------------------------------------------

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> BloomSearchOutcome:
        """Run the Bloom-optimized conjunctive protocol for ``query``.

        Returns ranked documents containing *all* query terms and the
        full traffic breakdown.  An unknown query term yields an empty
        result (AND semantics) at zero posting cost.
        """
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        # This thread's messages only: a join running in another thread
        # keeps its own phase.
        with self.network.accounting.phase_scope(Phase.RETRIEVAL):
            return self._conjunctive_search(source_peer_name, query, k)

    def _conjunctive_search(
        self, source_peer_name: str, query: Query, k: int
    ) -> BloomSearchOutcome:
        entries: dict[str, STEntry] = {}
        for term in query.terms:
            entry = self._entry_of(term)
            if entry is None:
                return BloomSearchOutcome(
                    results=[],
                    postings_transferred=0,
                    filter_posting_equivalents=0,
                    candidate_postings=0,
                    false_positives_removed=0,
                    terms_found=len(entries),
                    terms_probed=len(entries) + 1,
                )
            entries[term] = entry
        # Visit terms rarest-first: the first filter is smallest and the
        # candidate stream shrinks fastest.
        order = sorted(query.terms, key=lambda t: len(entries[t].postings))
        first_term = order[0]
        first_entry = entries[first_term]
        filter_ = BloomFilter.for_capacity(
            max(1, len(first_entry.postings)), self.target_fpr
        )
        filter_.add_all(first_entry.postings.doc_ids())
        filter_cost = filter_.posting_equivalents()
        transferred = 0
        previous_peer = self._peer_name_for(first_term)
        # Step 1: ship the filter along the term chain (each hop pays the
        # filter size once; real protocols re-filter, we keep the first
        # filter which is the rarest list's).
        candidates: list[int] | None = None
        false_positives = 0
        for term in order[1:]:
            peer = self._peer_name_for(term)
            self.network.transfer(
                previous_peer,
                peer,
                postings=filter_cost,
                kind=MessageKind.RESPONSE,
                key=f"bloom({first_term})",
            )
            transferred += filter_cost
            entry = entries[term]
            surviving = [
                doc_id
                for doc_id in entry.postings.doc_ids()
                if doc_id in filter_
            ]
            if candidates is None:
                candidates = surviving
            else:
                surviving_ids = set(surviving)
                candidates = [d for d in candidates if d in surviving_ids]
            previous_peer = peer
        if candidates is None:
            # Single-term query: the full list ships to the source.
            candidates = first_entry.postings.doc_ids()
        # Step 2: candidates return to the first peer for exact
        # verification (removes Bloom false positives).
        first_peer = self._peer_name_for(first_term)
        self.network.transfer(
            previous_peer,
            first_peer,
            postings=len(candidates),
            kind=MessageKind.RESPONSE,
            key="bloom-candidates",
        )
        transferred += len(candidates)
        exact_ids = set(first_entry.postings.doc_ids())
        verified = [d for d in candidates if d in exact_ids]
        false_positives = len(candidates) - len(verified)
        # Step 3: the verified result travels to the query initiator.
        self.network.transfer(
            first_peer,
            source_peer_name,
            postings=len(verified),
            kind=MessageKind.RESPONSE,
            key="bloom-result",
        )
        transferred += len(verified)
        results = self._rank(verified, entries, query, k)
        return BloomSearchOutcome(
            results=results,
            postings_transferred=transferred,
            filter_posting_equivalents=filter_cost,
            candidate_postings=len(candidates),
            false_positives_removed=false_positives,
            terms_found=len(entries),
            terms_probed=len(query.terms),
        )

    def _rank(
        self,
        verified: list[int],
        entries: dict[str, STEntry],
        query: Query,
        k: int,
    ) -> list[RankedResult]:
        """BM25-rank the conjunctive matches with full term evidence."""
        term_dfs = {
            term: len(entry.postings) for term, entry in entries.items()
        }
        match_ids = set(verified)
        fetched = [
            ((term,), entry.postings.filter_docs(match_ids.__contains__))
            for term, entry in entries.items()
        ]
        ranker = DistributedRanker(self.scorer, term_dfs)
        return ranker.rank(fetched, k)
