"""Distributed top-k retrieval over a single-term index.

The paper's related work cites progressive distributed top-k retrieval
([2] Balke, Nejdl, Siberski, Thaden, ICDE 2005) as "a viable solution for
bandwidth scalability, however the open problem is related to the
resulting retrieval performance".  This module implements the classic
Threshold Algorithm (TA) instantiation of that idea over the same
single-term DHT index the naive baseline uses:

- the peer responsible for each query term serves its posting list in
  descending *score contribution* order (sorted access), a batch at a
  time;
- every newly seen document is completed by random access to the other
  terms' entries (one posting-equivalent each);
- the initiator stops as soon as the current k-th best aggregate score
  reaches the threshold — the sum of the score frontiers — which
  guarantees the exact BM25 top-k.

Traffic is the number of postings served through sorted and random
access; for small ``k`` this is far below shipping full posting lists,
but it still grows with the collection (deeper frontiers are needed as
lists lengthen), unlike HDK's collection-independent bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus.querylog import Query
from ..errors import RetrievalError
from ..index.bm25 import BM25Scorer
from ..net.messages import MessageKind
from ..net.network import P2PNetwork
from .ranking import RankedResult
from .single_term import STEntry

__all__ = ["TopKOutcome", "DistributedTopKEngine"]


@dataclass
class TopKOutcome:
    """Result + traffic of one TA top-k query."""

    results: list[RankedResult]
    postings_transferred: int
    sorted_accesses: int
    random_accesses: int
    rounds: int
    #: Query terms whose responsible peer held a posting list.
    terms_found: int = 0


class DistributedTopKEngine:
    """Threshold-Algorithm top-k over the single-term DHT index.

    Requires :class:`repro.retrieval.single_term.SingleTermIndexer` runs
    to have populated the network.

    Args:
        network: the indexed network.
        num_documents: global document count (BM25).
        average_doc_length: global average document length (BM25).
        batch_size: postings fetched per term per round of sorted access.
    """

    def __init__(
        self,
        network: P2PNetwork,
        num_documents: int,
        average_doc_length: float,
        batch_size: int = 10,
    ) -> None:
        if batch_size < 1:
            raise RetrievalError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.network = network
        self.batch_size = batch_size
        self.scorer = BM25Scorer(
            num_documents=num_documents,
            average_doc_length=average_doc_length,
        )

    # -- internals ----------------------------------------------------------------

    def _entry_of(self, term: str) -> STEntry | None:
        target = self.network.responsible_peer_for(term)
        value = self.network.storage_by_id(target).get(term)
        return value if isinstance(value, STEntry) else None

    def _log_transfer(self, source: str, term: str, postings: int) -> None:
        target_id = self.network.responsible_peer_for(term)
        target_name = next(
            name
            for name in self.network.peer_names()
            if self.network.id_of(name) == target_id
        )
        self.network.transfer(
            target_name,
            source,
            postings=postings,
            kind=MessageKind.RESPONSE,
            key=f"topk({term})",
        )

    # -- public API ----------------------------------------------------------------

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> TopKOutcome:
        """Exact BM25 top-``k`` via the Threshold Algorithm."""
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        return self._threshold_algorithm(source_peer_name, query, k)

    def _threshold_algorithm(
        self, source_peer_name: str, query: Query, k: int
    ) -> TopKOutcome:
        entries: dict[str, STEntry] = {}
        for term in query.terms:
            entry = self._entry_of(term)
            if entry is not None:
                entries[term] = entry
        if not entries:
            return TopKOutcome(
                results=[],
                postings_transferred=0,
                sorted_accesses=0,
                random_accesses=0,
                rounds=0,
                terms_found=0,
            )
        dfs = {term: len(entry.postings) for term, entry in entries.items()}
        # Pre-sort each list by BM25 contribution (the responsible peer
        # maintains this order; sorting cost is local, not traffic).
        sorted_lists: dict[str, list[tuple[float, int, int, int]]] = {}
        for term, entry in entries.items():
            doc_ids, tfs, doc_lens, _, _ = entry.postings.columns()
            scored = [
                (
                    self.scorer.term_score(tf, doc_len, dfs[term]),
                    doc_id,
                    tf,
                    doc_len,
                )
                for doc_id, tf, doc_len in zip(doc_ids, tfs, doc_lens)
            ]
            scored.sort(key=lambda item: (-item[0], item[1]))
            sorted_lists[term] = scored
        positions = {term: 0 for term in entries}
        seen_scores: dict[int, float] = {}
        doc_term_scores: dict[int, dict[str, float]] = {}
        sorted_accesses = 0
        random_accesses = 0
        rounds = 0
        exhausted: set[str] = set()
        while len(exhausted) < len(entries):
            rounds += 1
            newly_seen: set[int] = set()
            for term in entries:
                if term in exhausted:
                    continue
                scored = sorted_lists[term]
                start = positions[term]
                batch = scored[start : start + self.batch_size]
                positions[term] = start + len(batch)
                if positions[term] >= len(scored):
                    exhausted.add(term)
                if batch:
                    sorted_accesses += len(batch)
                    self._log_transfer(
                        source_peer_name, term, len(batch)
                    )
                for score, doc_id, _tf, _dl in batch:
                    doc_term_scores.setdefault(doc_id, {})[term] = score
                    newly_seen.add(doc_id)
            # Random access: complete every newly seen document.
            for doc_id in newly_seen:
                known = doc_term_scores[doc_id]
                for term in entries:
                    if term in known:
                        continue
                    random_accesses += 1
                    self._log_transfer(source_peer_name, term, 1)
                    posting = entries[term].postings.get(doc_id)
                    known[term] = (
                        self.scorer.term_score(
                            posting.tf, posting.doc_len, dfs[term]
                        )
                        if posting is not None
                        else 0.0
                    )
                seen_scores[doc_id] = sum(known.values())
            # Threshold: sum of current frontier scores.
            threshold = 0.0
            for term in entries:
                scored = sorted_lists[term]
                position = positions[term]
                if position < len(scored):
                    threshold += scored[position][0]
            top = sorted(seen_scores.items(), key=lambda i: (-i[1], i[0]))
            if len(top) >= k and top[k - 1][1] >= threshold:
                break
        top = sorted(seen_scores.items(), key=lambda i: (-i[1], i[0]))[:k]
        return TopKOutcome(
            results=[
                RankedResult(doc_id=doc_id, score=score)
                for doc_id, score in top
            ],
            postings_transferred=sorted_accesses + random_accesses,
            sorted_accesses=sorted_accesses,
            random_accesses=random_accesses,
            rounds=rounds,
            terms_found=len(entries),
        )
