"""The distributed single-term baseline (the paper's "naive"/"ST" model).

Peers insert *full* single-term posting lists into the DHT; a query
fetches the complete posting list of every query term, so retrieval
traffic grows linearly with the collection — the behaviour Figure 6
contrasts with the HDK approach.

The baseline shares the network substrate and accounting with the HDK
engine so that posting counts are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus.collection import DocumentCollection
from ..corpus.querylog import Query
from ..errors import RetrievalError
from ..index.bm25 import BM25Scorer
from ..index.postings import Posting, PostingList
from ..net.network import P2PNetwork
from .ranking import DistributedRanker, RankedResult

__all__ = [
    "STSearchOutcome",
    "SingleTermIndexer",
    "SingleTermRetrievalEngine",
    "STEntry",
]


@dataclass
class STEntry:
    """A stored single-term entry: the full merged posting list."""

    term: str
    postings: PostingList

    def posting_count(self) -> int:
        return len(self.postings)


class SingleTermIndexer:
    """One peer's side of naive distributed single-term indexing."""

    def __init__(
        self,
        peer_name: str,
        collection: DocumentCollection,
        network: P2PNetwork,
    ) -> None:
        self.peer_name = peer_name
        self.collection = collection
        self.network = network
        self.inserted_postings = 0

    def index(self) -> None:
        """Insert the peer's full local posting lists into the DHT."""
        local: dict[str, list[Posting]] = {}
        for doc in self.collection:
            doc_len = len(doc)
            for term, tf in doc.term_frequencies().items():
                local.setdefault(term, []).append(
                    Posting(
                        doc_id=doc.doc_id,
                        tf=tf,
                        term_tfs=(tf,),
                        doc_len=doc_len,
                    )
                )
        for term, postings in local.items():
            posting_list = PostingList(postings)

            def merge(current: STEntry | None) -> STEntry:
                if current is None:
                    return STEntry(term=term, postings=posting_list)
                return STEntry(
                    term=term, postings=current.postings.union(posting_list)
                )

            self.network.insert(
                self.peer_name,
                term,
                merge,
                payload_postings=len(posting_list),
            )
            self.inserted_postings += len(posting_list)


@dataclass
class STSearchOutcome:
    """Result + traffic breakdown of one single-term (OR) query.

    Attributes:
        results: top-k ranked documents.
        postings_transferred: total postings shipped to the query peer.
        terms_found: query terms whose lookup returned a non-empty
            posting list (every lookup is *answered*, possibly empty —
            only non-empty answers count as found).
        term_dfs: per-term document frequency as observed by the query.
    """

    results: list[RankedResult]
    postings_transferred: int
    terms_found: int
    term_dfs: dict[str, int]


class SingleTermRetrievalEngine:
    """Query side of the distributed single-term baseline.

    Args:
        network: the shared network (already indexed).
        num_documents: global document count (for BM25).
        average_doc_length: global average document length (for BM25).
    """

    def __init__(
        self,
        network: P2PNetwork,
        num_documents: int,
        average_doc_length: float,
    ) -> None:
        self.network = network
        self.scorer = BM25Scorer(
            num_documents=num_documents,
            average_doc_length=average_doc_length,
        )

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> tuple[list[RankedResult], int]:
        """Fetch full posting lists for every query term and rank.

        Returns (top-k results, postings transferred) — the second element
        is the per-query retrieval traffic Figure 6 plots.  See
        :meth:`search_outcome` for the full breakdown.
        """
        outcome = self.search_outcome(source_peer_name, query, k)
        return outcome.results, outcome.postings_transferred

    def search_outcome(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> STSearchOutcome:
        """Like :meth:`search` but returns the full
        :class:`STSearchOutcome` including which terms were found."""
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        fetched: list[tuple[tuple[str, ...], PostingList]] = []
        term_dfs: dict[str, int] = {}
        transferred = 0
        for term in query.terms:
            entry: STEntry | None = self.network.lookup(
                source_peer_name,
                term,
                lambda value: len(value.postings)
                if value is not None
                else 0,
            )
            if entry is None:
                term_dfs[term] = 0
                continue
            term_dfs[term] = len(entry.postings)
            transferred += len(entry.postings)
            fetched.append(((term,), entry.postings))
        ranker = DistributedRanker(self.scorer, term_dfs)
        return STSearchOutcome(
            results=ranker.rank(fetched, k),
            postings_transferred=transferred,
            terms_found=sum(1 for df in term_dfs.values() if df > 0),
            term_dfs=term_dfs,
        )
