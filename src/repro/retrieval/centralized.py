"""The centralized single-term BM25 baseline.

Stands in for the Terrier engine the paper compares against in Figure 7: a
single-node inverted index over the whole collection with Okapi BM25
ranking and disjunctive (OR) query semantics.
"""

from __future__ import annotations

from ..corpus.collection import DocumentCollection
from ..corpus.querylog import Query
from ..index.bm25 import BM25Scorer
from ..index.inverted import LocalInvertedIndex
from ..errors import RetrievalError
from .ranking import RankedResult

__all__ = ["CentralizedBM25Engine"]


class CentralizedBM25Engine:
    """A whole-collection, single-node BM25 retrieval engine."""

    def __init__(
        self,
        collection: DocumentCollection,
        k1: float = 1.2,
        b: float = 0.75,
    ) -> None:
        if len(collection) == 0:
            raise RetrievalError(
                "cannot build a retrieval engine over an empty collection"
            )
        self.index = LocalInvertedIndex(collection)
        self.scorer = BM25Scorer(
            num_documents=self.index.num_documents(),
            average_doc_length=self.index.average_document_length(),
            k1=k1,
            b=b,
        )

    def search(self, query: Query, k: int = 20) -> list[RankedResult]:
        """Return the top-``k`` documents under BM25, OR semantics.

        Ties are broken by ascending document id for determinism.
        """
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        scores: dict[int, float] = {}
        dfs = {
            term: self.index.document_frequency(term)
            for term in query.terms
        }
        for term in query.terms:
            if term not in self.index:
                continue
            postings = self.index.posting_list(term)
            doc_ids, tfs, doc_lens, _, _ = postings.columns()
            for doc_id, tf, doc_len in zip(doc_ids, tfs, doc_lens):
                contribution = self.scorer.term_score(tf, doc_len, dfs[term])
                scores[doc_id] = scores.get(doc_id, 0.0) + contribution
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [
            RankedResult(doc_id=doc_id, score=score)
            for doc_id, score in ranked[:k]
        ]

    def matching_documents(self, query: Query) -> set[int]:
        """All documents containing at least one query term (the union
        answer set; used by tests and the query-log hit filter)."""
        matches: set[int] = set()
        for term in query.terms:
            if term in self.index:
                matches.update(self.index.posting_list(term).doc_ids())
        return matches
