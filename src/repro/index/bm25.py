"""The BM25 relevance scheme.

The paper compares its distributed engine against a centralized single-term
engine "using the best state-of-the-art BM25 relevance computation scheme".
This module implements Okapi BM25 with the standard parameters
(k1 = 1.2, b = 0.75) in a form usable both over a full
:class:`LocalInvertedIndex` (centralized baseline) and over fetched posting
payloads with externally supplied statistics (distributed ranking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import RetrievalError

__all__ = ["TermStats", "BM25Scorer"]


@dataclass(frozen=True)
class TermStats:
    """Global statistics of one term, as shipped to query peers.

    Attributes:
        term: the term itself.
        document_frequency: global ``df``.
        collection_frequency: global ``cf`` (informational; BM25 uses df).
    """

    term: str
    document_frequency: int
    collection_frequency: int


@dataclass(frozen=True)
class BM25Scorer:
    """Okapi BM25 scoring.

    Attributes:
        num_documents: collection size ``N``.
        average_doc_length: ``avgdl``.
        k1: term-frequency saturation (default 1.2).
        b: length-normalization strength (default 0.75).
    """

    num_documents: int
    average_doc_length: float
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.num_documents < 1:
            raise RetrievalError(
                f"num_documents must be >= 1, got {self.num_documents}"
            )
        if self.average_doc_length <= 0:
            raise RetrievalError(
                f"average_doc_length must be > 0, "
                f"got {self.average_doc_length}"
            )
        if self.k1 < 0 or self.b < 0 or self.b > 1:
            raise RetrievalError(
                f"invalid BM25 parameters k1={self.k1}, b={self.b}"
            )

    def idf(self, document_frequency: int) -> float:
        """Robertson-Sparck-Jones idf with +0.5 smoothing, floored at 0.

        The floor avoids negative contributions for terms occurring in
        more than half of the documents — the common practical variant.
        """
        if document_frequency < 0:
            raise RetrievalError(
                f"document_frequency must be >= 0, got {document_frequency}"
            )
        value = math.log(
            (self.num_documents - document_frequency + 0.5)
            / (document_frequency + 0.5)
        )
        return max(0.0, value)

    def length_norm(self, doc_len: int) -> float:
        """The document-length part of the BM25 denominator,
        ``k1 * (1 - b + b * doc_len / avgdl)`` (the same for every term
        of one document)."""
        return self.k1 * (
            1 - self.b + self.b * doc_len / self.average_doc_length
        )

    def term_score(
        self, tf: int, doc_len: int, document_frequency: int
    ) -> float:
        """BM25 contribution of one term occurrence profile."""
        if tf <= 0:
            return 0.0
        denominator = tf + self.length_norm(doc_len)
        return self.idf(document_frequency) * tf * (self.k1 + 1) / denominator

    def score_document(
        self,
        term_tfs: dict[str, int],
        doc_len: int,
        dfs: dict[str, int],
    ) -> float:
        """Score a document given its per-term frequencies for the query
        terms and the terms' global document frequencies.

        Terms absent from ``term_tfs`` contribute zero, matching
        disjunctive (OR) retrieval semantics.
        """
        score = 0.0
        for term, tf in term_tfs.items():
            df = dfs.get(term, 0)
            score += self.term_score(tf, doc_len, df)
        return score
