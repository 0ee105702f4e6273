"""Distributed result ranking.

The prototype "integrates a solution for distributed content-based
ranking": posting payloads carry per-term frequencies and document
lengths, and the query peer combines them with globally published term
statistics to compute BM25-style scores without fetching documents.  The
:class:`DistributedRanker` reproduces that final aggregation step.

Scoring state lives as long as the statistics it derives from: a ranker
reads the caller's ``term -> df`` map without copying it, takes each
term's idf once per query, and reads length normalizations from a
``doc length -> norm`` table the caller may share across every query of
one statistics generation (:class:`repro.retrieval.hdk_engine.
HDKRetrievalEngine` keeps one per ``(num_documents, avgdl)``).  Results
are plain named tuples.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import RetrievalError
from ..index.bm25 import BM25Scorer
from ..index.postings import PostingList

__all__ = ["RankedResult", "DistributedRanker"]


class RankedResult(NamedTuple):
    """One ranked document (immutable)."""

    doc_id: int
    score: float


class DistributedRanker:
    """Aggregates fetched postings into a BM25-ranked result list.

    Args:
        scorer: a BM25 scorer configured with the *global* collection
            statistics (document count, average length) published during
            indexing.
        term_dfs: global document frequency of each query term (read,
            never copied or mutated).
        norms: ``doc length -> scorer.length_norm(doc length)`` table to
            read and fill; share one across rankers built on the same
            scorer.  A fresh table when omitted.
    """

    def __init__(
        self,
        scorer: BM25Scorer,
        term_dfs: dict[str, int],
        norms: dict[int, float] | None = None,
    ) -> None:
        self.scorer = scorer
        self.term_dfs = term_dfs
        self.norms: dict[int, float] = {} if norms is None else norms

    def rank(
        self,
        fetched: list[tuple[tuple[str, ...], PostingList]],
        k: int,
    ) -> list[RankedResult]:
        """Rank the union of fetched postings.

        Args:
            fetched: (key terms in sorted order, posting list) pairs, one
                per key the lattice walk found; a document may appear
                under several keys, in which case its per-term evidence
                is merged.
            k: result list depth.

        Returns:
            Top-``k`` :class:`RankedResult`, ties broken by ascending
            document id.
        """
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        # doc -> term -> tf, merged across keys (the largest tf wins;
        # frequencies are non-negative).  Terms keep the order they were
        # first seen in: the score below sums in that order.  doc_lens
        # gains its keys in evidence's order.
        evidence: dict[int, dict[str, int]] = {}
        doc_lens: dict[int, int] = {}
        for key_terms, postings in fetched:
            doc_ids, tfs, lengths, offsets, term_tfs = postings.columns()
            bare_term = key_terms[0] if len(key_terms) == 1 else None
            for row, (doc_id, doc_len) in enumerate(zip(doc_ids, lengths)):
                term_map = evidence.get(doc_id)
                if term_map is None:
                    term_map = evidence[doc_id] = {}
                    doc_lens[doc_id] = doc_len
                elif doc_len > doc_lens[doc_id]:
                    doc_lens[doc_id] = doc_len
                index = offsets[row]
                if offsets[row + 1] > index:
                    for term in key_terms:
                        tf = term_tfs[index]
                        index += 1
                        if tf > term_map.get(term, -1):
                            term_map[term] = tf
                elif bare_term is not None:
                    tf = tfs[row]
                    if tf > term_map.get(bare_term, -1):
                        term_map[bare_term] = tf
        # BM25Scorer.score_document inlined, operation for operation (so
        # every score keeps its exact bits), with the things that do not
        # vary hoisted: a term's idf is taken once per call, a length
        # normalization once per scoring generation.
        scorer = self.scorer
        k1_plus_1 = scorer.k1 + 1
        norms = self.norms
        idfs = {term: scorer.idf(df) for term, df in self.term_dfs.items()}
        ranked: list[tuple[float, int]] = []
        for (doc_id, term_map), doc_len in zip(
            evidence.items(), doc_lens.values()
        ):
            try:
                norm = norms[doc_len]
            except KeyError:
                norm = norms[doc_len] = scorer.length_norm(doc_len)
            score = 0.0
            for term, tf in term_map.items():
                if tf > 0:
                    try:
                        idf = idfs[term]
                    except KeyError:  # a term without a published df
                        idf = idfs[term] = scorer.idf(0)
                    score += idf * tf * k1_plus_1 / (tf + norm)
            ranked.append((-score, doc_id))
        # Tuples sort in C; only the k survivors become results.
        ranked.sort()
        return [
            RankedResult(doc_id, -negated) for negated, doc_id in ranked[:k]
        ]
