"""HDK retrieval: the query-lattice walk (paper Section 3.2).

A query is treated as a one-document collection; the engine identifies, in
the lattice of the query's term subsets (size filtering caps the depth at
``s_max``), the term sets that exist in the global index as HDKs or NDKs:

- subsets of size 1 are looked up first;
- a subset found **discriminative** contributes its full posting list and
  is *not* expanded — any superset is subsumed by it (its answer set is a
  subset, recoverable by local post-processing);
- a subset found **non-discriminative** contributes its truncated
  top-``DF_max`` posting list and *is* expanded: larger subsets built from
  it may be intrinsically discriminative and thus indexed;
- a subset absent from the index is not expanded (by construction of the
  key vocabulary no superset can be indexed either).

The fetched posting lists are merged by set union and ranked by the
distributed BM25-style ranker.  The number of keys looked up is the
``n_k`` of the scalability analysis, bounded by ``2^|q| - 1`` and in
practice close to 4 for web queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..config import HDKParameters
from ..corpus.querylog import Query
from ..errors import RetrievalError
from ..index.bm25 import BM25Scorer
from ..index.global_index import GlobalKeyIndex, KeyStatus
from ..index.postings import PostingList
from .ranking import DistributedRanker, RankedResult

__all__ = ["HDKSearchResult", "HDKRetrievalEngine"]


@dataclass
class HDKSearchResult:
    """The outcome of one HDK query.

    Attributes:
        query: the executed query.
        results: top-k ranked documents.
        keys_looked_up: ``n_k`` — lattice subsets sent to the index.
        keys_found: how many lookups hit an indexed key.
        postings_transferred: total postings fetched (Figure 6's y-axis).
        dk_keys: lookups that returned discriminative keys.
        ndk_keys: lookups that returned non-discriminative (truncated)
            keys.
    """

    query: Query
    results: list[RankedResult] = field(default_factory=list)
    keys_looked_up: int = 0
    keys_found: int = 0
    postings_transferred: int = 0
    dk_keys: int = 0
    ndk_keys: int = 0


class HDKRetrievalEngine:
    """Query side of the HDK model.

    The engine keeps one piece of state between queries: the BM25
    scorer and its document-length normalization table for the current
    *statistics generation* — ``(num_documents, average_document_length)``
    of the global index.  Both are rebuilt when the generation changes
    (``index()`` or a join); a query only builds its ``term -> df`` map.

    Args:
        global_index: the populated global key index.
        params: the HDK parameters used at indexing time.
    """

    def __init__(
        self, global_index: GlobalKeyIndex, params: HDKParameters
    ) -> None:
        self.global_index = global_index
        self.params = params
        #: ``(generation, scorer, doc length -> length norm)``; swapped
        #: whole, so concurrent queries never see a torn state.
        self._scoring: (
            tuple[tuple[int, float], BM25Scorer, dict[int, float]] | None
        ) = None

    def search(
        self, source_peer_name: str, query: Query, k: int = 20
    ) -> HDKSearchResult:
        """Execute ``query`` from ``source_peer_name``; returns the ranked
        top-``k`` with full traffic accounting."""
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        result = HDKSearchResult(query=query)
        # Lattice nodes are tuples of sorted terms: combinations of the
        # sorted query terms come out canonical, so a node's sub-nodes
        # are slices and a frozenset is built only for the lookup.
        fetched: list[tuple[tuple[str, ...], PostingList]] = []
        # Subsets whose status allows supersets to be indexed.
        expandable: set[tuple[str, ...]] = set()
        query_terms = sorted(query.term_set)
        max_size = min(len(query_terms), self.params.s_max)
        for size in range(1, max_size + 1):
            ndk_keys_before = result.ndk_keys
            for subset in self._candidate_subsets(
                query_terms, size, expandable
            ):
                entry = self.global_index.lookup(
                    source_peer_name, frozenset(subset)
                )
                result.keys_looked_up += 1
                if entry is None:
                    continue
                result.keys_found += 1
                result.postings_transferred += len(entry.postings)
                # The answer arrives here: a spilled list loads now.
                fetched.append((subset, entry.postings.resident()))
                if entry.status is KeyStatus.NON_DISCRIMINATIVE:
                    result.ndk_keys += 1
                    expandable.add(subset)
                else:
                    result.dk_keys += 1
            if result.ndk_keys == ndk_keys_before:
                # Nothing of this size expands, so no larger subset
                # can be a candidate.
                break
        result.results = self._rank(fetched, query, k)
        return result

    def _candidate_subsets(
        self,
        query_terms: list[str],
        size: int,
        expandable: set[tuple[str, ...]],
    ) -> list[tuple[str, ...]]:
        """Subsets of ``size`` worth looking up, as sorted term tuples in
        lattice order.

        Size-1 subsets are always candidates.  A larger subset is a
        candidate only when **all** its immediate sub-subsets are
        expandable (returned NDK): mirrors redundancy filtering — indexed
        keys of size s have all (s-1)-sub-keys non-discriminative — so no
        other subset can exist in the index.  When redundancy filtering is
        off, any subset with at least one expandable sub-subset qualifies.
        """
        if size == 1:
            return [(term,) for term in query_terms]
        test = all if self.params.redundancy_filtering else any
        return [
            combo
            for combo in itertools.combinations(query_terms, size)
            if test(
                combo[:i] + combo[i + 1 :] in expandable for i in range(size)
            )
        ]

    def _rank(
        self,
        fetched: list[tuple[tuple[str, ...], PostingList]],
        query: Query,
        k: int,
    ) -> list[RankedResult]:
        """Merge (set union) and rank with the distributed ranker."""
        if not fetched:
            return []
        index = self.global_index
        # Frequencies before totals: a join beside this search grows the
        # totals first, so no frequency read here exceeds the count.
        term_dfs = {
            term: index.term_document_frequency(term)
            for term in query.terms
        }
        generation = (index.num_documents, index.average_document_length)
        scoring = self._scoring
        if scoring is None or scoring[0] != generation:
            scorer = BM25Scorer(
                num_documents=max(1, generation[0]),
                average_doc_length=generation[1] or 1.0,
            )
            scoring = self._scoring = (generation, scorer, {})
        ranker = DistributedRanker(scoring[1], term_dfs, norms=scoring[2])
        return ranker.rank(fetched, k)
