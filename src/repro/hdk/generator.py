"""Per-peer iterative HDK/NDK key generation (paper Section 3.1).

Each peer computes keys over its local collection in rounds of increasing
key size.  Round 1 proposes every local term that is not globally very
frequent.  Round ``s`` proposes term sets of size ``s`` that

1. consist only of *globally non-discriminative* single terms (the only
   terms whose keys still need narrowing),
2. co-occur inside a proximity window of ``w`` tokens (Definition 2), and
3. — when redundancy filtering is on — have **all** their size-``s-1``
   sub-keys globally non-discriminative, so the proposed key is
   *intrinsically* discriminative if it turns out discriminative at all
   (Definition 5).

The global statuses that drive rounds ``s > 1`` are exactly what a peer
learns from the global index's insert acknowledgements and NDK
notifications: "The computation of the local size-s HDKs only requires
knowledge about the global document frequencies of the local size 1 and
size (s-1) NDKs" (Section 3.1).

The subsumption property guarantees locality is safe here: a key that is
locally non-discriminative is globally non-discriminative, and a local HDK
is either a global HDK or a global NDK — never redundant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..config import HDKParameters
from ..corpus.collection import DocumentCollection
from ..corpus.document import Document
from ..errors import KeyGenerationError
from ..index.postings import PostingList, Row

__all__ = ["GenerationRound", "LocalHDKGenerator"]


@dataclass
class GenerationRound:
    """The output of one local generation round.

    Attributes:
        key_size: the size ``s`` of the proposed keys.
        candidates: key -> local posting list (full, untruncated).
        enumerated_window_sets: number of distinct window term-sets
            examined (diagnostics; measures proximity-filter work).
    """

    key_size: int
    candidates: dict[frozenset[str], PostingList] = field(
        default_factory=dict
    )
    enumerated_window_sets: int = 0

    @property
    def total_postings(self) -> int:
        """Local postings across all candidates (IS_s numerator for the
        inserted-postings accounting of Figures 4-5)."""
        return sum(len(pl) for pl in self.candidates.values())


class LocalHDKGenerator:
    """Computes candidate keys and local posting lists for one peer.

    Args:
        collection: the peer's local document fraction ``D(P_i)``.
        params: shared HDK model parameters.
    """

    def __init__(
        self, collection: DocumentCollection, params: HDKParameters
    ) -> None:
        self.collection = collection
        self.params = params
        # The documents indexed so far, and term -> the flat (document
        # position, token position) pairs of its occurrences in them;
        # built on the first expansion (see _term_positions).
        self._documents: list[Document] = []
        self._positions: dict[str, tuple[int, ...]] = {}

    # -- round 1 -----------------------------------------------------------------

    def round_one(self, very_frequent_terms: frozenset[str]) -> GenerationRound:
        """Propose single-term keys with their local posting lists.

        Args:
            very_frequent_terms: globally very frequent terms (collection
                frequency above ``F_f``), excluded from the key vocabulary
                like stop words.
        """
        round_ = GenerationRound(key_size=1)
        rows: dict[frozenset[str], list[Row]] = {}
        for doc in self.collection:
            doc_len = len(doc)
            for term, tf in doc.term_frequencies().items():
                if term in very_frequent_terms:
                    continue
                rows.setdefault(frozenset((term,)), []).append(
                    (doc.doc_id, tf, (tf,), doc_len)
                )
        round_.candidates = _posting_lists(rows)
        return round_

    # -- rounds s > 1 -----------------------------------------------------------------

    def next_round(
        self,
        key_size: int,
        ndk_terms: frozenset[str],
        previous_ndk_keys: frozenset[frozenset[str]],
    ) -> GenerationRound:
        """Propose size-``key_size`` keys by expanding NDKs.

        Args:
            key_size: the size ``s`` of this round (2 <= s <= s_max).
            ndk_terms: single terms whose global single-term key is
                non-discriminative (the expansion vocabulary).
            previous_ndk_keys: size-``s-1`` keys known to be globally
                non-discriminative; with redundancy filtering on, every
                size-``s-1`` sub-key of a proposed key must be in this set.

        Raises:
            KeyGenerationError: when ``key_size`` violates size filtering.
        """
        if key_size < 2:
            raise KeyGenerationError(
                f"next_round requires key_size >= 2, got {key_size}"
            )
        if key_size > self.params.s_max:
            raise KeyGenerationError(
                f"key_size {key_size} exceeds s_max {self.params.s_max} "
                "(size filtering)"
            )
        round_ = GenerationRound(key_size=key_size)
        window_size = self.params.window_size
        check_subkeys = self.params.redundancy_filtering
        # Per-document accumulation keyed by candidate.
        rows: dict[frozenset[str], list[Row]] = {}
        for doc in self.collection:
            doc_candidates = self._document_candidates(
                doc.tokens,
                window_size,
                key_size,
                ndk_terms,
                previous_ndk_keys if check_subkeys else None,
                round_,
            )
            if not doc_candidates:
                continue
            doc_len = len(doc)
            for key in doc_candidates:
                sorted_terms = sorted(key)
                term_tfs = tuple(doc.term_frequency(t) for t in sorted_terms)
                rows.setdefault(key, []).append(
                    (doc.doc_id, min(term_tfs), term_tfs, doc_len)
                )
        round_.candidates = _posting_lists(rows)
        return round_

    def _document_candidates(
        self,
        tokens: tuple[str, ...],
        window_size: int,
        key_size: int,
        ndk_terms: frozenset[str],
        previous_ndk_keys: frozenset[frozenset[str]] | None,
        round_: GenerationRound,
    ) -> set[frozenset[str]]:
        """Enumerate this document's size-``key_size`` candidates.

        Slides the window, collects distinct NDK-term sets, and expands
        each set into its ``key_size``-subsets, applying the redundancy
        check when ``previous_ndk_keys`` is given.
        """
        candidates: set[frozenset[str]] = set()
        seen_window_sets: set[frozenset[str]] = set()
        n = len(tokens)
        effective_window = min(window_size, n) if n else 0
        if effective_window == 0:
            return candidates
        rejected: set[frozenset[str]] = set()
        for start in range(n - effective_window + 1):
            window = tokens[start : start + effective_window]
            window_terms = frozenset(
                t for t in window if t in ndk_terms
            )
            if len(window_terms) < key_size:
                continue
            if window_terms in seen_window_sets:
                continue
            seen_window_sets.add(window_terms)
            round_.enumerated_window_sets += 1
            for combo in itertools.combinations(
                sorted(window_terms), key_size
            ):
                key = frozenset(combo)
                if key in candidates or key in rejected:
                    continue
                if previous_ndk_keys is not None and not self._subkeys_all_ndk(
                    combo, previous_ndk_keys
                ):
                    rejected.add(key)
                    continue
                candidates.add(key)
        return candidates

    @staticmethod
    def _subkeys_all_ndk(
        sorted_terms: tuple[str, ...],
        previous_ndk_keys: frozenset[frozenset[str]],
    ) -> bool:
        """True iff every (size-1)-smaller sub-key is a known global NDK."""
        for drop_index in range(len(sorted_terms)):
            subkey = frozenset(
                sorted_terms[:drop_index] + sorted_terms[drop_index + 1 :]
            )
            if subkey not in previous_ndk_keys:
                return False
        return True

    # -- key expansion (incremental joins) -------------------------------------------

    def expansion_candidates(
        self,
        base_key: frozenset[str],
        ndk_terms: frozenset[str],
        subkey_is_ndk,
    ) -> dict[frozenset[str], PostingList]:
        """Expand one newly non-discriminative key by one term.

        This is the reaction to an NDK notification (Section 3.1): the
        peer grows ``base_key`` with every non-discriminative term that
        co-occurs with all of the key's terms inside a proximity window of
        its local documents, keeping — under redundancy filtering — only
        candidates whose every same-size sub-key is non-discriminative.

        Only the windows holding every base-key term can yield a
        candidate, so the term-position index picks those out: the work
        is proportional to where the key occurs, not to the peer's
        whole collection.  They are visited document by document and
        start by start in ascending order, exactly the windows (and the
        order) a full slide that skips the others would see.

        Args:
            base_key: the key that became globally non-discriminative.
            ndk_terms: current globally non-discriminative single terms.
            subkey_is_ndk: predicate answering whether a key of size
                ``len(base_key)`` is known globally non-discriminative
                (used for the redundancy check of the expanded keys).

        Returns:
            candidate key -> local posting list (full, untruncated).
        """
        if not base_key:
            raise KeyGenerationError("cannot expand the empty key")
        new_size = len(base_key) + 1
        if new_size > self.params.s_max:
            return {}
        index = self._term_positions()
        if not all(term in index for term in base_key):
            return {}
        occurrences = [_by_document(index[term]) for term in base_key]
        documents = self._documents
        window_size = self.params.window_size
        check = self.params.redundancy_filtering
        rows: dict[frozenset[str], list[Row]] = {}
        rejected: set[frozenset[str]] = set()
        # Each per-term map lists its documents in collection order.
        rarest = min(occurrences, key=len)
        for position in rarest:
            if not all(position in found for found in occurrences):
                continue
            doc = documents[position]
            tokens = doc.tokens
            effective_window = min(window_size, len(tokens))
            last_start = len(tokens) - effective_window
            # The window starting at s holds token p iff s <= p < s + w.
            starts: set[int] | None = None
            for found in occurrences:
                covering: set[int] = set()
                for token_position in found[position]:
                    covering.update(
                        range(
                            max(0, token_position - effective_window + 1),
                            min(token_position, last_start) + 1,
                        )
                    )
                starts = covering if starts is None else starts & covering
            doc_candidates: set[frozenset[str]] = set()
            for start in sorted(starts):
                window_terms = frozenset(
                    tokens[start : start + effective_window]
                )
                partners = (
                    window_terms & ndk_terms
                ) - base_key
                for partner in partners:
                    candidate = base_key | {partner}
                    if candidate in doc_candidates or candidate in rejected:
                        continue
                    if check and not self._expansion_subkeys_ndk(
                        candidate, base_key, subkey_is_ndk
                    ):
                        rejected.add(candidate)
                        continue
                    doc_candidates.add(candidate)
            if not doc_candidates:
                continue
            doc_len = len(doc)
            for candidate in doc_candidates:
                sorted_terms = sorted(candidate)
                term_tfs = tuple(doc.term_frequency(t) for t in sorted_terms)
                rows.setdefault(candidate, []).append(
                    (doc.doc_id, min(term_tfs), term_tfs, doc_len)
                )
        return _posting_lists(rows)

    def _term_positions(self) -> dict[str, tuple[int, ...]]:
        """Term -> its occurrences as flat ``(document position, token
        position, ...)`` pairs, in collection and token order.

        Built on the first expansion and kept for the peer's lifetime.
        A collection only grows by appending, so documents appended
        since the last call are indexed on the next one.  One flat tuple
        per term, not window term sets or per-document maps, keeps the
        index about as small as the token stream.
        """
        documents = self._documents
        index = self._positions
        if len(documents) == len(self.collection):
            return index
        added: dict[str, list[int]] = {}
        for doc in itertools.islice(self.collection, len(documents), None):
            position = len(documents)
            documents.append(doc)
            for token_position, term in enumerate(doc.tokens):
                found = added.get(term)
                if found is None:
                    added[term] = [position, token_position]
                else:
                    found += (position, token_position)
        for term, pairs in added.items():
            index[term] = index.get(term, ()) + tuple(pairs)
        return index

    @staticmethod
    def _expansion_subkeys_ndk(
        candidate: frozenset[str],
        base_key: frozenset[str],
        subkey_is_ndk,
    ) -> bool:
        """All size-``len(base_key)`` sub-keys of the candidate must be
        non-discriminative; the base key itself already is.  Dropping the
        added term gives the base key back, so the others are the
        candidate without one base-key term each."""
        for term in base_key:
            if not subkey_is_ndk(candidate - {term}):
                return False
        return True

    # -- reference computation (tests / exhaustiveness checks) ----------------------

    def local_document_frequency(self, key: frozenset[str]) -> int:
        """Exact local df of a key under proximity semantics: the number
        of local documents with at least one window containing all terms.

        Reference implementation (O(docs x windows)); used by tests to
        validate the incremental enumeration.
        """
        if not key:
            raise KeyGenerationError("empty key")
        window_size = self.params.window_size
        count = 0
        for doc in self.collection:
            if self._document_contains(doc.tokens, key, window_size):
                count += 1
        return count

    @staticmethod
    def _document_contains(
        tokens: tuple[str, ...], key: frozenset[str], window_size: int
    ) -> bool:
        n = len(tokens)
        effective_window = min(window_size, n) if n else 0
        if effective_window == 0:
            return False
        for start in range(n - effective_window + 1):
            window_terms = set(tokens[start : start + effective_window])
            if key <= window_terms:
                return True
        return False


def _by_document(pairs: tuple[int, ...]) -> dict[int, list[int]]:
    """Flat (document, token position) pairs -> {document -> token
    positions}, both in ascending order."""
    grouped: dict[int, list[int]] = {}
    for document, token_position in zip(pairs[::2], pairs[1::2]):
        found = grouped.get(document)
        if found is None:
            grouped[document] = [token_position]
        else:
            found.append(token_position)
    return grouped


def _posting_lists(
    rows: dict[frozenset[str], list[Row]],
) -> dict[frozenset[str], PostingList]:
    """One posting list per candidate key, in first-seen key order."""
    return {key: PostingList._from_rows(found) for key, found in rows.items()}
