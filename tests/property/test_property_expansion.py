"""Key expansion against the full-window reference model.

``LocalHDKGenerator.expansion_candidates`` finds the windows that hold
every base-key term through a term-position index built on the first
expansion.  The reference below is the full slide it replaced: every
window of every document, each sliced into a term set.  On every drawn
world both must return the same candidate keys in the same order with
equal posting lists, on the call that builds the index and on later
calls that reuse (and, after an append, extend) it.  Order matters: the
candidates are inserted into the global index in it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.document import Document
from repro.hdk.generator import LocalHDKGenerator, _posting_lists

VOCABULARY = ["a", "b", "c", "d", "e", "f"]
#: Never occurs in a document: base keys holding it expand to nothing.
ABSENT = "x"


def reference_subkeys_ndk(candidate, base_key, subkey_is_ndk):
    """Every same-size sub-key of the candidate but the base key is NDK."""
    sorted_terms = tuple(sorted(candidate))
    for drop_index in range(len(sorted_terms)):
        subkey = frozenset(
            sorted_terms[:drop_index] + sorted_terms[drop_index + 1 :]
        )
        if subkey != base_key and not subkey_is_ndk(subkey):
            return False
    return True


def reference_expansion(collection, params, base_key, ndk_terms, subkey_is_ndk):
    """The full-window expansion: slide every window of every document."""
    new_size = len(base_key) + 1
    if new_size > params.s_max:
        return {}
    window_size = params.window_size
    check = params.redundancy_filtering
    rows = {}
    rejected = set()
    for doc in collection:
        tokens = doc.tokens
        n = len(tokens)
        effective_window = min(window_size, n) if n else 0
        if effective_window == 0:
            continue
        doc_candidates = set()
        for start in range(n - effective_window + 1):
            window_terms = frozenset(tokens[start : start + effective_window])
            if not base_key <= window_terms:
                continue
            partners = (window_terms & ndk_terms) - base_key
            for partner in partners:
                candidate = base_key | {partner}
                if candidate in doc_candidates or candidate in rejected:
                    continue
                if check and not reference_subkeys_ndk(
                    candidate, base_key, subkey_is_ndk
                ):
                    rejected.add(candidate)
                    continue
                doc_candidates.add(candidate)
        if not doc_candidates:
            continue
        doc_len = len(doc)
        frequencies = doc.term_frequencies()
        for candidate in doc_candidates:
            term_tfs = tuple(frequencies[t] for t in sorted(candidate))
            rows.setdefault(candidate, []).append(
                (doc.doc_id, min(term_tfs), term_tfs, doc_len)
            )
    return _posting_lists(rows)


# Empty documents, documents shorter than any window, and (through the
# small vocabulary) repeated terms are all in range.
documents = st.lists(st.sampled_from(VOCABULARY), max_size=14)
terms = st.sampled_from(VOCABULARY + [ABSENT])
base_keys = st.frozensets(terms, min_size=1, max_size=2)


@st.composite
def worlds(draw):
    params = HDKParameters(
        df_max=2,
        window_size=draw(st.integers(min_value=3, max_value=6)),
        s_max=3,
        redundancy_filtering=draw(st.booleans()),
    )
    corpus = draw(st.lists(documents, max_size=8))
    appended = draw(st.lists(documents, max_size=3))
    ndk_terms = draw(st.frozensets(terms))
    ndk_subkeys = draw(st.sets(st.frozensets(terms, min_size=1, max_size=2)))
    keys = draw(st.lists(base_keys, min_size=1, max_size=5))
    return params, corpus, appended, ndk_terms, ndk_subkeys, keys


def assert_same(actual, expected) -> None:
    assert list(actual) == list(expected)
    for key, postings in expected.items():
        assert actual[key] == postings


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_expansion_matches_full_window_reference(world):
    params, corpus, appended, ndk_terms, ndk_subkeys, keys = world
    collection = DocumentCollection(
        Document(doc_id=i, tokens=tuple(tokens))
        for i, tokens in enumerate(corpus)
    )
    generator = LocalHDKGenerator(collection, params)
    subkey_is_ndk = ndk_subkeys.__contains__
    for base_key in keys:
        assert_same(
            generator.expansion_candidates(base_key, ndk_terms, subkey_is_ndk),
            reference_expansion(
                collection, params, base_key, ndk_terms, subkey_is_ndk
            ),
        )
    # Collections grow by appending; the index must pick the new
    # documents up on the next expansion.
    for tokens in appended:
        collection.add(Document(doc_id=len(collection), tokens=tuple(tokens)))
    for base_key in keys:
        assert_same(
            generator.expansion_candidates(base_key, ndk_terms, subkey_is_ndk),
            reference_expansion(
                collection, params, base_key, ndk_terms, subkey_is_ndk
            ),
        )
