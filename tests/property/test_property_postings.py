"""Property-based tests for posting-list operations.

:class:`ReferencePostingList` below is the list-of-:class:`Posting`
implementation the columnar :class:`PostingList` replaced, kept as the
model: every operation must return exactly the postings the model
returns — doc ids *and* payloads — and the codec must decode exactly
what the model's decoder decodes, or fail with the same error type.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.codec import (
    decode_posting_list,
    decode_varint,
    encode_posting_list,
    posting_list_wire_size,
)
from repro.index.postings import Posting, PostingList


class ReferencePostingList:
    """A sorted Python list of validated :class:`Posting` objects."""

    def __init__(self, postings=()):
        items = sorted(postings, key=lambda p: p.doc_id)
        for left, right in zip(items, items[1:]):
            if left.doc_id == right.doc_id:
                raise IndexError_(
                    f"duplicate doc_id {left.doc_id} in posting list"
                )
        self.postings = items

    @classmethod
    def _of(cls, postings):
        result = cls.__new__(cls)
        result.postings = postings
        return result

    def get(self, doc_id):
        for posting in self.postings:
            if posting.doc_id == doc_id:
                return posting
        return None

    def union(self, other):
        merged = []
        left, right = self.postings, other.postings
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i].doc_id < right[j].doc_id:
                merged.append(left[i])
                i += 1
            elif left[i].doc_id > right[j].doc_id:
                merged.append(right[j])
                j += 1
            else:
                a, b = left[i], right[j]
                if len(a.term_tfs) != len(b.term_tfs):
                    richer = a if len(a.term_tfs) > len(b.term_tfs) else b
                else:
                    richer = a if a.tf >= b.tf else b
                merged.append(richer)
                i += 1
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return self._of(merged)

    def intersect(self, other):
        theirs = {p.doc_id for p in other.postings}
        return self._of([p for p in self.postings if p.doc_id in theirs])

    def filter_docs(self, keep):
        return self._of([p for p in self.postings if keep(p.doc_id)])

    def truncate_top(self, limit, policy="tf"):
        if len(self.postings) <= limit:
            return ReferencePostingList(self.postings)
        if policy == "tf":
            ranked = sorted(self.postings, key=lambda p: (-p.tf, p.doc_id))
        else:
            ranked = sorted(
                self.postings,
                key=lambda p: (
                    -(p.tf / p.doc_len if p.doc_len else 0.0),
                    p.doc_id,
                ),
            )
        return ReferencePostingList(ranked[:limit])


def reference_decode(data):
    """The varint-at-a-time decoder the one-pass decoder replaced."""
    count, offset = decode_varint(data, 0)
    postings = []
    doc_id = 0
    for _ in range(count):
        delta, offset = decode_varint(data, offset)
        doc_id += delta
        tf, offset = decode_varint(data, offset)
        doc_len, offset = decode_varint(data, offset)
        n_terms, offset = decode_varint(data, offset)
        term_tfs = []
        for _ in range(n_terms):
            term_tf, offset = decode_varint(data, offset)
            term_tfs.append(term_tf)
        postings.append(
            Posting(
                doc_id=doc_id,
                tf=tf,
                term_tfs=tuple(term_tfs),
                doc_len=doc_len,
            )
        )
    if offset != len(data):
        raise IndexError_(
            f"trailing bytes after posting list: {len(data) - offset}"
        )
    return ReferencePostingList(postings)


@st.composite
def posting_lists(draw, max_docs=40):
    doc_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=500),
            unique=True,
            max_size=max_docs,
        )
    )
    postings = []
    for doc_id in doc_ids:
        tf = draw(st.integers(min_value=1, max_value=50))
        doc_len = draw(st.integers(min_value=0, max_value=300))
        postings.append(Posting(doc_id=doc_id, tf=tf, doc_len=doc_len))
    return PostingList(postings)


WIDTHS = st.integers(min_value=0, max_value=3)


@st.composite
def rich_postings(draw, max_docs=25, max_doc_id=40, width=None):
    """Postings with few distinct doc ids, so two lists collide often
    and both union tie-breaks (width, then tf) get exercised; values
    cross the one-byte varint bound.  Every posting has ``width`` term
    tfs (a key's postings do), or a drawn width shared by all of them,
    or one width each."""
    doc_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_doc_id),
            unique=True,
            max_size=max_docs,
        )
    )
    if width is None:
        width = draw(st.one_of(st.none(), WIDTHS))
    big = st.integers(min_value=1, max_value=300)
    postings = []
    for doc_id in doc_ids:
        own_width = draw(WIDTHS) if width is None else width
        postings.append(
            Posting(
                doc_id=doc_id,
                tf=draw(st.integers(min_value=1, max_value=4) | big),
                term_tfs=tuple(draw(big) for _ in range(own_width)),
                doc_len=draw(st.sampled_from([0, 3, 10, 10, 200])),
            )
        )
    return draw(st.permutations(postings))


def both(postings):
    return PostingList(postings), ReferencePostingList(postings)


def same(columnar, reference):
    assert type(columnar) is PostingList
    assert list(columnar) == reference.postings
    assert columnar == PostingList(reference.postings)
    assert len(columnar) == len(reference.postings)


# -- invariants ---------------------------------------------------------------------


@given(posting_lists())
def test_sorted_invariant(pl):
    ids = pl.doc_ids()
    assert ids == sorted(ids)


@given(posting_lists(), posting_lists())
def test_union_is_set_union(a, b):
    merged = a.union(b)
    assert set(merged.doc_ids()) == set(a.doc_ids()) | set(b.doc_ids())


@given(posting_lists(), posting_lists())
def test_union_commutative_on_docs(a, b):
    assert a.union(b).doc_ids() == b.union(a).doc_ids()


@given(posting_lists())
def test_union_idempotent(a):
    assert a.union(a).doc_ids() == a.doc_ids()


@given(posting_lists(), posting_lists())
def test_intersect_is_set_intersection(a, b):
    assert set(a.intersect(b).doc_ids()) == set(a.doc_ids()) & set(
        b.doc_ids()
    )


@given(posting_lists(), posting_lists(), posting_lists())
def test_union_associative_on_docs(a, b, c):
    left = a.union(b).union(c)
    right = a.union(b.union(c))
    assert left.doc_ids() == right.doc_ids()


@given(posting_lists(), st.integers(min_value=0, max_value=50))
def test_truncation_bounds_length(pl, limit):
    truncated = pl.truncate_top(limit, "tf")
    assert len(truncated) == min(limit, len(pl))


@given(posting_lists(), st.integers(min_value=1, max_value=50))
def test_truncation_keeps_highest_tf(pl, limit):
    truncated = pl.truncate_top(limit, "tf")
    if len(pl) <= limit:
        return
    kept_min = min(p.tf for p in truncated)
    dropped = [p for p in pl if p.doc_id not in set(truncated.doc_ids())]
    assert all(p.tf <= kept_min for p in dropped)


@given(posting_lists(), st.integers(min_value=0, max_value=50))
def test_truncation_result_is_subset(pl, limit):
    truncated = pl.truncate_top(limit, "tf")
    assert set(truncated.doc_ids()) <= set(pl.doc_ids())


@settings(max_examples=30)
@given(posting_lists())
def test_filter_docs_partition(pl):
    even = pl.filter_docs(lambda d: d % 2 == 0)
    odd = pl.filter_docs(lambda d: d % 2 == 1)
    assert len(even) + len(odd) == len(pl)
    assert set(even.doc_ids()) | set(odd.doc_ids()) == set(pl.doc_ids())


# -- full-payload equality with the reference model ---------------------------------


@given(rich_postings(), rich_postings())
def test_construction_iteration_get_and_equality_match_model(a, b):
    columnar, reference = both(a)
    same(columnar, reference)
    for doc_id in range(-1, 42):
        assert columnar.get(doc_id) == reference.get(doc_id)
        assert (doc_id in columnar) == (reference.get(doc_id) is not None)
    other, other_reference = both(b)
    assert (columnar == other) == (
        reference.postings == other_reference.postings
    )


@given(rich_postings())
def test_duplicate_documents_rejected_like_model(postings):
    if not postings:
        return
    duplicated = postings + [
        Posting(doc_id=postings[0].doc_id, tf=postings[0].tf + 1)
    ]
    for build in (PostingList, ReferencePostingList):
        try:
            build(duplicated)
        except IndexError_ as exc:
            message = str(exc)
        else:
            raise AssertionError("duplicate doc id accepted")
        assert "duplicate doc_id" in message


@given(rich_postings(), rich_postings())
def test_union_matches_model_including_conflicts(a, b):
    (left, left_ref), (right, right_ref) = both(a), both(b)
    same(left.union(right), left_ref.union(right_ref))
    same(right.union(left), right_ref.union(left_ref))
    same(left.union(left), left_ref.union(left_ref))


@given(WIDTHS.flatmap(lambda w: st.tuples(
    rich_postings(width=w), rich_postings(width=w, max_docs=8)
)))
def test_union_of_one_width_matches_model(lists):
    """Two lists of one key's width: a few postings spliced into a
    stored list, the merge an insert makes."""
    (left, left_ref), (right, right_ref) = both(lists[0]), both(lists[1])
    same(left.union(right), left_ref.union(right_ref))
    same(right.union(left), right_ref.union(left_ref))


@given(rich_postings(), rich_postings())
def test_intersect_and_filter_match_model(a, b):
    (left, left_ref), (right, right_ref) = both(a), both(b)
    same(left.intersect(right), left_ref.intersect(right_ref))
    for keep in (lambda d: d % 3 == 0, lambda d: d > 20, lambda d: False):
        same(left.filter_docs(keep), left_ref.filter_docs(keep))


@given(
    rich_postings(),
    st.integers(min_value=0, max_value=30),
    st.sampled_from(["tf", "norm"]),
)
def test_truncate_top_matches_model(postings, limit, policy):
    columnar, reference = both(postings)
    same(
        columnar.truncate_top(limit, policy),
        reference.truncate_top(limit, policy),
    )


# -- codec: arithmetic wire size and the one-pass decoder ------------------------------


@given(rich_postings(max_doc_id=10**6))
def test_wire_size_is_encoded_length(postings):
    pl = PostingList(postings)
    assert posting_list_wire_size(pl) == len(encode_posting_list(pl))


def decode_outcome(decode, data):
    """``("ok", postings)`` or ``("error", exception type)``."""
    try:
        result = decode(data)
    except Exception as exc:  # the type is what gets compared
        return "error", type(exc)
    postings = (
        result.postings
        if isinstance(result, ReferencePostingList)
        else list(result)
    )
    return "ok", postings


def assert_decoders_agree(data):
    assert decode_outcome(decode_posting_list, data) == decode_outcome(
        reference_decode, data
    )


@given(rich_postings(max_doc_id=10**6))
def test_decode_matches_model_on_valid_payloads(postings):
    data = encode_posting_list(PostingList(postings))
    assert_decoders_agree(data)
    assert decode_posting_list(data) == PostingList(postings)


@given(rich_postings(), st.data())
def test_decode_matches_model_on_truncated_payloads(postings, data):
    encoded = encode_posting_list(PostingList(postings))
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    assert_decoders_agree(encoded[:cut])


@settings(max_examples=300)
@given(rich_postings(), st.data())
def test_decode_matches_model_on_bit_flipped_payloads(postings, data):
    encoded = bytearray(encode_posting_list(PostingList(postings)))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        position = data.draw(
            st.integers(min_value=0, max_value=len(encoded) - 1)
        )
        encoded[position] ^= 1 << data.draw(
            st.integers(min_value=0, max_value=7)
        )
    assert_decoders_agree(bytes(encoded))


@given(rich_postings(), st.binary(min_size=1, max_size=4))
def test_decode_matches_model_on_trailing_bytes(postings, trailing):
    encoded = encode_posting_list(PostingList(postings))
    assert_decoders_agree(encoded + trailing)
