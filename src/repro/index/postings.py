"""Postings and posting lists.

A posting associates a key (term or term set) with one document.  Beyond
the document id, each posting carries the per-term frequencies of the
key's terms in that document plus the document length — the payload the
prototype's distributed ranking ships so the query peer can compute
BM25-style scores without touching the documents (paper Section 5,
"integrates a solution for distributed content-based ranking").

A :class:`PostingList` is immutable and columnar: parallel tuples of
document ids (ascending), key-level frequencies and document lengths,
plus one flat tuple of per-term frequencies that an offsets tuple slices
per posting.  Decoding, set operations and truncation build new lists
straight from columns; :class:`Posting` objects exist only for callers
that iterate a list or ``get`` one document.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator

from ..errors import IndexError_

__all__ = ["Posting", "PostingList"]

#: ``(doc_ids, tfs, doc_lens, offsets, term_tfs)``; see :class:`PostingList`.
Columns = tuple[
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
    tuple[int, ...],
]


@dataclass(frozen=True, slots=True)
class Posting:
    """One (key, document) index entry.

    Attributes:
        doc_id: the document's global id.
        tf: key-level frequency — for single-term keys the term frequency;
            for multi-term keys the minimum of the member terms'
            frequencies (a conjunctive frequency proxy used for NDK
            truncation ordering).
        term_tfs: per-term frequencies aligned with the key's terms in
            sorted order; empty tuple means "same as tf" (single-term).
        doc_len: document length in processed tokens (BM25 normalization).
    """

    doc_id: int
    tf: int
    term_tfs: tuple[int, ...] = ()
    doc_len: int = 0

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise IndexError_(f"doc_id must be >= 0, got {self.doc_id}")
        if self.tf < 1:
            raise IndexError_(f"tf must be >= 1, got {self.tf}")
        if self.doc_len < 0:
            raise IndexError_(f"doc_len must be >= 0, got {self.doc_len}")
        if any(t < 1 for t in self.term_tfs):
            raise IndexError_(
                f"term_tfs must all be >= 1, got {self.term_tfs}"
            )

    def term_frequency(self, index: int) -> int:
        """Frequency of the key's ``index``-th term (sorted order)."""
        if not self.term_tfs:
            return self.tf
        return self.term_tfs[index]


#: ``(doc_id, tf, term_tfs, doc_len)``: one posting, unvalidated.
Row = tuple[int, int, tuple[int, ...], int]

_row_of = attrgetter("doc_id", "tf", "term_tfs", "doc_len")
_doc_id_of_row = itemgetter(0)


class PostingList:
    """An immutable posting list sorted by document id, one posting per
    document.

    Held as five parallel tuples (:meth:`columns`): ``doc_ids`` in
    ascending order, ``tfs`` and ``doc_lens`` aligned with them, and
    ``offsets`` (one more entry than postings) slicing the flat
    ``term_tfs`` column — posting ``i``'s term frequencies are
    ``term_tfs[offsets[i]:offsets[i + 1]]``.
    """

    __slots__ = ("_doc_ids", "_tfs", "_doc_lens", "_offsets", "_term_tfs")

    def __init__(self, postings: Iterable[Posting] = ()) -> None:
        (
            self._doc_ids,
            self._tfs,
            self._doc_lens,
            self._offsets,
            self._term_tfs,
        ) = _columns_of_rows(list(map(_row_of, postings)))

    @staticmethod
    def _from_rows(rows: list[Row]) -> "PostingList":
        """The list of ``(doc_id, tf, term_tfs, doc_len)`` rows in any
        order, checked as the public constructor checks postings — for
        producers that would otherwise build a :class:`Posting` per row
        only to have it taken apart (candidate generation)."""
        return PostingList._from_columns(*_columns_of_rows(rows))

    @staticmethod
    def _from_columns(
        doc_ids: tuple[int, ...],
        tfs: tuple[int, ...],
        doc_lens: tuple[int, ...],
        offsets: tuple[int, ...],
        term_tfs: tuple[int, ...],
    ) -> "PostingList":
        """The trusted constructor: a plain list over columns that are
        already sorted, unique and valid (decoding, set operations,
        truncation).  Nothing is checked or copied."""
        result = object.__new__(PostingList)
        result._doc_ids = doc_ids
        result._tfs = tfs
        result._doc_lens = doc_lens
        result._offsets = offsets
        result._term_tfs = term_tfs
        return result

    def _take(self, rows: list[int]) -> "PostingList":
        """The postings at row indices ``rows``, in that order."""
        doc_ids, tfs, doc_lens, offsets, term_tfs = self.columns()
        kept_offsets = [0]
        kept_term_tfs: list[int] = []
        for row in rows:
            kept_term_tfs += term_tfs[offsets[row] : offsets[row + 1]]
            kept_offsets.append(len(kept_term_tfs))
        return PostingList._from_columns(
            tuple([doc_ids[row] for row in rows]),
            tuple([tfs[row] for row in rows]),
            tuple([doc_lens[row] for row in rows]),
            _shared_offsets(kept_offsets),
            tuple(kept_term_tfs),
        )

    def _drop(self, rows: list[int]) -> "PostingList":
        """This list without the postings at row indices ``rows``.

        A truncation drops few rows (1.8 of 13.8 on average over the
        perf ledger's builds), and every one of those truncations is of
        a list whose postings share one term-tf width: deleting the
        dropped rows costs 5.0 µs a call there against 9.8 µs for
        gathering the kept ones with :meth:`_take` (2-vCPU x86 host).
        """
        width = _uniform_width(self._offsets)
        if width is None:
            dropped = set(rows)
            return self._take(
                [row for row in range(len(self)) if row not in dropped]
            )
        doc_ids, tfs = list(self._doc_ids), list(self._tfs)
        doc_lens, term_tfs = list(self._doc_lens), list(self._term_tfs)
        for row in sorted(rows, reverse=True):
            del doc_ids[row], tfs[row], doc_lens[row]
            del term_tfs[row * width : (row + 1) * width]
        return PostingList._from_columns(
            tuple(doc_ids),
            tuple(tfs),
            tuple(doc_lens),
            _uniform_offsets(len(doc_ids), width),
            tuple(term_tfs),
        )

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._doc_ids)

    def __iter__(self) -> Iterator[Posting]:
        return _postings(*self.columns())

    def __contains__(self, doc_id: int) -> bool:
        doc_ids = self._doc_ids
        index = bisect.bisect_left(doc_ids, doc_id)
        return index < len(doc_ids) and doc_ids[index] == doc_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingList):
            return NotImplemented
        return self.columns() == other.columns()

    def __repr__(self) -> str:
        return f"PostingList(len={len(self)})"

    # -- accessors ----------------------------------------------------------------

    def columns(self) -> Columns:
        """``(doc_ids, tfs, doc_lens, offsets, term_tfs)`` — the list's
        own immutable columns, for readers that walk them instead of
        building :class:`Posting` objects (codec, ranking)."""
        return (
            self._doc_ids,
            self._tfs,
            self._doc_lens,
            self._offsets,
            self._term_tfs,
        )

    def resident(self) -> "PostingList":
        """This list as a plain in-memory :class:`PostingList`: itself,
        or, for a list whose columns live elsewhere, a plain list
        sharing its loaded columns."""
        if type(self) is PostingList:
            return self
        return PostingList._from_columns(*self.columns())

    def doc_ids(self) -> list[int]:
        """Document ids in ascending order."""
        return list(self._doc_ids)

    def get(self, doc_id: int) -> Posting | None:
        """The posting for ``doc_id``, or None."""
        doc_ids, tfs, doc_lens, offsets, term_tfs = self.columns()
        index = bisect.bisect_left(doc_ids, doc_id)
        if index == len(doc_ids) or doc_ids[index] != doc_id:
            return None
        return Posting(
            doc_id=doc_id,
            tf=tfs[index],
            term_tfs=term_tfs[offsets[index] : offsets[index + 1]],
            doc_len=doc_lens[index],
        )

    def document_frequency(self) -> int:
        """``df`` — number of documents in the list (alias of ``len``)."""
        return len(self)

    # -- set operations (merges over the sorted columns) -----------------------------

    def union(self, other: "PostingList") -> "PostingList":
        """Document-level union; on conflict keeps the posting with more
        ranking information (more term_tfs, then higher tf)."""
        if not other._doc_ids:
            return self.resident()
        if not self._doc_ids:
            return other.resident()
        # Every merge of the perf ledger's builds (77 379 in a mem_flat
        # run) is a peer's 1-5 postings into a stored list, all of one
        # term-tf width, no document in both: splicing them in costs
        # 3.6 µs a call against 10.5 µs for the sort below, and lifts
        # mem_flat index_docs_per_s 68 -> 117 (median of 10 ledger
        # pairs, 2-vCPU x86 host).  Anything else is merged by one sort.
        merged = None
        if len(other._doc_ids) <= _SPLICE_ROWS:
            merged = _splice(self, other)
        elif len(self._doc_ids) <= _SPLICE_ROWS:
            merged = _splice(other, self)
        if merged is not None:
            return merged
        left, right = self.columns(), other.columns()
        # Both lists' rows, self's first: not a valid list (unsorted),
        # only the source the merged rows are taken from.
        shift = left[3][-1]
        both = PostingList._from_columns(
            left[0] + right[0],
            left[1] + right[1],
            left[2] + right[2],
            left[3] + tuple([offset + shift for offset in right[3][1:]]),
            left[4] + right[4],
        )
        doc_ids = both._doc_ids
        # The stable sort merges the two sorted runs and puts each
        # conflicting pair side by side, self's row first.
        rows = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
        if len(set(doc_ids)) < len(doc_ids):
            rows = _richer_rows(rows, doc_ids, both._tfs, both._offsets)
        return both._take(rows)

    def intersect(self, other: "PostingList") -> "PostingList":
        """Documents present in both lists (postings from ``self``)."""
        return self.filter_docs(set(other._doc_ids).__contains__)

    def filter_docs(self, keep: Callable[[int], bool]) -> "PostingList":
        """Postings whose document satisfies ``keep`` (local
        post-processing of a subsumed key's answer set)."""
        return self._take(
            [row for row, doc_id in enumerate(self._doc_ids) if keep(doc_id)]
        )

    # -- truncation (NDK top-DF_max) ---------------------------------------------------

    def truncate_top(
        self, limit: int, policy: str = "tf"
    ) -> "PostingList":
        """Return the top-``limit`` postings under the given policy.

        Policies:
            ``"tf"`` — highest key-level term frequency first (ties broken
            by ascending doc_id for determinism);
            ``"norm"`` — highest length-normalized frequency ``tf/doc_len``
            first (documents with doc_len 0 rank last).

        The result is re-sorted by document id, as stored lists are.
        """
        if limit < 0:
            raise IndexError_(f"limit must be >= 0, got {limit}")
        if len(self) <= limit:
            return self.resident()
        tfs = self._tfs
        if policy == "tf":
            score = tfs
        elif policy == "norm":
            score = [
                tf / doc_len if doc_len else 0.0
                for tf, doc_len in zip(tfs, self._doc_lens)
            ]
        else:
            raise IndexError_(f"unknown truncation policy {policy!r}")
        # Rows are in doc-id order and the sort is stable (also under
        # reverse=True), so equal scores keep ascending doc ids.
        ranked = sorted(range(len(tfs)), key=score.__getitem__, reverse=True)
        return self._drop(ranked[limit:])


#: One-element columns of the values frequencies and short documents
#: take, shared by every list that holds them: most candidate lists
#: hold one posting, and a fresh tuple per column would make them
#: larger than the Posting they replace.
_SINGLES = tuple((value,) for value in range(256))


def _single(value: int) -> tuple[int]:
    return _SINGLES[value] if value < len(_SINGLES) else (value,)


def _columns_of_rows(rows: list[Row]) -> Columns:
    """The columns of ``rows`` sorted by document, checked with
    :class:`Posting`'s messages: a document at most once, ids and
    lengths >= 0, frequencies >= 1."""
    if len(rows) == 1:  # most candidate lists: one valid row, no sort
        ((doc_id, tf, row_tfs, doc_len),) = rows
        if doc_id >= 0 and tf >= 1 and doc_len >= 0:
            if min(row_tfs, default=1) >= 1:
                term_tfs = tuple(row_tfs)
                offsets = _uniform_offsets(1, len(term_tfs))
                return (
                    _single(doc_id),
                    _single(tf),
                    _single(doc_len),
                    offsets,
                    term_tfs,
                )
    if not rows:
        return (), (), (), (0,), ()
    rows.sort(key=_doc_id_of_row)
    doc_ids, tfs, term_tf_rows, doc_lens = zip(*rows)
    term_tfs = tuple(chain.from_iterable(term_tf_rows))
    if doc_ids[0] < 0:
        raise IndexError_(f"doc_id must be >= 0, got {doc_ids[0]}")
    if len(set(doc_ids)) < len(doc_ids):
        duplicate = next(
            left for left, right in zip(doc_ids, doc_ids[1:]) if left == right
        )
        raise IndexError_(f"duplicate doc_id {duplicate} in posting list")
    if min(tfs) < 1:
        raise IndexError_(f"tf must be >= 1, got {min(tfs)}")
    if min(doc_lens) < 0:
        raise IndexError_(f"doc_len must be >= 0, got {min(doc_lens)}")
    if term_tfs and min(term_tfs) < 1:
        bad = next(row for row in term_tf_rows if row and min(row) < 1)
        raise IndexError_(f"term_tfs must all be >= 1, got {tuple(bad)}")
    offsets = _shared_offsets(accumulate(map(len, term_tf_rows), initial=0))
    return doc_ids, tfs, doc_lens, offsets, term_tfs


#: The most rows :func:`_splice` inserts one by one.  No ledger merge
#: has a side longer than 5 rows; at 8, splicing into lists of 8-100
#: rows still costs 5.7-16.9 µs against the sort's 9.3-43.8 µs, so the
#: cap only keeps ``list.insert``'s per-row shifting off long merges.
_SPLICE_ROWS = 8

#: Offsets shared by every short list whose postings all have the same
#: number of term tfs (the usual case: a key's postings carry one tf per
#: key term), keyed ``(postings, width)``.
_UNIFORM: dict[tuple[int, int], tuple[int, ...]] = {}
_UNIFORM_MAX_POSTINGS = 64


def _uniform_offsets(count: int, width: int) -> tuple[int, ...]:
    """The offsets of ``count`` postings with ``width`` term tfs each."""
    offsets = _UNIFORM.get((count, width))
    if offsets is None:
        offsets = tuple([row * width for row in range(count + 1)])
        if count <= _UNIFORM_MAX_POSTINGS:
            _UNIFORM[count, width] = offsets
    return offsets


def _uniform_width(offsets: tuple[int, ...]) -> int | None:
    """The number of term tfs every posting has, or None when postings
    differ."""
    count = len(offsets) - 1
    width = offsets[-1] // count if count else 0
    uniform = _uniform_offsets(count, width)
    if offsets is uniform or offsets == uniform:
        return width
    return None


def _shared_offsets(offsets: Iterable[int]) -> tuple[int, ...]:
    """``offsets`` as a tuple: the shared one when it is uniform."""
    result = tuple(offsets)
    count = len(result) - 1
    uniform = _uniform_offsets(count, result[-1] // count if count else 0)
    return uniform if result == uniform else result


def _splice(big: PostingList, small: PostingList) -> PostingList | None:
    """Insert the rows of ``small`` into ``big``; None unless every
    posting of both has the same number of term tfs and no document is
    in both (a union's conflicts take the general merge)."""
    width = _uniform_width(big._offsets)
    if width is None or width != _uniform_width(small._offsets):
        return None
    big_ids = big._doc_ids
    doc_ids, tfs = list(big_ids), list(big._tfs)
    doc_lens, term_tfs = list(big._doc_lens), list(big._term_tfs)
    small_tfs, small_lens = small._tfs, small._doc_lens
    small_term_tfs = small._term_tfs
    # Back to front, so each spot still indexes the unspliced rows.
    row = len(small._doc_ids)
    for doc_id in reversed(small._doc_ids):
        row -= 1
        spot = bisect.bisect_left(big_ids, doc_id)
        if spot < len(big_ids) and big_ids[spot] == doc_id:
            return None
        doc_ids.insert(spot, doc_id)
        tfs.insert(spot, small_tfs[row])
        doc_lens.insert(spot, small_lens[row])
        term_tfs[spot * width : spot * width] = small_term_tfs[
            row * width : (row + 1) * width
        ]
    return PostingList._from_columns(
        tuple(doc_ids),
        tuple(tfs),
        tuple(doc_lens),
        _uniform_offsets(len(doc_ids), width),
        tuple(term_tfs),
    )


def _richer_rows(
    rows: list[int],
    doc_ids: tuple[int, ...],
    tfs: tuple[int, ...],
    offsets: tuple[int, ...],
) -> list[int]:
    """Collapse each side-by-side pair of rows for one document to the
    posting carrying more ranking information: more term_tfs, then
    higher tf, then the first row."""
    kept: list[int] = []
    for row in rows:
        if kept and doc_ids[kept[-1]] == doc_ids[row]:
            first = kept[-1]
            first_width = offsets[first + 1] - offsets[first]
            width = offsets[row + 1] - offsets[row]
            if width > first_width or (
                width == first_width and tfs[row] > tfs[first]
            ):
                kept[-1] = row
        else:
            kept.append(row)
    return kept


def _postings(
    doc_ids: tuple[int, ...],
    tfs: tuple[int, ...],
    doc_lens: tuple[int, ...],
    offsets: tuple[int, ...],
    term_tfs: tuple[int, ...],
) -> Iterator[Posting]:
    for row, doc_id in enumerate(doc_ids):
        yield Posting(
            doc_id=doc_id,
            tf=tfs[row],
            term_tfs=term_tfs[offsets[row] : offsets[row + 1]],
            doc_len=doc_lens[row],
        )
