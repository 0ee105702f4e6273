"""Wire encoding of posting lists: delta + varint.

The paper counts traffic in postings; real deployments count bytes.  This
codec provides the conventional compressed representation — document-id
deltas and term frequencies as LEB128 varints — so experiments can also
report byte-level traffic, and tests can assert round-trip fidelity.
"""

from __future__ import annotations

from ..errors import IndexError_
from .postings import PostingList

__all__ = [
    "encode_varint",
    "decode_varint",
    "encode_posting_list",
    "decode_posting_list",
    "posting_list_wire_size",
]


def encode_varint(value: int, out: bytearray) -> None:
    """Append the LEB128 encoding of a non-negative integer to ``out``."""
    if value < 0:
        raise IndexError_(f"varint requires value >= 0, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one LEB128 varint at ``offset``; returns (value, new offset).

    Raises:
        IndexError_: on truncated input.
    """
    try:
        first = data[offset]
        if first < 0x80:
            return first, offset + 1
        return _varint_rest(data, offset + 1, first)
    except IndexError:
        raise IndexError_("truncated varint") from None


def _varint_rest(data: bytes, position: int, first: int) -> tuple[int, int]:
    """Finish a varint whose first byte ``first`` had its continuation
    bit set; ``position`` is just past that byte.  A read past the end
    raises the builtin ``IndexError`` (the caller reports truncation)."""
    result = first & 0x7F
    shift = 7
    while True:
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise IndexError_("varint too long (corrupt stream?)")


def encode_posting_list(postings: PostingList) -> bytes:
    """Encode a posting list: count, then per posting the doc-id delta,
    tf, doc_len, term-tf count and term tfs."""
    doc_ids, tfs, doc_lens, offsets, term_tfs = postings.columns()
    out = bytearray()
    encode_varint(len(doc_ids), out)
    previous_doc_id = 0
    for row, doc_id in enumerate(doc_ids):
        start, stop = offsets[row], offsets[row + 1]
        for value in (
            doc_id - previous_doc_id,
            tfs[row],
            doc_lens[row],
            stop - start,
            *term_tfs[start:stop],
        ):
            if 0 <= value < 0x80:
                out.append(value)  # one byte: the common case
            else:
                encode_varint(value, out)
        previous_doc_id = doc_id
    return bytes(out)


def _varint_bytes(values: list[int] | tuple[int, ...]) -> int:
    """Encoded size of ``values`` as back-to-back varints."""
    if not values or max(values) < 0x80:
        return len(values)
    return sum((value.bit_length() + 6) // 7 or 1 for value in values)


def posting_list_wire_size(postings: PostingList) -> int:
    """Wire size of a posting list in bytes under this codec, computed
    from its columns without encoding it.

    The paper accounts traffic in postings; deployments account bytes.
    This helper converts stored lists into the byte-level view.
    """
    doc_ids, tfs, doc_lens, offsets, term_tfs = postings.columns()
    count = len(doc_ids)
    if not count:
        return 1
    # Deltas and term-tf counts never exceed the largest doc id and the
    # term-tf total, so one check usually prices each column at a byte
    # per posting.
    if doc_ids[-1] < 0x80:
        deltas = count
    else:
        deltas = _varint_bytes(
            [doc_ids[0]]
            + [right - left for left, right in zip(doc_ids, doc_ids[1:])]
        )
    if offsets[-1] < 0x80:
        widths = count
    else:
        widths = _varint_bytes(
            [right - left for left, right in zip(offsets, offsets[1:])]
        )
    return (
        _varint_bytes((count,))
        + deltas
        + _varint_bytes(tfs)
        + _varint_bytes(doc_lens)
        + widths
        + _varint_bytes(term_tfs)
    )


def decode_posting_list(data: bytes) -> PostingList:
    """Decode the output of :func:`encode_posting_list` straight into
    columns, in one pass over ``data``.

    Every varint is read inline; only one longer than a byte takes a
    call.  The checks are the ones a :class:`~repro.index.postings.Posting`
    and the validating :class:`PostingList` constructor would make, with
    the same messages.

    Raises:
        IndexError_: on truncated or trailing data, a repeated document
            (a zero delta after the first posting), or a frequency below 1.
    """
    if not isinstance(data, bytes):
        data = bytes(data)
    doc_ids: list[int] = []
    tfs: list[int] = []
    doc_lens: list[int] = []
    offsets = [0]
    term_tfs: list[int] = []
    try:
        count = data[0]
        position = 1
        if count > 0x7F:
            count, position = _varint_rest(data, position, count)
        doc_id = 0
        for _ in range(count):
            delta = data[position]
            position += 1
            if delta > 0x7F:
                delta, position = _varint_rest(data, position, delta)
            tf = data[position]
            position += 1
            if tf > 0x7F:
                tf, position = _varint_rest(data, position, tf)
            doc_len = data[position]
            position += 1
            if doc_len > 0x7F:
                doc_len, position = _varint_rest(data, position, doc_len)
            width = data[position]
            position += 1
            if width > 0x7F:
                width, position = _varint_rest(data, position, width)
            stop = position + width
            posting_tfs = data[position:stop]
            if len(posting_tfs) == width and posting_tfs.isascii():
                # One byte per term tf: the common case, sliced whole.
                position = stop
            else:
                posting_tfs = []
                for _ in range(width):
                    term_tf = data[position]
                    position += 1
                    if term_tf > 0x7F:
                        term_tf, position = _varint_rest(
                            data, position, term_tf
                        )
                    posting_tfs.append(term_tf)
            if tf < 1:
                raise IndexError_(f"tf must be >= 1, got {tf}")
            if 0 in posting_tfs:
                raise IndexError_(
                    f"term_tfs must all be >= 1, got {tuple(posting_tfs)}"
                )
            if not delta and doc_ids:
                raise IndexError_(
                    f"duplicate doc_id {doc_id} in posting list"
                )
            doc_id += delta
            doc_ids.append(doc_id)
            tfs.append(tf)
            doc_lens.append(doc_len)
            term_tfs += posting_tfs
            offsets.append(len(term_tfs))
    except IndexError:
        raise IndexError_("truncated varint") from None
    if position != len(data):
        raise IndexError_(
            f"trailing bytes after posting list: {len(data) - position}"
        )
    return PostingList._from_columns(
        tuple(doc_ids),
        tuple(tfs),
        tuple(doc_lens),
        tuple(offsets),
        tuple(term_tfs),
    )
