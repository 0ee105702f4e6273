"""Property-based tests for the disk store: random posting lists must
survive write → overwrite → compact → reopen bit-exactly, and torn
segment tails must never decode as garbage."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.codec import decode_varint
from repro.index.postings import Posting, PostingList
from repro.store.segment import (
    STATUS_DK,
    STATUS_NDK,
    SegmentRecord,
    SegmentWriter,
    decode_record_body,
    encode_record,
    scan_segment,
)
from repro.store.store import SegmentStore


@st.composite
def posting_lists(draw):
    doc_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**6),
            unique=True,
            min_size=1,
            max_size=20,
        )
    )
    postings = []
    for doc_id in doc_ids:
        n_terms = draw(st.integers(min_value=0, max_value=3))
        term_tfs = tuple(
            draw(st.integers(min_value=1, max_value=50))
            for _ in range(n_terms)
        )
        postings.append(
            Posting(
                doc_id=doc_id,
                tf=draw(st.integers(min_value=1, max_value=50)),
                term_tfs=term_tfs,
                doc_len=draw(st.integers(min_value=0, max_value=500)),
            )
        )
    return PostingList(postings)


@st.composite
def keys(draw):
    terms = draw(
        st.lists(
            st.text(
                alphabet=st.characters(
                    codec="utf-8", exclude_characters="\x1f"
                ),
                min_size=1,
                max_size=8,
            ),
            unique=True,
            min_size=1,
            max_size=3,
        )
    )
    return frozenset(terms)


@st.composite
def records(draw):
    postings = draw(posting_lists())
    return SegmentRecord.from_postings(
        draw(keys()),
        postings,
        global_df=len(postings) + draw(st.integers(0, 30)),
        status_code=draw(st.sampled_from((STATUS_DK, STATUS_NDK))),
        contributors=tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=2**32),
                    unique=True,
                    max_size=6,
                )
            )
        ),
    )


def body_of(encoded: bytes) -> bytes:
    """Strip the (possibly multi-byte) length prefix and crc trailer."""
    body_len, offset = decode_varint(encoded, 0)
    return encoded[offset : offset + body_len]


@given(records())
def test_record_roundtrip(record):
    decoded = decode_record_body(body_of(encode_record(record)))
    assert decoded == record
    assert decoded.postings() == record.postings()


@settings(max_examples=25, deadline=None)
@given(st.lists(records(), min_size=1, max_size=12))
def test_store_write_compact_reopen_roundtrip(record_list):
    """Random records (with key collisions acting as overwrites) written
    through the store survive compaction and a cold reopen."""
    expected: dict[frozenset, SegmentRecord] = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = SegmentStore(
            tmp, segment_max_bytes=512, compact_dead_ratio=1.0
        )
        for record in record_list:
            store.put(
                record.key,
                record.postings(),
                record.global_df,
                record.status_code,
                record.contributors,
            )
            expected[record.key] = record
        store.compact()
        store.close()
        reopened = SegmentStore(tmp, cache_bytes=0)
        assert len(reopened) == len(expected)
        for key, record in expected.items():
            assert reopened.get_postings(key) == record.postings()
            meta = reopened.meta(key)
            assert meta.global_df == record.global_df
            assert meta.status_code == record.status_code
            assert meta.contributors == record.contributors
        reopened.close()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(records(), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=200),
)
def test_truncated_tail_never_decodes_garbage(record_list, chop):
    """Chopping any number of bytes off a segment yields a clean prefix:
    scanning skips the torn tail and every surviving record is one that
    was actually written, byte-exact."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "segment-000001.seg"
        with SegmentWriter(path) as writer:
            for record in record_list:
                writer.append(record)
        data = path.read_bytes()
        chop = min(chop, len(data) - 5)  # keep the header
        path.write_bytes(data[: len(data) - chop])
        scan = scan_segment(path)
        survivors = [record for _, _, record in scan.records]
        assert survivors == record_list[: len(survivors)]
        # A chop landing exactly on a record boundary leaves a clean
        # (shorter) file; anywhere else it must register as truncated.
        if scan.truncated:
            assert len(survivors) < len(record_list)
        else:
            assert scan.valid_bytes == len(data) - chop
        # the store opens over it without error and serves the prefix
        store = SegmentStore(tmp)
        last_write = {record.key: record for record in survivors}
        for key, record in last_write.items():
            assert store.get_postings(key) == record.postings()
        store.close()
