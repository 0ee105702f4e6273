"""Tests for segment files: record codec, scanning, crash safety."""

from __future__ import annotations

import os
import zlib

import pytest

from repro.errors import StoreError
from repro.index.codec import decode_varint, encode_varint
from repro.index.postings import Posting, PostingList
from repro.store.segment import (
    MAGIC,
    STATUS_DK,
    STATUS_NDK,
    STATUS_TOMBSTONE,
    SegmentRecord,
    SegmentWriter,
    decode_record_body,
    encode_record,
    key_from_canonical,
    key_to_canonical,
    read_payload_pread,
    read_record_at,
    scan_segment,
)


def make_postings(doc_ids, tf=2, doc_len=30) -> PostingList:
    return PostingList(
        [
            Posting(doc_id=d, tf=tf, term_tfs=(tf, tf), doc_len=doc_len)
            for d in doc_ids
        ]
    )


def body_of(encoded: bytes) -> bytes:
    """Strip the length prefix and crc trailer of an encoded record."""
    body_len, offset = decode_varint(encoded, 0)
    return encoded[offset : offset + body_len]


def make_record(terms=("apple", "pie"), doc_ids=(1, 5, 9)) -> SegmentRecord:
    return SegmentRecord.from_postings(
        frozenset(terms),
        make_postings(doc_ids),
        global_df=len(doc_ids) + 4,
        status_code=STATUS_NDK,
        contributors=(3, 11, 7),
    )


class TestKeyCanonicalization:
    def test_roundtrip(self):
        key = frozenset({"zebra", "apple", "midepartment"})
        assert key_from_canonical(key_to_canonical(key)) == key

    def test_sorted_and_order_independent(self):
        assert key_to_canonical(frozenset({"b", "a"})) == key_to_canonical(
            frozenset({"a", "b"})
        )
        assert key_to_canonical(frozenset({"b", "a"})) == b"a\x1fb"

    def test_single_term(self):
        assert key_from_canonical(key_to_canonical(frozenset({"t"}))) == {
            "t"
        }


class TestRecordCodec:
    def test_body_roundtrip(self):
        record = make_record()
        decoded = decode_record_body(body_of(encode_record(record)))
        assert decoded == record

    def test_contributors_roundtrip_sorted(self):
        record = make_record()
        decoded = decode_record_body(body_of(encode_record(record)))
        assert decoded.contributors == (3, 7, 11)

    def test_posting_count_without_decode(self):
        record = make_record(doc_ids=(2, 4, 6, 8))
        assert record.posting_count() == 4
        assert len(record.postings()) == 4

    def test_tombstone(self):
        tomb = SegmentRecord.tombstone(frozenset({"gone"}))
        assert tomb.is_tombstone
        assert tomb.posting_count() == 0
        decoded = decode_record_body(body_of(encode_record(tomb)))
        assert decoded.is_tombstone
        assert decoded.key == {"gone"}

    def test_postings_payload_roundtrip(self):
        postings = make_postings((0, 3, 1000000), tf=7, doc_len=99)
        record = SegmentRecord.from_postings(
            frozenset({"k"}), postings, 3, STATUS_DK
        )
        assert record.postings() == postings

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda body: body + b"\x00", "record payload length mismatch"),
            (
                lambda body: body[:11] + b"\x09" + body[12:],
                "unknown status code 9",
            ),
            (lambda body: b"\x7f" + body[1:], "record key overruns body"),
            (lambda body: body[:11], "record body missing status byte"),
            (lambda body: body[:14], "malformed record body: "),
        ],
    )
    def test_payload_read_rejects_bodies_like_the_decoder(
        self, tmp_path, mutate, message
    ):
        # Body layout of make_record(): key length 9, the key, global df
        # (one byte), the status byte at 11, three contributors from 13.
        good = body_of(encode_record(make_record()))
        assert good[11] == STATUS_NDK and good[12] == 3
        bad = mutate(good)
        with pytest.raises(StoreError) as decoded:
            decode_record_body(bad)
        assert str(decoded.value).startswith(message)
        path = tmp_path / "seg.seg"
        frame = bytearray(MAGIC)
        for body in (good, bad):
            encode_varint(len(body), frame)
            frame += body + zlib.crc32(body).to_bytes(4, "little")
        path.write_bytes(bytes(frame))
        bad_offset = len(MAGIC) + len(encode_record(make_record()))
        fd = os.open(path, os.O_RDONLY)
        try:
            payload = read_payload_pread(fd, len(MAGIC), 16, lambda: "seg")
            with pytest.raises(StoreError) as read:
                read_payload_pread(fd, bad_offset, 16, lambda: "seg")
        finally:
            os.close(fd)
        assert payload == make_record().payload
        assert str(read.value) == f"seg@{bad_offset}: {decoded.value}"

    def test_unknown_status_rejected(self):
        with pytest.raises(StoreError):
            encode_record(
                SegmentRecord(
                    key=frozenset({"x"}),
                    global_df=1,
                    status_code=9,
                    contributors=(),
                    payload=b"",
                )
            )


class TestWriterAndScan:
    def test_write_scan_roundtrip(self, tmp_path):
        path = tmp_path / "seg.seg"
        records = [
            make_record(("a",), (1,)),
            make_record(("b", "c"), (2, 3)),
            SegmentRecord.tombstone(frozenset({"a"})),
        ]
        with SegmentWriter(path) as writer:
            offsets = [writer.append(r)[0] for r in records]
        scan = scan_segment(path)
        assert not scan.truncated
        assert [r for _, _, r in scan.records] == records
        assert [o for o, _, _ in scan.records] == offsets
        assert scan.valid_bytes == path.stat().st_size

    def test_random_access(self, tmp_path):
        path = tmp_path / "seg.seg"
        records = [make_record((f"t{i}",), (i, i + 10)) for i in range(20)]
        with SegmentWriter(path) as writer:
            offsets = [writer.append(r)[0] for r in records]
        for offset, record in zip(offsets, records):
            assert read_record_at(path, offset) == record

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.seg"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(StoreError):
            scan_segment(path)

    def test_empty_segment(self, tmp_path):
        path = tmp_path / "seg.seg"
        SegmentWriter(path).close()
        scan = scan_segment(path)
        assert scan.records == [] and not scan.truncated
        assert scan.valid_bytes == len(MAGIC)


class TestCrashSafety:
    """A torn tail must be skipped, never decoded as garbage."""

    def _write(self, path, n=5):
        records = [make_record((f"t{i}",), (i, i + 1, i + 2)) for i in range(n)]
        with SegmentWriter(path) as writer:
            for record in records:
                writer.append(record)
        return records

    @pytest.mark.parametrize("chop", [1, 3, 5, 17])
    def test_truncated_tail_detected(self, tmp_path, chop):
        path = tmp_path / "seg.seg"
        records = self._write(path)
        data = path.read_bytes()
        path.write_bytes(data[:-chop])
        scan = scan_segment(path)
        assert scan.truncated
        # every surviving record is a fully intact prefix
        assert [r for _, _, r in scan.records] == records[: len(scan.records)]
        assert len(scan.records) < len(records)

    def test_corrupt_byte_stops_scan(self, tmp_path):
        path = tmp_path / "seg.seg"
        records = self._write(path)
        data = bytearray(path.read_bytes())
        # flip a byte inside the fourth record's span
        scan = scan_segment(path)
        offset = scan.records[3][0] + 2
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        rescanned = scan_segment(path)
        assert rescanned.truncated
        assert [r for _, _, r in rescanned.records] == records[:3]

    def test_truncated_random_access_raises(self, tmp_path):
        path = tmp_path / "seg.seg"
        self._write(path)
        scan = scan_segment(path)
        last_offset = scan.records[-1][0]
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(StoreError):
            read_record_at(path, last_offset)
