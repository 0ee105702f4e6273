"""Bloom filters over document ids.

The paper's related work ([15] Reynolds & Vahdat, [17] ODISSEA, [20]
Zhang & Suel) optimizes distributed single-term retrieval by shipping a
Bloom filter of one term's posting list instead of the list itself, so
the peer holding the other term can pre-intersect locally.  The paper
argues the approach still scales linearly; the
:mod:`repro.retrieval.single_term_bloom` baseline quantifies that claim.

The filter hashes document ids with ``k`` salted SHA-1 functions into an
``m``-bit array, kept in a ``bytearray``: bit ``p`` is bit ``p & 7`` of
byte ``p >> 3``, so setting or testing a bit costs the same at any ``m``.
"""

from __future__ import annotations

import math
import struct
from hashlib import sha1
from typing import Iterable

from ..errors import IndexError_

__all__ = ["BloomFilter", "optimal_bits_per_element"]

#: The first 8 bytes of a digest as a big-endian unsigned integer.
_first_u64 = struct.Struct(">Q").unpack_from


def optimal_bits_per_element(target_fpr: float) -> float:
    """Bits per element for a target false-positive rate:
    ``m/n = -ln(p) / (ln 2)^2``."""
    if not 0.0 < target_fpr < 1.0:
        raise IndexError_(
            f"target_fpr must be in (0, 1), got {target_fpr}"
        )
    return -math.log(target_fpr) / (math.log(2) ** 2)


class BloomFilter:
    """A fixed-size Bloom filter for integer document ids."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 8:
            raise IndexError_(f"num_bits must be >= 8, got {num_bits}")
        if num_hashes < 1:
            raise IndexError_(
                f"num_hashes must be >= 1, got {num_hashes}"
            )
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        #: ``b"<seed>:"`` of every hash function, encoded once.
        self._salts = tuple(
            f"{seed}:".encode("ascii") for seed in range(num_hashes)
        )
        self._bits = bytearray((num_bits + 7) // 8)
        self._count = 0

    @classmethod
    def for_capacity(
        cls, capacity: int, target_fpr: float = 0.01
    ) -> "BloomFilter":
        """Size a filter for ``capacity`` elements at ``target_fpr``."""
        if capacity < 1:
            raise IndexError_(f"capacity must be >= 1, got {capacity}")
        bits = max(8, int(capacity * optimal_bits_per_element(target_fpr)))
        hashes = max(1, round(bits / capacity * math.log(2)))
        return cls(num_bits=bits, num_hashes=hashes)

    def _positions(self, doc_id: int) -> list[int]:
        """The ``num_hashes`` bit positions of ``doc_id``: hash ``seed``
        takes the first 8 bytes, big-endian, of SHA-1 over
        ``"<seed>:<doc_id>"``, modulo ``num_bits``."""
        tail = str(doc_id).encode("ascii")
        num_bits = self.num_bits
        return [
            _first_u64(sha1(salt + tail).digest())[0] % num_bits
            for salt in self._salts
        ]

    def _set(self, positions: list[int]) -> None:
        bits = self._bits
        for position in positions:
            bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def add(self, doc_id: int) -> None:
        """Insert a document id."""
        self._set(self._positions(doc_id))

    def add_all(self, doc_ids: Iterable[int]) -> None:
        for doc_id in doc_ids:
            self.add(doc_id)

    def add_if_absent(self, doc_id: int) -> bool:
        """Insert ``doc_id`` unless the filter already claims it; returns
        whether it was inserted.  The membership test and the insert
        share one position list, so the id is hashed once.  Skipping a
        false positive is sound: the filter already answers "may
        contain" for the id."""
        positions = self._positions(doc_id)
        bits = self._bits
        for position in positions:
            if not bits[position >> 3] >> (position & 7) & 1:
                self._set(positions)
                return True
        return False

    def __contains__(self, doc_id: int) -> bool:
        # Hash by hash, stopping at the first clear bit: most probes of
        # a sparse filter are answered by the first one or two hashes.
        # This repeats _positions()'s formula inline because the probe
        # is on every summary-checked lookup: for absent 64-bit ids in a
        # half-full k=7 summary filter it takes 1.9-2.3 us at 9.8k, 96k
        # and 383k bits alike, against ~6 us over the full _positions()
        # list and ~3 us through a generator (x86_64, CPython 3.11).
        # With the bits in one int, each test shifted the whole filter:
        # 3.3-4.0 / 6.6-7.7 / 13-18 us at those sizes.
        # tests/index/test_bloom.py pins both against one reference.
        tail = str(doc_id).encode("ascii")
        bits, num_bits = self._bits, self.num_bits
        for salt in self._salts:
            position = _first_u64(sha1(salt + tail).digest())[0] % num_bits
            if not bits[position >> 3] >> (position & 7) & 1:
                return False
        return True

    def __len__(self) -> int:
        """Number of inserted elements (not the bit size)."""
        return self._count

    @property
    def size_bytes(self) -> int:
        """Wire size of the filter in bytes."""
        return (self.num_bits + 7) // 8

    def posting_equivalents(self, bytes_per_posting: int = 8) -> int:
        """The filter's wire size expressed in postings, the paper's
        traffic unit (a posting is roughly a doc id + tf, ~8 bytes)."""
        if bytes_per_posting < 1:
            raise IndexError_(
                f"bytes_per_posting must be >= 1, got {bytes_per_posting}"
            )
        return max(1, math.ceil(self.size_bytes / bytes_per_posting))

    def expected_fpr(self) -> float:
        """The expected false-positive rate at the current load:
        ``(1 - e^(-kn/m))^k``."""
        if self._count == 0:
            return 0.0
        exponent = -self.num_hashes * self._count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes
