"""A Hypothesis state machine for :class:`SegmentStore` against a dict
model.

Rules write, delete, checkpoint, compact (in the caller's thread and on
the maintenance thread), close and reopen, and arm a fault that makes
the n-th next commit rename of a compaction raise.  After every rule —
a reopen included — every key's postings, payload bytes and metadata
must equal the model's, and so must the store's size; and so must those
of a store opened over a copy of the directory, as a process killed
right then would find it.  The store must also count every record byte
of every segment file on disk.  A failed compaction changes nothing the
model can see.  Every record fills a 16-byte segment, so a compaction
writes one output per live key and a fault can land after some of them
have committed.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.store.store as store_mod
from repro.index.codec import encode_posting_list
from repro.index.postings import Posting, PostingList
from repro.store.segment import MAGIC, STATUS_DK, STATUS_NDK
from repro.store.store import SegmentStore, StoredMeta

# The machines' maybe_compact rule runs compaction on the store's
# maintenance thread.
pytestmark = pytest.mark.concurrency

KEYS = [frozenset({f"k{i}"}) for i in range(3)]


class _Injected(RuntimeError):
    """The armed fault."""


class StoreMachine(RuleBasedStateMachine):
    wal = False

    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory(prefix="store-machine-")
        root = Path(self._tmp.name)
        self._dir = root / "store"
        self._copy = root / "copy"
        self._copy.mkdir()
        self.model: dict[frozenset[str], tuple[PostingList, StoredMeta]] = {}
        #: Renames left before the armed fault fires (None: disarmed).
        self.fail_in: int | None = None
        self._real_replace = store_mod._replace_file
        store_mod._replace_file = self._replace
        self.store = self._open()

    def _open(self, directory: Path | None = None) -> SegmentStore:
        return SegmentStore(
            directory or self._dir,
            cache_bytes=256,
            segment_max_bytes=16,
            compact_dead_ratio=1.0,
            wal=self.wal,
            memtable_bytes=96,
        )

    def _replace(self, source, target) -> None:
        if self.fail_in is not None:
            self.fail_in -= 1
            if self.fail_in == 0:
                self.fail_in = None
                raise _Injected(f"rename of {target}")
        self._real_replace(source, target)

    def teardown(self) -> None:
        store_mod._replace_file = self._real_replace
        self.store.close()
        self._tmp.cleanup()

    # -- rules ---------------------------------------------------------------

    @initialize(
        doc_ids=st.lists(
            st.integers(min_value=0, max_value=60),
            min_size=len(KEYS),
            max_size=len(KEYS),
        )
    )
    def fill(self, doc_ids):
        # Every run starts with every key live, and with dead bytes.
        for _ in range(2):
            for key, doc_id in zip(KEYS, doc_ids):
                self.put(key, [doc_id], 0, STATUS_DK, frozenset())

    @rule(
        key=st.sampled_from(KEYS),
        doc_ids=st.lists(
            st.integers(min_value=0, max_value=60), unique=True, max_size=4
        ),
        extra_df=st.integers(min_value=0, max_value=5),
        status=st.sampled_from((STATUS_DK, STATUS_NDK)),
        contributors=st.frozensets(
            st.integers(min_value=0, max_value=9), max_size=3
        ),
    )
    def put(self, key, doc_ids, extra_df, status, contributors):
        postings = PostingList(
            [Posting(doc_id=d, tf=d % 3 + 1, doc_len=20) for d in doc_ids]
        )
        global_df = len(postings) + extra_df
        contributors = tuple(sorted(contributors))
        self.store.put(key, postings, global_df, status, contributors)
        self.model[key] = (
            postings,
            StoredMeta(global_df, status, contributors, len(postings)),
        )

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule()
    def checkpoint(self):
        self.store.checkpoint()

    @rule()
    def compact(self):
        try:
            self.store.compact()
        except _Injected:
            pass

    @precondition(lambda self: self.store.dead_ratio >= 0.3)
    @rule()
    def maybe_compact(self):
        # Lower the threshold only for this rule, so no write wakes the
        # maintenance thread behind the machine's back.
        self.store.compact_dead_ratio = 0.3
        try:
            assert self.store.maybe_compact()
            assert self.store.quiesce_maintenance()
        finally:
            self.store.compact_dead_ratio = 1.0

    @rule()
    def reopen(self):
        self.store.close()
        self.store = self._open()

    @precondition(lambda self: self.fail_in is None)
    @rule(n=st.integers(min_value=1, max_value=3))
    def fail_nth_rename(self, n):
        self.fail_in = n

    # -- invariants ------------------------------------------------------------

    def _assert_matches(self, store: SegmentStore) -> None:
        assert len(store) == len(self.model)
        for key in KEYS:
            expected = self.model.get(key)
            if expected is None:
                assert store.get_postings(key) is None
                assert store.get_payload(key) is None
                assert store.meta(key) is None
                continue
            postings, meta = expected
            assert store.get_postings(key) == postings
            assert store.get_payload(key) == encode_posting_list(postings)
            assert store.meta(key) == meta

    @invariant()
    def matches_model(self):
        self._assert_matches(self.store)

    @invariant()
    def every_segment_byte_is_accounted_for(self):
        # A segment the store does not count is one it neither reads
        # nor compacts away, yet a reopen replays it.
        self.store.flush()
        stats = self.store.stats()
        on_disk = sum(
            path.stat().st_size - len(MAGIC)
            for path in self._dir.glob("segment-*.seg")
        )
        assert on_disk == stats["live_bytes"] + stats["dead_bytes"]

    @invariant()
    def a_kill_now_recovers_the_model(self):
        # Hard links stand in for copies: recovery replaces files by
        # rename and writes only fresh segment ids, so it never changes
        # a file this store still uses.
        self.store.flush()
        for stale in self._copy.iterdir():
            stale.unlink()
        for path in self._dir.iterdir():
            os.link(path, self._copy / path.name)
        recovered = self._open(self._copy)
        try:
            self._assert_matches(recovered)
        finally:
            recovered.close()


class WalStoreMachine(StoreMachine):
    wal = True


# Many short runs beat few long ones: each run enables a random subset
# of the rules, and a fault needs only a few steps to show.
_SETTINGS = settings(
    max_examples=100, stateful_step_count=25, deadline=None
)
TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = _SETTINGS
TestWalStoreMachine = WalStoreMachine.TestCase
TestWalStoreMachine.settings = _SETTINGS
