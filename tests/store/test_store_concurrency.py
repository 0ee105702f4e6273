"""Thread-safety regression tests for the store stack.

The parallel ``search_batch`` path (PR 3) lets many reader threads hit
the same spilled index concurrently: stubs materialize, the hot-set
budget re-admits keys, and the block cache churns — all from worker
threads at once.  These tests hammer each shared structure and assert
the invariants that used to hold only single-threaded:

- a cold :class:`SpilledPostings` stub loads once and fires ``on_load``
  once, no matter how many threads race into it (a double fire would
  double-charge the hot-set posting budget);
- :class:`SpillingGlobalKeyIndex` never over-admits its RAM budget;
- :class:`BlockCache` never holds more postings than its capacity, at
  any observable instant;
- :class:`SegmentStore` reads are safe against concurrent readers
  sharing OS file handles.
"""

from __future__ import annotations

import threading

import pytest

from repro.index.postings import Posting, PostingList
from repro.net.network import P2PNetwork
from repro.store.blockcache import BlockCache
from repro.store.segment import STATUS_DK
from repro.store.spill import SpilledPostings, SpillingGlobalKeyIndex
from repro.store.store import SegmentStore
from tests.conftest import SMALL_PARAMS

pytestmark = pytest.mark.concurrency

NUM_THREADS = 8


def make_postings(doc_ids) -> PostingList:
    return PostingList(
        [Posting(doc_id=d, tf=2, doc_len=40) for d in doc_ids]
    )


def make_network(n_peers: int = 4) -> P2PNetwork:
    network = P2PNetwork()
    for i in range(n_peers):
        network.add_peer(f"peer-{i:03d}")
    return network


def run_threads(workers) -> None:
    threads = [threading.Thread(target=w) for w in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestSpilledPostingsMaterializeRace:
    def test_on_load_fires_exactly_once(self, tmp_path):
        """The check-then-act race: N threads touching the same cold
        stub must produce one store read and one on_load callback."""
        store = SegmentStore(tmp_path)
        key = frozenset({"aa", "bb"})
        store.put(key, make_postings(range(20)), 20, STATUS_DK)
        fired = []
        fired_lock = threading.Lock()

        def on_load(k, stub):
            with fired_lock:
                fired.append(k)

        stub = SpilledPostings(store, key, count=20, on_load=on_load)
        start = threading.Barrier(NUM_THREADS)
        results = [None] * NUM_THREADS

        def worker(slot: int):
            def run():
                start.wait()
                results[slot] = stub.doc_ids()

            return run

        run_threads([worker(i) for i in range(NUM_THREADS)])
        assert fired == [key]  # exactly one load notification
        assert stub.is_loaded
        expected = list(range(20))
        assert all(r == expected for r in results)

    def test_loaded_stub_skips_the_lock_path(self, tmp_path):
        store = SegmentStore(tmp_path)
        key = frozenset({"aa"})
        store.put(key, make_postings(range(5)), 5, STATUS_DK)
        loads = []
        stub = SpilledPostings(
            store, key, count=5, on_load=lambda k, s: loads.append(k)
        )
        stub.doc_ids()
        stub.doc_ids()
        assert loads == [key]


class TestSpillingIndexBudgetUnderConcurrency:
    def test_budget_never_over_admits(self, tmp_path):
        """Concurrent reloads across many keys: the hot-set byte
        budget must hold at every observable instant and at rest."""
        budget = 130  # five of the 25-26 byte lists below
        span = 6
        index = SpillingGlobalKeyIndex(
            make_network(), SMALL_PARAMS, store_dir=tmp_path,
            memory_budget_bytes=budget,
        )
        keys = []
        for i in range(24):
            key = frozenset({f"aa{i}", f"bb{i}"})
            index.insert("peer-000", key, make_postings(
                range(i * 100, i * 100 + span)
            ))
            keys.append(key)
        index.spill_all()
        assert index.hot_postings == 0

        overshoots = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                hot = index.spill_stats()["hot_charge"]  # takes the lock
                if hot > budget:
                    overshoots.append(hot)

        def reader(offset: int):
            def run():
                for round_ in range(4):
                    for key in keys[offset:] + keys[:offset]:
                        entry = index._entry_at_responsible(key)
                        assert entry is not None
                        entry.postings.doc_ids()  # materializes + reheats

            return run

        sampling = threading.Thread(target=sampler)
        sampling.start()
        try:
            run_threads([reader(i * 3) for i in range(NUM_THREADS)])
        finally:
            stop.set()
            sampling.join()
        assert overshoots == []
        assert index.spill_stats()["hot_charge"] <= budget
        # Budget accounting stayed exact: the hot map and the posting
        # counter agree after the storm.
        stats = index.spill_stats()
        assert stats["hot_postings"] == sum(
            len(index._entry_at_responsible(k).postings)
            for k in index._hot
        )

    def test_concurrent_lookup_parity(self, tmp_path):
        """Reads racing budget evictions still return exact postings."""
        index = SpillingGlobalKeyIndex(
            make_network(), SMALL_PARAMS, store_dir=tmp_path,
            memory_budget_bytes=45,  # two of the twelve lists
        )
        inserted = {}
        for i in range(12):
            key = frozenset({f"aa{i}", f"bb{i}"})
            postings = make_postings(range(i * 50, i * 50 + 5))
            index.insert("peer-000", key, postings)
            inserted[key] = [p.doc_id for p in postings]
        failures = []
        start = threading.Barrier(NUM_THREADS)

        def worker(seed: int):
            def run():
                start.wait()
                items = list(inserted.items())
                for round_ in range(3):
                    for key, expected in items[seed:] + items[:seed]:
                        entry = index.lookup(f"peer-{seed % 4:03d}", key)
                        got = entry.postings.doc_ids()
                        if got != expected:
                            failures.append((key, expected, got))

            return run

        run_threads([worker(i) for i in range(NUM_THREADS)])
        assert failures == []


class TestBlockCacheStress:
    def test_held_postings_never_exceeds_capacity(self):
        # The cache is bounded in encoded bytes; an n-posting block
        # below encodes to 4n+1 bytes, so this also caps the postings.
        capacity = 400
        cache = BlockCache(capacity)
        # Deterministic block sizes, disjoint id ranges per thread.
        sizes = [1, 3, 7, 12, 25, 40, 9, 18]
        overshoots = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                held = cache.held_bytes
                if held > capacity:
                    overshoots.append(held)

        def worker(tid: int):
            def run():
                for i in range(300):
                    size = sizes[(tid + i) % len(sizes)]
                    block_id = (tid, i % 40)
                    cache.put(block_id, make_postings(range(size)))
                    cache.get((tid, (i * 7) % 40))
                    if i % 50 == 49:
                        cache.invalidate((tid, i % 40))

            return run

        sampling = threading.Thread(target=sampler)
        sampling.start()
        try:
            run_threads([worker(t) for t in range(NUM_THREADS)])
        finally:
            stop.set()
            sampling.join()
        assert overshoots == []
        assert cache.held_bytes <= capacity
        assert cache.held_postings <= capacity // 4
        # Bookkeeping agrees with the actual contents after the storm.
        assert cache.held_postings == sum(
            block.pcost for block in cache._blocks.values()
        )
        assert cache.held_bytes == sum(
            block.bcost for block in cache._blocks.values()
        )

    def test_oversized_block_still_rejected(self):
        cache = BlockCache(40)
        cache.put("small", make_postings(range(4)))
        cache.put("huge", make_postings(range(50)))
        assert cache.get("huge") is None
        assert cache.get("small") is not None
        assert cache.held_bytes <= 40


class TestSegmentStoreConcurrentReads:
    def test_parallel_readers_share_handles_safely(self, tmp_path):
        """seek+read on a shared OS handle is not atomic; the store
        lock must keep concurrent cold reads exact."""
        # cache_bytes=0 forces every read to hit the segment file.
        store = SegmentStore(tmp_path, cache_bytes=0)
        expected = {}
        for i in range(30):
            key = frozenset({f"k{i}"})
            doc_ids = list(range(i * 10, i * 10 + 5))
            store.put(key, make_postings(doc_ids), 5, STATUS_DK)
            expected[key] = doc_ids
        failures = []
        start = threading.Barrier(NUM_THREADS)

        def worker(seed: int):
            def run():
                start.wait()
                items = list(expected.items())
                for round_ in range(5):
                    for key, doc_ids in items[seed:] + items[:seed]:
                        postings = store.get_postings(key)
                        got = [p.doc_id for p in postings]
                        if got != doc_ids:
                            failures.append((key, doc_ids, got))

            return run

        run_threads([worker(i * 4) for i in range(NUM_THREADS)])
        assert failures == []
