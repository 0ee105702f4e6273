"""Tests for the memory-budgeted spilling global key index."""

from __future__ import annotations

import pytest

from repro.config import HDKParameters
from repro.errors import StoreError
from repro.index.global_index import GlobalKeyIndex, KeyStatus
from repro.index.postings import Posting, PostingList
from repro.net.network import P2PNetwork
from repro.store.spill import (
    SpilledPostings,
    SpillingGlobalKeyIndex,
    code_to_status,
    status_to_code,
)
from repro.store.store import SegmentStore
from tests.conftest import SMALL_PARAMS


def make_postings(doc_ids) -> PostingList:
    return PostingList(
        [Posting(doc_id=d, tf=2, doc_len=40) for d in doc_ids]
    )


def make_network(n_peers: int = 4) -> P2PNetwork:
    network = P2PNetwork()
    for i in range(n_peers):
        network.add_peer(f"peer-{i:03d}")
    return network


def fill(index, keys=12, span=6):
    """Insert ``keys`` disjoint keys of ``span`` postings each (a
    6-posting list encodes to 25-26 bytes, a 5-posting one to 21-22)."""
    inserted = {}
    for i in range(keys):
        key = frozenset({f"aa{i}", f"bb{i}"})
        postings = make_postings(range(i * 100, i * 100 + span))
        index.insert("peer-000", key, postings)
        inserted[key] = postings
    return inserted


class TestStatusCodes:
    def test_roundtrip(self):
        for status in KeyStatus:
            assert code_to_status(status_to_code(status)) is status

    def test_tombstone_code_rejected(self):
        with pytest.raises(StoreError):
            code_to_status(2)


class TestSpilledPostings:
    def _spilled(self, tmp_path, doc_ids=(1, 5, 9)):
        store = SegmentStore(tmp_path)
        key = frozenset({"k"})
        postings = make_postings(doc_ids)
        store.put(key, postings, len(postings), 0)
        return SpilledPostings(store, key, len(postings)), postings

    def test_len_without_io(self, tmp_path):
        stub, postings = self._spilled(tmp_path)
        assert len(stub) == len(postings)
        assert not stub.is_loaded  # len() must not touch disk

    def test_iteration_materializes(self, tmp_path):
        stub, postings = self._spilled(tmp_path)
        assert list(stub) == list(postings)
        assert stub.is_loaded

    def test_equality_and_lookup(self, tmp_path):
        stub, postings = self._spilled(tmp_path)
        assert stub == postings
        assert stub.get(5) is not None
        assert 5 in stub and 6 not in stub
        assert stub.doc_ids() == postings.doc_ids()

    def test_set_operations_return_plain_lists(self, tmp_path):
        stub, postings = self._spilled(tmp_path)
        other = make_postings((5, 77))
        union = stub.union(other)
        assert type(union) is PostingList
        assert union.doc_ids() == [1, 5, 9, 77]
        assert stub.intersect(other).doc_ids() == [5]
        assert stub.truncate_top(2).document_frequency() == 2

    def test_on_load_callback_fires_once(self, tmp_path):
        loads = []
        store = SegmentStore(tmp_path)
        key = frozenset({"k"})
        store.put(key, make_postings((1, 2)), 2, 0)
        stub = SpilledPostings(
            store, key, 2, lambda k, s: loads.append(k)
        )
        list(stub)
        list(stub)
        assert loads == [key]

    def test_missing_backing_record_raises(self, tmp_path):
        store = SegmentStore(tmp_path)
        stub = SpilledPostings(store, frozenset({"ghost"}), 3)
        with pytest.raises(StoreError):
            list(stub)

    def test_unknown_attribute_is_an_attribute_error(self, tmp_path):
        stub, _postings = self._spilled(tmp_path)
        assert not hasattr(stub, "no_such_attribute")
        assert not stub.is_loaded


#: Arguments each :class:`PostingList` method is called with below.  A
#: method added to the class without an entry here fails the test
#: until it gets one — and then it must load through the stub's hook.
METHOD_ARGS = {
    "__contains__": (5,),
    "__eq__": (make_postings((1, 5, 9)),),
    "__iter__": (),
    "__len__": (),
    "__repr__": (),
    "columns": (),
    "doc_ids": (),
    "document_frequency": (),
    "filter_docs": (lambda doc_id: doc_id != 5,),
    "get": (5,),
    "intersect": (make_postings((5, 77)),),
    "resident": (),
    "truncate_top": (2,),
    "union": (make_postings((5, 77)),),
}

#: Methods a cold stub answers from directory metadata, without loading.
METADATA_ONLY = {"__len__", "__repr__", "document_frequency"}


def posting_list_methods() -> list[str]:
    """Every public method of PostingList, plus the container dunders
    it defines itself."""
    return sorted(
        name
        for name, member in vars(PostingList).items()
        if callable(member)
        and name != "__init__"
        and (not name.startswith("_") or name.startswith("__"))
    )


def comparable(answer):
    if isinstance(answer, PostingList):
        assert type(answer) is PostingList  # plain, never the stub
        return ("list", answer.columns())
    if hasattr(answer, "__next__"):
        return ("iterator", list(answer))
    return answer


@pytest.mark.parametrize("name", posting_list_methods())
def test_every_method_loads_a_cold_stub_once(tmp_path, name):
    store = SegmentStore(tmp_path)
    key = frozenset({"k"})
    plain = make_postings((1, 5, 9))
    store.put(key, plain, len(plain), 0)
    loads = []
    stub = SpilledPostings(
        store, key, len(plain), lambda k, s: loads.append(k)
    )
    args = METHOD_ARGS[name]
    answer = getattr(stub, name)(*args)
    again = getattr(stub, name)(*args)
    if name in METADATA_ONLY:
        assert loads == [] and not stub.is_loaded
    else:
        assert loads == [key] and stub.is_loaded
    if name != "__repr__":
        for got in (answer, again):
            expected = getattr(plain, name)(*args)
            assert comparable(got) == comparable(expected)


class TestSpillingIndex:
    def test_budget_enforced_after_inserts(self, tmp_path):
        index = SpillingGlobalKeyIndex(
            make_network(), SMALL_PARAMS, store_dir=tmp_path,
            memory_budget_bytes=80,  # three lists
        )
        fill(index, keys=12, span=6)
        assert index.spill_stats()["hot_charge"] <= 80
        assert 0 < index.hot_keys <= 3
        assert index.spill_stats()["spills"] > 0
        # every entry is still reported at full length
        assert index.stored_postings_total() == 12 * 6

    def test_zero_budget_spills_everything(self, tmp_path):
        index = SpillingGlobalKeyIndex(
            make_network(), SMALL_PARAMS, store_dir=tmp_path,
            memory_budget_bytes=0,
        )
        fill(index, keys=5)
        assert index.hot_postings == 0
        assert index.hot_keys == 0

    def test_lookup_parity_with_in_memory_index(self, tmp_path):
        params = SMALL_PARAMS
        plain = GlobalKeyIndex(make_network(), params)
        spilling = SpillingGlobalKeyIndex(
            make_network(),
            params,
            store_dir=tmp_path,
            memory_budget_bytes=45,  # two of the ten lists
        )
        for index in (plain, spilling):
            fill(index, keys=10, span=5)
        for i in range(10):
            key = frozenset({f"aa{i}", f"bb{i}"})
            a = plain.lookup("peer-001", key)
            b = spilling.lookup("peer-001", key)
            assert a is not None and b is not None
            assert a.status is b.status
            assert a.global_df == b.global_df
            assert list(a.postings) == list(b.postings)

    def test_lookup_traffic_counts_spilled_length(self, tmp_path):
        network = make_network()
        index = SpillingGlobalKeyIndex(
            network, SMALL_PARAMS, store_dir=tmp_path, memory_budget_bytes=0
        )
        key = frozenset({"aa0", "bb0"})
        index.insert("peer-000", key, make_postings(range(7)))
        before = network.accounting.snapshot().total_postings
        entry = index.lookup("peer-001", key)
        after = network.accounting.snapshot().total_postings
        assert after - before == 7  # response carries the stored length
        assert isinstance(entry.postings, SpilledPostings)

    def test_reheat_on_read_respects_budget(self, tmp_path):
        index = SpillingGlobalKeyIndex(
            make_network(), SMALL_PARAMS, store_dir=tmp_path,
            memory_budget_bytes=52,  # two lists
        )
        inserted = fill(index, keys=8, span=6)
        for key, postings in inserted.items():
            entry = index.lookup("peer-002", key)
            assert list(entry.postings) == list(postings)  # materializes
            assert index.spill_stats()["hot_charge"] <= 52
            assert index.hot_keys <= 2
        assert index.spill_stats()["reloads"] > 0

    def test_insert_merges_through_spilled_entry(self, tmp_path):
        index = SpillingGlobalKeyIndex(
            make_network(), SMALL_PARAMS, store_dir=tmp_path,
            memory_budget_bytes=0,
        )
        key = frozenset({"aa0", "bb0"})
        index.insert("peer-000", key, make_postings((1, 2)))
        index.insert("peer-001", key, make_postings((10, 11)))
        entry = index.lookup("peer-002", key)
        assert entry.global_df == 4
        assert entry.postings.doc_ids() == [1, 2, 10, 11]

    def test_ndk_truncation_preserved(self, tmp_path):
        params = HDKParameters(
            df_max=3, window_size=8, s_max=3, ff=3_000, fr=3
        )
        index = SpillingGlobalKeyIndex(
            make_network(), params, store_dir=tmp_path, memory_budget_bytes=0
        )
        key = frozenset({"aa0"})
        status = index.insert("peer-000", key, make_postings(range(5)))
        assert status is KeyStatus.NON_DISCRIMINATIVE
        entry = index.lookup("peer-001", key)
        assert len(entry.postings) == 3  # truncated to df_max
        assert entry.global_df == 5
        assert entry.is_truncated

    def test_spill_all(self, tmp_path):
        index = SpillingGlobalKeyIndex(
            make_network(), SMALL_PARAMS, store_dir=tmp_path,
            memory_budget_bytes=10_000,
        )
        fill(index, keys=6)
        assert index.hot_postings > 0
        index.spill_all()
        assert index.hot_postings == 0
        assert index.stored_postings_total() == 6 * 6

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            SpillingGlobalKeyIndex(
                make_network(), SMALL_PARAMS, store_dir=tmp_path,
                memory_budget_bytes=-1,
            )
