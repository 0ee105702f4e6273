"""Tests for traffic accounting."""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.accounting import (
    Phase,
    TrafficAccounting,
    TrafficSnapshot,
    merge_snapshots,
)
from repro.net.messages import MessageKind


def make_message(postings=5, hops=2, kind=MessageKind.INSERT):
    """The fields :meth:`TrafficAccounting.record` takes."""
    return kind, postings, hops


class TestPhases:
    def test_default_phase_is_indexing(self):
        assert TrafficAccounting().phase is Phase.INDEXING

    def test_charge_sets_phase(self):
        acc = TrafficAccounting()
        with acc.charge(Phase.RETRIEVAL):
            assert acc.phase is Phase.RETRIEVAL
        assert acc.phase is Phase.INDEXING

    def test_charge_type_checked(self):
        with pytest.raises(TypeError):
            TrafficAccounting().charge("retrieval")

    def test_messages_attributed_to_current_phase(self):
        acc = TrafficAccounting()
        acc.record(*make_message(postings=3))
        with acc.charge(Phase.RETRIEVAL):
            acc.record(*make_message(postings=7))
        assert acc.postings(Phase.INDEXING) == 3
        assert acc.postings(Phase.RETRIEVAL) == 7


class TestCounters:
    def test_postings_messages_hops(self):
        acc = TrafficAccounting()
        acc.record(*make_message(postings=5, hops=2))
        acc.record(*make_message(postings=1, hops=4))
        assert acc.postings(Phase.INDEXING) == 6
        assert acc.messages(Phase.INDEXING) == 2
        assert acc.hops(Phase.INDEXING) == 6

    def test_by_kind(self):
        acc = TrafficAccounting()
        acc.record(*make_message(kind=MessageKind.INSERT))
        acc.record(*make_message(kind=MessageKind.LOOKUP))
        acc.record(*make_message(kind=MessageKind.LOOKUP))
        snap = acc.snapshot()
        assert snap.messages_by_kind[MessageKind.LOOKUP] == 2
        assert snap.messages_by_kind[MessageKind.INSERT] == 1

    def test_reset(self):
        acc = TrafficAccounting()
        with acc.charge(Phase.RETRIEVAL) as charge:
            acc.record(*make_message())
            acc.reset()
            assert acc.postings(Phase.RETRIEVAL) == 0
            assert acc.phase is Phase.RETRIEVAL  # the open charge stays
        assert charge.snapshot().retrieval_postings == 5  # and keeps its count


class TestSnapshots:
    def test_snapshot_is_immutable_copy(self):
        acc = TrafficAccounting()
        acc.record(*make_message(postings=5))
        snap = acc.snapshot()
        acc.record(*make_message(postings=5))
        assert snap.indexing_postings == 5
        assert acc.snapshot().indexing_postings == 10

    def test_total_postings_includes_maintenance(self):
        acc = TrafficAccounting()
        acc.record(*make_message(postings=2))
        with acc.charge(Phase.MAINTENANCE):
            acc.record(*make_message(postings=9, kind=MessageKind.HANDOFF))
        snap = acc.snapshot()
        assert snap.maintenance_postings == 9
        assert snap.total_postings == 11


class TestWindows:
    """A charge is the measurement window of one operation."""

    def test_window_delta_counts_only_inside(self):
        acc = TrafficAccounting()
        acc.record(*make_message(postings=4))
        with acc.charge(Phase.INDEXING) as charge:
            acc.record(*make_message(postings=6, hops=3))
        delta = charge.snapshot()
        assert delta.indexing_postings == 6
        assert delta.messages_by_phase[Phase.INDEXING] == 1
        assert delta.hops_by_phase[Phase.INDEXING] == 3

    def test_delta_frozen_after_close(self):
        acc = TrafficAccounting()
        with acc.charge(Phase.INDEXING) as charge:
            acc.record(*make_message(postings=2))
        acc.record(*make_message(postings=100))
        assert charge.snapshot().indexing_postings == 2

    def test_live_delta_before_close(self):
        acc = TrafficAccounting()
        with acc.charge(Phase.INDEXING) as charge:
            acc.record(*make_message(postings=2))
            assert charge.snapshot().indexing_postings == 2
            acc.record(*make_message(postings=3))
            assert charge.snapshot().indexing_postings == 5

    def test_nested_windows_both_count(self):
        acc = TrafficAccounting()
        with acc.charge(Phase.INDEXING) as outer:
            acc.record(*make_message(postings=1))
            with acc.charge(Phase.INDEXING) as inner:
                acc.record(*make_message(postings=2))
            # The inner charge folds into the outer one when it closes.
            assert outer.snapshot().indexing_postings == 3
        assert outer.snapshot().indexing_postings == 3
        assert inner.snapshot().indexing_postings == 2

    def test_maintenance_inside_retrieval_stays_in_the_query(self):
        """A MAINTENANCE fan-out fired mid-query counts as MAINTENANCE
        and folds into the query's tally; the query's own messages stay
        RETRIEVAL."""
        acc = TrafficAccounting()
        with acc.charge(Phase.RETRIEVAL) as query:
            acc.record(MessageKind.LOOKUP, 0, 3, reply=4)
            with acc.charge(Phase.MAINTENANCE) as fan_out:
                assert acc.phase is Phase.MAINTENANCE
                acc.record(MessageKind.CACHE_INVALIDATE, 0, 1)
                acc.record(MessageKind.ROUTING_UPDATE, 2, 1)
            assert acc.phase is Phase.RETRIEVAL
            acc.record(MessageKind.LOOKUP, 0, 2, reply=1)
        assert fan_out.snapshot() == TrafficSnapshot(
            postings_by_phase={Phase.MAINTENANCE: 2},
            messages_by_phase={Phase.MAINTENANCE: 2},
            hops_by_phase={Phase.MAINTENANCE: 2},
            messages_by_kind={
                MessageKind.CACHE_INVALIDATE: 1,
                MessageKind.ROUTING_UPDATE: 1,
            },
        )
        assert query.snapshot() == TrafficSnapshot(
            postings_by_phase={Phase.RETRIEVAL: 5, Phase.MAINTENANCE: 2},
            messages_by_phase={Phase.RETRIEVAL: 4, Phase.MAINTENANCE: 2},
            hops_by_phase={Phase.RETRIEVAL: 7, Phase.MAINTENANCE: 2},
            messages_by_kind={
                MessageKind.LOOKUP: 2,
                MessageKind.RESPONSE: 2,
                MessageKind.CACHE_INVALIDATE: 1,
                MessageKind.ROUTING_UPDATE: 1,
            },
        )
        assert acc.snapshot() == query.snapshot()

    def test_charge_closes_on_error(self):
        acc = TrafficAccounting()
        with pytest.raises(RuntimeError):
            with acc.charge(Phase.MAINTENANCE):
                raise RuntimeError("boom")
        assert acc.phase is Phase.INDEXING


@pytest.mark.concurrency
class TestConcurrency:
    """A charge lives in a ContextVar, so each thread counts only its
    own messages while other threads record into the same accounting."""

    def test_thread_scoped_window_ignores_other_threads(self):
        acc = TrafficAccounting()
        start = threading.Barrier(2)
        deltas = {}

        def worker(name: str, postings: int, count: int) -> None:
            start.wait()
            with acc.charge(Phase.INDEXING) as charge:
                for _ in range(count):
                    acc.record(*make_message(postings=postings, hops=1))
            deltas[name] = charge.snapshot()

        threads = [
            threading.Thread(target=worker, args=("a", 3, 400)),
            threading.Thread(target=worker, args=("b", 7, 400)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each charge saw exactly its own thread's messages...
        assert deltas["a"].indexing_postings == 3 * 400
        assert deltas["b"].indexing_postings == 7 * 400
        # ...while the global totals aggregate both.
        assert acc.postings(Phase.INDEXING) == 3 * 400 + 7 * 400
        assert acc.messages(Phase.INDEXING) == 800

    def test_global_window_sees_every_thread(self):
        """The totals see every thread; a charge open in this thread
        sees none of the others' messages."""
        acc = TrafficAccounting()
        with acc.charge(Phase.RETRIEVAL) as charge:
            threads = [
                threading.Thread(
                    target=lambda: [
                        acc.record(*make_message(postings=1))
                        for _ in range(250)
                    ]
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert acc.snapshot().indexing_postings == 1000
        assert acc.snapshot().messages_by_phase == {Phase.INDEXING: 1000}
        assert charge.snapshot().total_messages == 0

    def test_concurrent_records_never_lost(self):
        acc = TrafficAccounting()
        threads = [
            threading.Thread(
                target=lambda: [
                    acc.record(*make_message(postings=2, hops=3))
                    for _ in range(500)
                ]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert acc.messages(Phase.INDEXING) == 4000
        assert acc.postings(Phase.INDEXING) == 8000
        assert acc.hops(Phase.INDEXING) == 12000

    def test_charge_phase_is_context_local(self):
        acc = TrafficAccounting()
        inside = threading.Event()
        proceed = threading.Event()

        def maintenance_worker() -> None:
            with acc.charge(Phase.MAINTENANCE):
                acc.record(*make_message(postings=5, kind=MessageKind.HANDOFF))
                inside.set()
                proceed.wait()

        thread = threading.Thread(target=maintenance_worker)
        with acc.charge(Phase.RETRIEVAL):
            thread.start()
            inside.wait()
            # While the other thread is inside its maintenance charge,
            # this thread still records under its own retrieval charge.
            acc.record(*make_message(postings=11))
            proceed.set()
            thread.join()
        assert acc.postings(Phase.MAINTENANCE) == 5
        assert acc.postings(Phase.RETRIEVAL) == 11

    def test_nested_charge_restores_the_outer_phase(self):
        acc = TrafficAccounting()
        with acc.charge(Phase.RETRIEVAL):
            with acc.charge(Phase.MAINTENANCE):
                assert acc.phase is Phase.MAINTENANCE
            assert acc.phase is Phase.RETRIEVAL
        assert acc.phase is Phase.INDEXING

    def test_charges_of_two_accountings_are_separate(self):
        first, second = TrafficAccounting(), TrafficAccounting()
        with first.charge(Phase.RETRIEVAL) as charge:
            second.record(*make_message(postings=4))
        assert charge.snapshot().total_messages == 0
        assert second.snapshot().indexing_postings == 4

    def test_abandoned_window_is_pruned_not_leaked(self):
        """A charge that is never opened is registered nowhere: later
        records neither pay for it nor count into it."""
        acc = TrafficAccounting()
        charge = acc.charge(Phase.RETRIEVAL)
        acc.record(*make_message(postings=1))
        assert charge.snapshot().total_messages == 0
        assert acc.snapshot().messages_by_phase == {Phase.INDEXING: 1}

    def test_abandoned_thread_window_is_pruned_too(self):
        """A charge left open by a thread that ended stays in that
        thread's context: it absorbs no later message."""
        acc = TrafficAccounting()
        abandoned = []

        def abandon() -> None:
            abandoned.append(acc.charge(Phase.RETRIEVAL).__enter__())
            acc.record(*make_message(postings=1))

        thread = threading.Thread(target=abandon)
        thread.start()
        thread.join()
        assert acc.phase is Phase.INDEXING
        acc.record(*make_message(postings=1))
        assert abandoned[0].snapshot().messages_by_phase == {
            Phase.RETRIEVAL: 1
        }
        assert acc.snapshot().messages_by_phase == {
            Phase.RETRIEVAL: 1, Phase.INDEXING: 1
        }


# -- cell-based accounting vs a plain-Counter model --------------------------------


class CounterModel:
    """The accounting semantics spelled with one ``Counter`` per
    dimension: what the flat integer cells must be indistinguishable
    from, down to which keys exist (``counter[phase] += 0`` creates the
    key) and what ``as_dict()`` serializes to."""

    def __init__(self):
        self.postings = Counter()
        self.messages = Counter()
        self.hops = Counter()
        self.kinds = Counter()

    def add(self, phase, kind, postings, hops):
        self.postings[phase] += postings
        self.messages[phase] += 1
        self.hops[phase] += hops
        self.kinds[kind] += 1

    def snapshot(self):
        return TrafficSnapshot(
            postings_by_phase=dict(self.postings),
            messages_by_phase=dict(self.messages),
            hops_by_phase=dict(self.hops),
            messages_by_kind=dict(self.kinds),
        )


def assert_same_snapshot(actual, expected):
    assert actual == expected  # dict equality: zero values and key presence
    assert json.dumps(actual.as_dict()) == json.dumps(expected.as_dict())


accounting_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["record", "record_elsewhere"]),
            st.sampled_from(list(MessageKind)),
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=6),
            # A lookup's one-hop response, counted in the same call.
            st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
        ),
        st.tuples(st.just("open"), st.sampled_from(list(Phase))),
        st.tuples(st.just("close")),
        st.tuples(st.just("reset")),
    ),
    max_size=60,
)


def fold(outer, inner):
    """``outer += inner``, keeping zero-valued keys (``Counter.update``
    adds instead of replacing, and creates every key it sees)."""
    for dimension in ("postings", "messages", "hops", "kinds"):
        getattr(outer, dimension).update(getattr(inner, dimension))


@pytest.mark.concurrency
@settings(max_examples=200, deadline=None)
@given(accounting_ops)
def test_cells_match_counter_model(ops):
    """Random nested charges of random phases, with records (here and
    on another thread) and snapshots in between, against one Counter
    model per open charge and one for the totals."""
    acc = TrafficAccounting()
    totals = CounterModel()
    open_charges: list[tuple[object, Phase, CounterModel]] = []
    closed: list[tuple[object, TrafficSnapshot]] = []

    def check():
        assert_same_snapshot(acc.snapshot(), totals.snapshot())
        for phase in Phase:
            assert acc.postings(phase) == totals.postings[phase]
            assert acc.messages(phase) == totals.messages[phase]
            assert acc.hops(phase) == totals.hops[phase]
        for charge, _, model in open_charges:
            assert_same_snapshot(charge.snapshot(), model.snapshot())
        for charge, frozen in closed:
            assert_same_snapshot(charge.snapshot(), frozen)

    try:
        for op in ops:
            name = op[0]
            if name in ("record", "record_elsewhere"):
                _, kind, postings, hops, reply = op
                fields = (kind, postings, hops, reply)
                models = [totals]
                if name == "record":
                    phase = Phase.INDEXING
                    if open_charges:
                        _, phase, innermost = open_charges[-1]
                        models.append(innermost)
                    acc.record(*fields)
                else:
                    # Another thread: its own (empty) context, so no
                    # charge of this one sees the message.
                    phase = Phase.INDEXING
                    other = threading.Thread(target=acc.record, args=fields)
                    other.start()
                    other.join(timeout=10)
                    assert not other.is_alive()
                for model in models:
                    model.add(phase, kind, postings, hops)
                    if reply is not None:
                        model.add(phase, MessageKind.RESPONSE, reply, 1)
            elif name == "open":
                charge = acc.charge(op[1]).__enter__()
                open_charges.append((charge, op[1], CounterModel()))
            elif name == "close" and open_charges:
                charge, _, model = open_charges.pop()
                charge.__exit__(None, None, None)
                if open_charges:
                    fold(open_charges[-1][2], model)
                closed.append((charge, model.snapshot()))
            elif name == "reset":
                # Totals only: open charges keep what they counted.
                acc.reset()
                totals = CounterModel()
            expected = open_charges[-1][1] if open_charges else Phase.INDEXING
            assert acc.phase is expected
            check()
    finally:
        while open_charges:
            open_charges.pop()[0].__exit__(None, None, None)


def test_bare_lookup_creates_zero_valued_postings_key():
    """Fingerprints compare snapshot dicts, so a recorded message must
    create its phase's postings/hops keys even when it carries none."""
    acc = TrafficAccounting()
    with acc.charge(Phase.RETRIEVAL) as charge:
        acc.record(*make_message(postings=0, hops=0, kind=MessageKind.LOOKUP))
    for snapshot in (acc.snapshot(), charge.snapshot()):
        assert snapshot.postings_by_phase == {Phase.RETRIEVAL: 0}
        assert snapshot.hops_by_phase == {Phase.RETRIEVAL: 0}
        assert snapshot.messages_by_phase == {Phase.RETRIEVAL: 1}
        assert snapshot.messages_by_kind == {MessageKind.LOOKUP: 1}


@pytest.mark.concurrency
def test_hammer_with_charges_stays_exact():
    """Eight threads, each under one charge of its own phase with a
    charge of another phase nested inside for half its messages: every
    tally exact, and the totals equal the merge of the outer tallies."""
    acc = TrafficAccounting()
    phases = list(Phase)
    kinds = list(MessageKind)
    per_thread = 400
    outers: dict[int, TrafficSnapshot] = {}
    inners: dict[int, list[TrafficSnapshot]] = {}

    def send(number, i):
        acc.record(
            *make_message(
                postings=number, hops=i % 3,
                kind=kinds[(number + i) % len(kinds)],
            )
        )

    def worker(number):
        phase = phases[number % len(phases)]
        nested = phases[(number + 1) % len(phases)]
        with acc.charge(phase) as outer:
            for i in range(0, per_thread, 2):
                send(number, i)
                with acc.charge(nested) as inner:
                    send(number, i + 1)
                inners.setdefault(number, []).append(inner.snapshot())
        outers[number] = outer.snapshot()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(number,))
            for number in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    half = per_thread // 2
    even_hops = sum(i % 3 for i in range(0, per_thread, 2))
    odd_hops = sum(i % 3 for i in range(1, per_thread, 2))
    for number, outer in outers.items():
        phase = phases[number % len(phases)]
        nested = phases[(number + 1) % len(phases)]
        inner = merge_snapshots(*inners[number])
        assert inner.messages_by_phase == {nested: half}
        assert inner.postings_by_phase == {nested: number * half}
        assert inner.hops_by_phase == {nested: odd_hops}
        assert outer.messages_by_phase == {phase: half, nested: half}
        assert outer.postings_by_phase == {
            phase: number * half, nested: number * half
        }
        assert outer.hops_by_phase == {phase: even_hops, nested: odd_hops}
        assert sum(outer.messages_by_kind.values()) == per_thread
    assert_same_snapshot(acc.snapshot(), merge_snapshots(*outers.values()))
    assert acc.snapshot().total_messages == 8 * per_thread
    assert acc.snapshot().total_postings == per_thread * sum(range(8))
    assert acc.snapshot().total_hops == 8 * (even_hops + odd_hops)
