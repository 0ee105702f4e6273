"""Tests for traffic accounting."""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.accounting import (
    Phase,
    TrafficAccounting,
    TrafficSnapshot,
    diff_snapshots,
    merge_snapshots,
)
from repro.net.messages import MessageKind


def make_message(postings=5, hops=2, kind=MessageKind.INSERT):
    """The fields :meth:`TrafficAccounting.record` takes."""
    return kind, postings, hops


class TestPhases:
    def test_default_phase_is_indexing(self):
        assert TrafficAccounting().phase is Phase.INDEXING

    def test_set_phase(self):
        acc = TrafficAccounting()
        acc.set_phase(Phase.RETRIEVAL)
        assert acc.phase is Phase.RETRIEVAL

    def test_set_phase_type_checked(self):
        with pytest.raises(TypeError):
            TrafficAccounting().set_phase("retrieval")

    def test_messages_attributed_to_current_phase(self):
        acc = TrafficAccounting()
        acc.record(*make_message(postings=3))
        acc.set_phase(Phase.RETRIEVAL)
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
        acc.set_phase(Phase.RETRIEVAL)
        acc.record(*make_message())
        acc.reset()
        assert acc.postings(Phase.RETRIEVAL) == 0
        assert acc.phase is Phase.RETRIEVAL  # phase preserved


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
        acc.set_phase(Phase.MAINTENANCE)
        acc.record(*make_message(postings=9, kind=MessageKind.HANDOFF))
        snap = acc.snapshot()
        assert snap.maintenance_postings == 9
        assert snap.total_postings == 11

    def test_diff_snapshots(self):
        acc = TrafficAccounting()
        acc.record(*make_message(postings=4))
        before = acc.snapshot()
        acc.record(*make_message(postings=6))
        delta = diff_snapshots(before, acc.snapshot())
        assert delta.indexing_postings == 6
        assert delta.messages_by_phase[Phase.INDEXING] == 1


class TestWindows:
    def test_window_delta_counts_only_inside(self):
        acc = TrafficAccounting()
        acc.record(*make_message(postings=4))
        with acc.measure() as window:
            acc.record(*make_message(postings=6, hops=3))
        delta = window.delta
        assert delta.indexing_postings == 6
        assert delta.messages_by_phase[Phase.INDEXING] == 1
        assert delta.hops_by_phase[Phase.INDEXING] == 3

    def test_delta_frozen_after_close(self):
        acc = TrafficAccounting()
        with acc.measure() as window:
            acc.record(*make_message(postings=2))
        acc.record(*make_message(postings=100))
        assert window.delta.indexing_postings == 2

    def test_live_delta_before_close(self):
        acc = TrafficAccounting()
        window = acc.measure()
        acc.record(*make_message(postings=2))
        assert window.delta.indexing_postings == 2
        acc.record(*make_message(postings=3))
        assert window.delta.indexing_postings == 5
        window.close()

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError):
            TrafficAccounting().measure(scope="process")

    def test_nested_windows_both_count(self):
        acc = TrafficAccounting()
        with acc.measure() as outer:
            acc.record(*make_message(postings=1))
            with acc.measure() as inner:
                acc.record(*make_message(postings=2))
        assert outer.delta.indexing_postings == 3
        assert inner.delta.indexing_postings == 2


@pytest.mark.concurrency
class TestConcurrency:
    """Thread-scoped windows keep per-operation deltas exact while other
    threads record into the same accounting — the property that lets
    ``search_batch`` drop the serializing service lock."""

    def test_thread_scoped_window_ignores_other_threads(self):
        import threading

        acc = TrafficAccounting()
        start = threading.Barrier(2)
        deltas = {}

        def worker(name: str, postings: int, count: int) -> None:
            start.wait()
            with acc.measure(scope="thread") as window:
                for _ in range(count):
                    acc.record(*make_message(postings=postings, hops=1))
            deltas[name] = window.delta

        threads = [
            threading.Thread(target=worker, args=("a", 3, 400)),
            threading.Thread(target=worker, args=("b", 7, 400)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each window saw exactly its own thread's messages...
        assert deltas["a"].indexing_postings == 3 * 400
        assert deltas["b"].indexing_postings == 7 * 400
        # ...while the global totals aggregate both.
        assert acc.postings(Phase.INDEXING) == 3 * 400 + 7 * 400
        assert acc.messages(Phase.INDEXING) == 800

    def test_global_window_sees_every_thread(self):
        import threading

        acc = TrafficAccounting()
        with acc.measure(scope="global") as window:
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
        assert window.delta.indexing_postings == 1000
        assert window.delta.messages_by_phase[Phase.INDEXING] == 1000

    def test_concurrent_records_never_lost(self):
        import threading

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

    def test_phase_scope_is_thread_local(self):
        import threading

        acc = TrafficAccounting()
        acc.set_phase(Phase.RETRIEVAL)
        inside = threading.Event()
        proceed = threading.Event()

        def maintenance_worker() -> None:
            with acc.phase_scope(Phase.MAINTENANCE):
                acc.record(*make_message(postings=5, kind=MessageKind.HANDOFF))
                inside.set()
                proceed.wait()

        thread = threading.Thread(target=maintenance_worker)
        thread.start()
        inside.wait()
        # While the other thread is inside its maintenance scope, this
        # thread still records into the shared retrieval phase.
        acc.record(*make_message(postings=11))
        proceed.set()
        thread.join()
        assert acc.postings(Phase.MAINTENANCE) == 5
        assert acc.postings(Phase.RETRIEVAL) == 11

    def test_phase_scope_restores_previous_override(self):
        acc = TrafficAccounting()
        with acc.phase_scope(Phase.RETRIEVAL):
            with acc.phase_scope(Phase.MAINTENANCE):
                assert acc.phase is Phase.MAINTENANCE
            assert acc.phase is Phase.RETRIEVAL
        assert acc.phase is Phase.INDEXING

    def test_phase_scope_type_checked(self):
        acc = TrafficAccounting()
        with pytest.raises(TypeError):
            with acc.phase_scope("maintenance"):
                pass

    def test_abandoned_window_is_pruned_not_leaked(self):
        """The old snapshot-diff windows cost nothing when never
        closed; the accumulating windows must match that — an
        abandoned window is collected and dropped from the registry
        instead of taxing every later record() forever."""
        acc = TrafficAccounting()
        window = acc.measure(scope="global")
        acc.record(*make_message(postings=1))
        assert len(acc._global_windows) == 1
        del window  # abandoned without close()
        acc.record(*make_message(postings=1))
        assert acc._global_windows == []

    def test_abandoned_thread_window_is_pruned_too(self):
        acc = TrafficAccounting()
        window = acc.measure(scope="thread")
        acc.record(*make_message(postings=1))
        assert len(acc._thread_windows()) == 1
        del window
        acc.record(*make_message(postings=1))
        assert acc._thread_windows() == []


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
        st.tuples(st.just("set_phase"), st.sampled_from(list(Phase))),
        st.tuples(st.just("enter_scope"), st.sampled_from(list(Phase))),
        st.tuples(st.just("exit_scope")),
        st.tuples(st.just("open"), st.sampled_from(["global", "thread"])),
        st.tuples(st.just("close"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("reset")),
    ),
    max_size=60,
)


@pytest.mark.concurrency
@settings(max_examples=200, deadline=None)
@given(accounting_ops)
def test_cells_match_counter_model(ops):
    acc = TrafficAccounting()
    totals = CounterModel()
    shared_phase = Phase.INDEXING
    overrides: list[Phase] = []  # this thread's phase_scope stack
    open_windows: list[tuple[object, CounterModel]] = []
    closed: list[tuple[object, TrafficSnapshot]] = []

    def check():
        assert_same_snapshot(acc.snapshot(), totals.snapshot())
        for phase in Phase:
            assert acc.postings(phase) == totals.postings[phase]
            assert acc.messages(phase) == totals.messages[phase]
            assert acc.hops(phase) == totals.hops[phase]
        for window, model in open_windows:
            assert_same_snapshot(window.delta, model.snapshot())
        for window, frozen in closed:
            assert_same_snapshot(window.delta, frozen)

    with ExitStack() as scopes:
        scope_exits: list[ExitStack] = []
        for op in ops:
            name = op[0]
            if name in ("record", "record_elsewhere"):
                _, kind, postings, hops, reply = op
                fields = (kind, postings, hops, reply)
                if name == "record":
                    phase = overrides[-1] if overrides else shared_phase
                    acc.record(*fields)
                else:
                    # Another thread: no override of its own, invisible
                    # to this thread's thread-scoped windows.
                    phase = shared_phase
                    other = threading.Thread(target=acc.record, args=fields)
                    other.start()
                    other.join(timeout=10)
                    assert not other.is_alive()
                models = [totals] + [
                    model
                    for window, model in open_windows
                    if name == "record" or window.scope == "global"
                ]
                for model in models:
                    model.add(phase, kind, postings, hops)
                    if reply is not None:
                        model.add(phase, MessageKind.RESPONSE, reply, 1)
            elif name == "set_phase":
                shared_phase = op[1]
                acc.set_phase(shared_phase)
            elif name == "enter_scope":
                exit_stack = scopes.enter_context(ExitStack())
                exit_stack.enter_context(acc.phase_scope(op[1]))
                scope_exits.append(exit_stack)
                overrides.append(op[1])
            elif name == "exit_scope" and scope_exits:
                scope_exits.pop().close()
                overrides.pop()
            elif name == "open":
                open_windows.append((acc.measure(scope=op[1]), CounterModel()))
            elif name == "close" and open_windows:
                window, model = open_windows.pop(op[1] % len(open_windows))
                assert_same_snapshot(window.close(), model.snapshot())
                closed.append((window, model.snapshot()))
            elif name == "reset":
                # Totals only: open windows keep what they accumulated.
                acc.reset()
                totals = CounterModel()
            assert acc.phase is (overrides[-1] if overrides else shared_phase)
            check()
        for window, _ in open_windows:
            window.close()


def test_bare_lookup_creates_zero_valued_postings_key():
    """Fingerprints compare snapshot dicts, so a recorded message must
    create its phase's postings/hops keys even when it carries none."""
    acc = TrafficAccounting()
    acc.set_phase(Phase.RETRIEVAL)
    with acc.measure(scope="thread") as window:
        acc.record(*make_message(postings=0, hops=0, kind=MessageKind.LOOKUP))
    for snapshot in (acc.snapshot(), window.delta):
        assert snapshot.postings_by_phase == {Phase.RETRIEVAL: 0}
        assert snapshot.hops_by_phase == {Phase.RETRIEVAL: 0}
        assert snapshot.messages_by_phase == {Phase.RETRIEVAL: 1}
        assert snapshot.messages_by_kind == {MessageKind.LOOKUP: 1}


@pytest.mark.concurrency
def test_hammer_with_windows_and_phase_scopes_stays_exact():
    """Eight threads, each under its own phase_scope and thread-scoped
    window, one global window over all of them: every total exact."""
    acc = TrafficAccounting()
    phases = list(Phase)
    kinds = list(MessageKind)
    per_thread = 400
    deltas: dict[int, TrafficSnapshot] = {}

    def worker(number):
        phase = phases[number % len(phases)]
        with acc.phase_scope(phase), acc.measure(scope="thread") as window:
            for i in range(per_thread):
                acc.record(
                    *make_message(
                        postings=number, hops=i % 3,
                        kind=kinds[(number + i) % len(kinds)],
                    )
                )
        deltas[number] = window.delta

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with acc.measure(scope="global") as everything:
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
    expected_hops = sum(i % 3 for i in range(per_thread))
    for number, delta in deltas.items():
        phase = phases[number % len(phases)]
        assert delta.messages_by_phase == {phase: per_thread}
        assert delta.postings_by_phase == {phase: number * per_thread}
        assert delta.hops_by_phase == {phase: expected_hops}
        assert sum(delta.messages_by_kind.values()) == per_thread
    assert_same_snapshot(everything.delta, acc.snapshot())
    assert everything.delta == merge_snapshots(*deltas.values())
    assert acc.snapshot().total_messages == 8 * per_thread
    assert acc.snapshot().total_postings == per_thread * sum(range(8))
    assert acc.snapshot().total_hops == 8 * expected_hops
