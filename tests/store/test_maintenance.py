"""Lifecycle tests for the store's background maintenance worker:
coalescing wake-ups, quiesce, and the stop()/wake() race — a wake
racing a stop must neither resurrect pending work on the stopping
thread nor let two loop threads run the task at once.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.store.maintenance import MaintenanceWorker

pytestmark = pytest.mark.concurrency


class TestBasics:
    def test_wake_runs_task_and_quiesce_waits(self):
        ran = threading.Event()
        worker = MaintenanceWorker(ran.set)
        worker.wake()
        assert worker.quiesce(timeout=5.0)
        assert ran.is_set()
        assert worker.runs == 1
        assert worker.idle
        worker.stop()

    def test_wakes_coalesce_while_running(self):
        release = threading.Event()
        entered = threading.Event()
        counts = {"runs": 0}

        def task():
            counts["runs"] += 1
            entered.set()
            release.wait(timeout=5.0)

        worker = MaintenanceWorker(task)
        worker.wake()
        assert entered.wait(timeout=5.0)
        for _ in range(10):  # all land while the first run blocks
            worker.wake()
        release.set()
        assert worker.quiesce(timeout=5.0)
        # The burst collapses into exactly one trailing run.
        assert counts["runs"] == 2
        worker.stop()

    def test_errors_are_counted_and_do_not_kill_the_thread(self):
        def boom():
            raise ValueError("nope")

        worker = MaintenanceWorker(boom)
        worker.wake()
        assert worker.quiesce(timeout=5.0)
        assert worker.errors == 1
        assert "ValueError" in (worker.last_error or "")
        worker.wake()
        assert worker.quiesce(timeout=5.0)
        assert worker.errors == 2
        worker.stop()

    def test_restarts_after_stop(self):
        counts = {"runs": 0}
        worker = MaintenanceWorker(lambda: counts.__setitem__(
            "runs", counts["runs"] + 1
        ))
        worker.wake()
        assert worker.quiesce(timeout=5.0)
        worker.stop()
        worker.wake()
        assert worker.quiesce(timeout=5.0)
        assert counts["runs"] == 2
        worker.stop()


class TestStopWakeRace:
    def test_task_runs_never_overlap_under_stop_wake_hammer(self):
        """Interleave stop() and wake() from several threads while the
        task sleeps: the generation guard must keep at most one task in
        flight, and a stale loop thread must never steal a fresh wake's
        pending run."""
        overlap = {"current": 0, "max": 0}
        gauge = threading.Lock()

        def task():
            with gauge:
                overlap["current"] += 1
                overlap["max"] = max(overlap["max"], overlap["current"])
            time.sleep(0.002)
            with gauge:
                overlap["current"] -= 1

        worker = MaintenanceWorker(task)
        stop_all = threading.Event()

        def hammer_stop():
            while not stop_all.is_set():
                worker.stop(timeout=5.0)

        def hammer_wake():
            while not stop_all.is_set():
                worker.wake()

        threads = [
            threading.Thread(target=hammer_stop),
            threading.Thread(target=hammer_wake),
            threading.Thread(target=hammer_wake),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop_all.set()
        for thread in threads:
            thread.join(timeout=10.0)
        worker.stop(timeout=10.0)
        assert overlap["max"] <= 1
        assert worker.runs > 0

    def test_wake_after_stop_does_not_rearm_old_thread(self):
        """A wake issued mid-stop services its pending run on a *fresh*
        thread; the stopping generation exits without consuming it."""
        names: list[str] = []

        def task():
            names.append(threading.current_thread().name)

        worker = MaintenanceWorker(task)
        worker.wake()
        assert worker.quiesce(timeout=5.0)
        first = worker._thread
        worker.stop(timeout=5.0)
        assert first is not None and not first.is_alive()
        worker.wake()
        assert worker.quiesce(timeout=5.0)
        assert worker._thread is not first
        assert len(names) == 2
        worker.stop()
