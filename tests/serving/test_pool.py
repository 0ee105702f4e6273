"""Worker pool tests: correctness vs the direct service, pickle-safe
stats, lifecycle errors, crash → respawn fault injection, and the
transport itself (reply/death ordering, one reader thread, shutdown)."""

from __future__ import annotations

import asyncio
import json
import pickle
import subprocess
import sys
import threading
import time

import pytest

from repro.config import ServiceConfig
from repro.errors import ConfigurationError, ReproError
from repro.serving import pool as pool_module
from repro.serving.pool import (
    PoolShutdownError,
    WorkerCrashError,
    WorkerPool,
    WorkerRequestError,
    WorkerSpec,
    response_payload,
)

pytestmark = pytest.mark.concurrency


def _comparable(payload):
    """Everything deterministic in a search payload (timing excluded)."""
    return {k: v for k, v in payload.items() if k != "elapsed_ms"}


@pytest.fixture(scope="module")
def pool(snapshot_dir):
    spec = WorkerSpec(
        snapshot=str(snapshot_dir),
        config=ServiceConfig(cache_capacity=None),
    )
    with WorkerPool(spec, size=2) as running:
        yield running


class TestPoolServing:
    def test_search_matches_direct_service(
        self, pool, direct_service, query_log
    ):
        for query in query_log[:6]:
            got = pool.submit(
                "search", {"query": query, "k": 10}
            ).result(timeout=30)
            expected = response_payload(direct_service.search(query, k=10))
            assert _comparable(got) == _comparable(expected)

    def test_search_batch_matches_direct_service(
        self, pool, direct_service, query_log
    ):
        got = pool.submit(
            "search_batch", {"queries": list(query_log), "k": 5}
        ).result(timeout=60)
        assert len(got["responses"]) == len(query_log)
        for query, payload in zip(query_log, got["responses"]):
            expected = response_payload(direct_service.search(query, k=5))
            assert _comparable(payload) == _comparable(expected)

    def test_parallel_submissions_all_complete(self, pool, query_log):
        futures = [
            pool.submit("search", {"query": query, "k": 5})
            for query in query_log * 3
        ]
        payloads = [f.result(timeout=60) for f in futures]
        assert all(p["results"] for p in payloads)
        stats = pool.stats()
        # least-loaded dispatch spreads work over both workers
        assert all(w["served"] > 0 for w in stats["per_worker"])

    def test_worker_stats_are_plain_data(self, pool):
        gathered = pool.worker_stats()
        assert len(gathered) == pool.size
        for stats in gathered:
            assert "error" not in stats, stats
            assert stats["backend"]
            assert pickle.loads(pickle.dumps(stats)) == stats
            assert json.loads(json.dumps(stats)) == stats

    def test_pool_stats_counters(self, pool):
        stats = pool.stats()
        assert stats["size"] == 2
        assert stats["alive"] == 2
        assert stats["completed"] > 0
        assert len(stats["per_worker"]) == 2
        assert json.loads(json.dumps(stats)) == stats

    def test_unknown_method_reports_worker_error(self, pool):
        with pytest.raises(ReproError, match="unknown method"):
            pool.submit("bogus", {}).result(timeout=30)

    def test_worker_error_names_the_exception_class(self, pool):
        """The class name rides next to the repr, so the gateway can
        tell a bad query (400) from a server fault (500)."""
        with pytest.raises(WorkerRequestError) as bogus:
            pool.submit("bogus", {}).result(timeout=30)
        assert bogus.value.kind == "ValueError"
        with pytest.raises(WorkerRequestError, match="empty") as empty:
            pool.submit("search", {"query": "!!!", "k": 3}).result(timeout=30)
        assert empty.value.kind == "RetrievalError"
        # an error reply is a completed request: the worker is untouched
        assert pool.stats()["respawns"] == 0


class TestTransport:
    def test_one_reader_thread_and_nothing_polling(self, pool):
        names = [thread.name for thread in threading.enumerate()]
        assert [n for n in names if n.startswith("pool-")] == ["pool-loop"]
        assert "pool-collector" not in names and "pool-monitor" not in names
        assert not hasattr(pool_module, "_POLL_S")

    def test_importing_the_pool_does_not_import_asyncio(self):
        """Every worker process — and every ledger workload's process —
        imports this module; asyncio would cost each ~2.4 MiB."""
        probe = (
            "import repro.serving.pool, sys; "
            "assert 'asyncio' not in sys.modules"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, timeout=60
        )
        assert done.returncode == 0, done.stderr.decode()

    def test_ready_needs_every_workers_handshake(self, snapshot_dir):
        """The handler itself: one handshake of two is not ready."""
        pool = WorkerPool(WorkerSpec(snapshot=str(snapshot_dir)), size=2)
        first, second = pool._slots
        pool._deliver(first, ("__ready__", 4001))
        assert not pool._ready.is_set()
        assert pool.stats()["ready"] == 1
        pool._deliver(second, ("__ready__", 4002))
        assert pool._ready.is_set()
        assert pool.stats()["ready"] == 2

    def test_started_pool_reports_every_worker_ready(self, pool):
        stats = pool.stats()
        assert stats["ready"] == stats["alive"] == pool.size

    def test_reply_written_before_a_crash_is_never_lost(
        self, snapshot_dir, query_log
    ):
        """Death is the end-of-file on the worker's connection, which
        arrives after every reply it wrote: the request ahead of the
        crash always resolves, the crash itself always fails."""
        spec = WorkerSpec(
            snapshot=str(snapshot_dir),
            config=ServiceConfig(cache_capacity=None),
        )
        search = {"query": query_log[0], "k": 5}
        with WorkerPool(spec, size=1) as pool:
            for _round in range(20):
                ok = pool.submit_to(0, "search", dict(search))
                crashed = pool.submit_to(0, "crash", {})
                assert ok.result(timeout=30)["results"]
                with pytest.raises(WorkerCrashError):
                    crashed.result(timeout=30)
            # the slot serves again (buffered for the last replacement)
            assert pool.submit("search", dict(search)).result(30)["results"]
            stats = pool.stats()
            assert stats["respawns"] == 20
            assert stats["alive"] == stats["ready"] == 1

    def test_submit_never_blocks_and_keeps_frames_whole(
        self, snapshot_dir, query_log, direct_service
    ):
        """Requests far beyond the socket buffer, to a worker that is
        not reading: ``submit`` returns at once, and a ``pool-flush``
        thread delivers every frame intact and in order, then exits."""
        spec = WorkerSpec(
            snapshot=str(snapshot_dir),
            config=ServiceConfig(cache_capacity=None),
        )

        def flushing():
            return any(t.name == "pool-flush" for t in threading.enumerate())

        with WorkerPool(spec, size=1) as pool:
            busy = pool.submit_to(0, "hang", {"seconds": 1.0})
            started = time.monotonic()
            padded = [
                pool.submit("search", {"query": " " * 300_000 + q, "k": 5})
                for q in query_log[:4]
            ]
            small = pool.submit("search", {"query": query_log[4], "k": 5})
            assert time.monotonic() - started < 0.5
            assert flushing()
            assert busy.result(timeout=30) == {}
            for query, future in zip(query_log[:5], [*padded, small]):
                expected = response_payload(direct_service.search(query, k=5))
                got = future.result(timeout=30)
                assert _comparable(got) == _comparable(expected)
            deadline = time.monotonic() + 5.0
            while flushing() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not flushing()

    def test_reader_returned_before_it_arrived_stays_home(
        self, pool, query_log
    ):
        """Lend and take back at once: the borrower's half of the
        hand-over runs late, finds the reader gone home, and must not
        start watching connections the home loop reads again."""
        search = {"query": query_log[0], "k": 5}
        borrower = asyncio.new_event_loop()
        try:
            assert pool.lend_reader(borrower) is True
            pool.return_reader(borrower)
            assert pool.submit("search", dict(search)).result(30)["results"]
            borrower.run_until_complete(asyncio.sleep(0.05))  # its late half
            for slot in pool._slots:
                assert borrower.remove_reader(slot.conn.fileno()) is False
            assert pool.submit("search", dict(search)).result(30)["results"]
        finally:
            borrower.close()

    def test_shutdown_fails_inflight_and_stops_the_home_loop(
        self, snapshot_dir, query_log
    ):
        spec = WorkerSpec(
            snapshot=str(snapshot_dir),
            config=ServiceConfig(cache_capacity=None),
        )
        pool = WorkerPool(spec, size=1)
        pool.start()
        running = pool.submit_to(0, "hang", {"seconds": 1.0})
        queued = pool.submit("search", {"query": query_log[0], "k": 5})
        pool.shutdown()
        for future in (running, queued):
            with pytest.raises(PoolShutdownError):
                future.result(timeout=5)
        assert pool.alive_workers == 0
        assert not pool._home_thread.is_alive()
        assert pool._home.is_closed()
        # the read side is nobody's now: hand-overs are no-ops
        stranger = asyncio.new_event_loop()
        try:
            assert pool.lend_reader(stranger) is False
            pool.return_reader(stranger)
        finally:
            stranger.close()
        pool.shutdown()  # idempotent


class TestWorkerConfig:
    def test_spec_pickles_with_its_config(self, pool):
        assert pickle.loads(pickle.dumps(pool.spec)) == pool.spec
        assert pool.spec.config.cache_capacity is None

    def test_workers_load_with_the_specs_config(self, pool, query_log):
        """The pool's spec turns the query cache off: a repeated query
        is never a hit in any worker."""
        for _ in range(2 * pool.size):
            pool.submit("search", {"query": query_log[0], "k": 5}).result(30)
        stats = pool.worker_stats()
        assert len(stats) == pool.size
        assert [worker["cache_hits"] for worker in stats] == [0] * pool.size


class TestPoolLifecycle:
    def test_size_must_be_positive(self, snapshot_dir):
        spec = WorkerSpec(snapshot=str(snapshot_dir))
        with pytest.raises(ConfigurationError, match="pool size"):
            WorkerPool(spec, size=0)

    def test_missing_snapshot_rejected(self, tmp_path):
        spec = WorkerSpec(snapshot=str(tmp_path / "nowhere"))
        with pytest.raises(ConfigurationError, match="snapshot"):
            WorkerPool(spec, size=1)

    def test_submit_before_start_rejected(self, snapshot_dir):
        pool = WorkerPool(WorkerSpec(snapshot=str(snapshot_dir)), size=1)
        with pytest.raises(PoolShutdownError):
            pool.submit("search", {"query": "a", "k": 1})

    def test_unloadable_spec_fails_start_with_the_workers_reason(
        self, snapshot_dir
    ):
        """A spec no worker can load (``centralized`` cannot serve
        snapshots) fails start() on the first load failure — with the
        worker's own error — instead of respawning until the ready
        timeout and reporting only "not ready"."""
        spec = WorkerSpec(snapshot=str(snapshot_dir), backend="centralized")
        pool = WorkerPool(spec, size=1)
        started = time.monotonic()
        with pytest.raises(ConfigurationError) as excinfo:
            pool.start()
        assert time.monotonic() - started < 10.0
        message = str(excinfo.value)
        assert "worker 0 failed to load" in message
        assert "cannot serve snapshots" in message
        # start() shut the pool down on its way out.
        with pytest.raises(PoolShutdownError):
            pool.submit("search", {"query": "a", "k": 1})


def test_crash_respawns_without_dropping_other_inflight(
    snapshot_dir, direct_service, query_log
):
    """Kill worker 0 while worker 1 has a long batch in flight: only
    worker 0's requests fail, the batch completes untouched, and the
    respawned worker 0 serves again."""
    spec = WorkerSpec(
        snapshot=str(snapshot_dir),
        config=ServiceConfig(cache_capacity=None),
    )
    with WorkerPool(spec, size=2) as pool:
        # A stall keeps worker 1's batch genuinely in flight.
        pool.submit_to(1, "hang", {"seconds": 1.0})
        inflight = pool.submit_to(
            1, "search_batch", {"queries": list(query_log) * 3, "k": 5}
        )
        # Occupy worker 0 for a few hundred ms so the crash and the
        # doomed request both sit queued behind it — otherwise a slow
        # test thread could lose the race against the monitor's respawn
        # and the "doomed" request would be served by the replacement.
        occupy = pool.submit_to(0, "hang", {"seconds": 0.5})
        crashed = pool.submit_to(0, "crash", {})
        doomed = pool.submit_to(0, "search", {"query": query_log[0], "k": 5})

        # the request running before the crash completes normally...
        assert occupy.result(timeout=60) == {}
        # ...both requests behind the crash fail fast...
        with pytest.raises(WorkerCrashError):
            crashed.result(timeout=30)
        with pytest.raises(WorkerCrashError):
            doomed.result(timeout=30)

        # ...while the other worker's batch is untouched
        batch = inflight.result(timeout=60)
        assert len(batch["responses"]) == len(query_log) * 3
        expected = response_payload(direct_service.search(query_log[0], k=5))
        assert batch["responses"][0]["results"] == expected["results"]

        # the monitor respawns a replacement into slot 0, which serves
        deadline = time.monotonic() + 30
        while pool.alive_workers < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.alive_workers == 2
        after = pool.submit_to(
            0, "search", {"query": query_log[1], "k": 5}
        ).result(timeout=30)
        expected = response_payload(direct_service.search(query_log[1], k=5))
        assert after["results"] == expected["results"]
        assert pool.stats()["respawns"] >= 1

    # once shut down, the pool refuses new work
    with pytest.raises(PoolShutdownError):
        pool.submit("search", {"query": query_log[0], "k": 5})
