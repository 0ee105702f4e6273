"""The serving stack as its user runs it: ``repro serve`` in its own
process, driven over loopback HTTP from this one.

The load generator is a closed loop: each client thread holds one
keep-alive connection and sends its next request only after the reply to
the previous one.  A shed (429/503) is therefore a failure, not design
behaviour, and a reply that takes longer than ``REQUEST_TIMEOUT_S`` fails
the workload instead of hanging it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Sequence

from . import SRC
from .procs import reap_group
from .timing import Block, summarize_block
from .world import K

REQUEST_TIMEOUT_S = 30.0

BOOT_TIMEOUT_S = 60.0

_SERVING_LINE = re.compile(r"serving on http://([^:\s]+):(\d+)")


class ServeError(RuntimeError):
    """The server did not boot, or a request did not complete."""


class Client:
    """One keep-alive connection."""

    def __init__(self, host: str, port: int) -> None:
        self._connection = http.client.HTTPConnection(
            host, port, timeout=REQUEST_TIMEOUT_S
        )

    def close(self) -> None:
        self._connection.close()

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        try:
            self._connection.request(
                method,
                path,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            reply = self._connection.getresponse()
            return reply.status, reply.read()
        except (OSError, http.client.HTTPException) as exc:
            raise ServeError(f"{method} {path} did not complete: {exc!r}")

    def get_json(self, path: str) -> dict[str, Any]:
        status, raw = self.request("GET", path)
        if status != 200:
            raise ServeError(f"GET {path} answered {status}")
        return json.loads(raw)

    def search(self, query: str) -> tuple[int, bytes]:
        return self.request("POST", "/search", search_body(query))


def search_body(query: str) -> bytes:
    return json.dumps({"query": query, "k": K}).encode("utf-8")


class Server:
    """``python -m repro.cli serve`` as a child process.

    Use as a context manager: leaving the block SIGTERMs the gateway,
    reaps it, and makes sure its worker is gone too.
    """

    def __init__(self, snapshot: Path, tmpdir: Path) -> None:
        self.snapshot = snapshot
        self.tmpdir = tmpdir
        self.host = ""
        self.port = 0
        self._process: subprocess.Popen[str] | None = None
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader: threading.Thread | None = None

    def __enter__(self) -> "Server":
        started = time.perf_counter()
        environment = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            TMPDIR=str(self.tmpdir),
        )
        self._process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--snapshot", str(self.snapshot),
                "--port", "0",
                "--pool-size", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=environment,
            # Its own process group, so the sweep in __exit__ reaches
            # the worker even when the gateway died without reaping it.
            start_new_session=True,
        )
        self._reader = threading.Thread(
            target=self._pump_output, name="serve-output", daemon=True
        )
        self._reader.start()
        try:
            self._await_serving_line(started + BOOT_TIMEOUT_S)
            self._await_healthy(started + BOOT_TIMEOUT_S)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _pump_output(self) -> None:
        assert self._process is not None and self._process.stdout is not None
        for line in self._process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_serving_line(self, deadline: float) -> None:
        seen: list[str] = []
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.perf_counter())
                )
            except queue.Empty:
                raise ServeError(f"server not serving in time: {seen}")
            if line is None:
                raise ServeError(f"server exited during boot: {seen}")
            seen.append(line.rstrip())
            match = _SERVING_LINE.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return

    def _await_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            client = self.client()
            try:
                status, _raw = client.request("GET", "/healthz")
                if status == 200:
                    return
            except ServeError:
                pass
            finally:
                client.close()
            time.sleep(0.02)
        raise ServeError("server not healthy in time")

    def client(self) -> Client:
        return Client(self.host, self.port)

    def __exit__(self, *exc_info: object) -> None:
        process = self._process
        if process is None:
            return
        self._process = None
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        finally:
            # Whatever is left of the group (an orphaned worker, the
            # multiprocessing resource tracker) goes with it, and is
            # waited for: the gateway's orphans are ours (procs.py).
            reap_group(process.pid)
            if self._reader is not None:
                self._reader.join(timeout=5.0)
            if process.stdout is not None:
                process.stdout.close()

    # -- the processes' memory, from /proc ------------------------------------

    def peak_rss_mib(self) -> tuple[float, float]:
        """``(gateway, workers)`` peak resident set sizes in MiB."""
        assert self._process is not None
        gateway = self._process.pid
        workers = 0.0
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
                command = (entry / "cmdline").read_bytes()
            except OSError:
                continue  # the process ended while we were looking
            # Field 4 is the parent pid; the command name (field 2) may
            # hold spaces, so split after its closing parenthesis.
            parent = int(stat.rsplit(")", 1)[1].split()[1])
            if parent == gateway and b"multiprocessing.spawn" in command:
                workers += _peak_rss_mib(int(entry.name))
        return _peak_rss_mib(gateway), workers


def _peak_rss_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ServeError(f"no VmHWM for pid {pid}")


def http_block(
    clients: Sequence[Client],
    bodies: Sequence[bytes],
    cursor: int,
    seconds: float,
) -> tuple[Block, int]:
    """One timing block: every client loops until the deadline.

    The clients share one cursor into ``bodies`` (the log as encoded
    ``/search`` requests), so together they replay it in order.  Bodies
    arrive encoded and replies are not decoded: the block times the
    server, not this process's JSON.
    """
    count = len(bodies)
    positions = itertools.count(cursor)
    results: list[tuple[list[float], int]] = []
    errors: list[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def loop(client: Client) -> None:
        latencies: list[float] = []
        failed = 0
        clock = time.perf_counter
        try:
            now = clock()
            while now < deadline:
                body = bodies[next(positions) % count]
                issued = clock()
                status, _raw = client.request("POST", "/search", body)
                now = clock()
                latencies.append(now - issued)
                if status != 200:
                    failed += 1
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)
        results.append((latencies, failed))

    threads = [
        threading.Thread(target=loop, args=(client,)) for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    merged = [value for latencies, _failed in results for value in latencies]
    failed = sum(failed for _latencies, failed in results)
    return summarize_block(merged, elapsed, failed), next(positions)
