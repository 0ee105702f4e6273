"""Background maintenance thread for the segment store.

One daemon thread, started lazily on the first wake, runs a single
callback (the store's compaction) whenever it is woken.
Wake-ups coalesce: a wake while the task is running schedules exactly
one more run, so a burst of writes triggers at most one trailing
compaction instead of a queue of them.

Thread lifecycle is generation-guarded: :meth:`stop` bumps the epoch,
invalidating the current loop thread, and a later :meth:`wake` starts a
fresh one under a control lock that first waits out the old thread's
join — a wake racing a stop can neither resurrect pending work on the
stopping thread nor leave two loops consuming the same condition.

Exceptions from the task are swallowed and counted (``errors``): a
failed compaction leaves the store on its pre-compaction segments,
which are always still valid, and the next wake retries.
"""

from __future__ import annotations

import threading
from typing import Callable

__all__ = ["MaintenanceWorker"]


class MaintenanceWorker:
    """Event-woken single-task daemon thread.

    Args:
        task: the callback each wake runs (must be re-entrant across
            runs; runs are serialized on the worker thread).
        name: thread name (visible in dumps / profilers).
    """

    def __init__(
        self,
        task: Callable[[], None],
        *,
        name: str = "repro-store-maintenance",
    ) -> None:
        self._task = task
        self._name = name
        self._cond = threading.Condition()
        self._pending = False
        #: Runs in flight.  A counter, not a flag: during the one
        #: legitimate overlap window (a stop whose join timed out on a
        #: wedged task, followed by a wake) the stale thread's finish
        #: must not mark a fresh thread's run as done.
        self._active = 0
        #: Thread generation.  The loop exits when its epoch goes stale;
        #: stop() bumps it instead of flagging a shared "stopped" bit,
        #: so a concurrent wake cannot re-arm a stopping thread.
        self._epoch = 0
        self._thread: threading.Thread | None = None
        #: Serializes wake()/stop() thread management (never held by the
        #: loop): a wake observing a dead-or-stopping thread joins it
        #: here before a replacement starts.
        self._ctl = threading.Lock()
        self.runs = 0
        self.errors = 0
        self.last_error: str | None = None

    # -- control -----------------------------------------------------------------

    def wake(self) -> None:
        """Schedule one run (coalescing), starting the thread lazily."""
        with self._ctl:
            with self._cond:
                self._pending = True
                if self._thread is None or not self._thread.is_alive():
                    self._epoch += 1
                    self._thread = threading.Thread(
                        target=self._loop,
                        args=(self._epoch,),
                        name=self._name,
                        daemon=True,
                    )
                    self._thread.start()
                self._cond.notify_all()

    def quiesce(self, timeout: float | None = 10.0) -> bool:
        """Block until no run is pending or in flight (tests use this to
        make compaction deterministic).  Returns False on
        timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._pending and self._active == 0,
                timeout=timeout,
            )

    def stop(self, timeout: float | None = 10.0) -> None:
        """Stop the thread after any in-flight run finishes.  The worker
        restarts transparently on the next :meth:`wake`."""
        with self._ctl:
            with self._cond:
                self._epoch += 1
                self._pending = False
                self._cond.notify_all()
                thread = self._thread
                self._thread = None
            if thread is not None and thread.is_alive():
                thread.join(timeout=timeout)

    @property
    def idle(self) -> bool:
        with self._cond:
            return not self._pending and self._active == 0

    # -- loop --------------------------------------------------------------------

    def _loop(self, epoch: int) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._pending or self._epoch != epoch
                )
                if self._epoch != epoch:
                    # This generation was stopped (or superseded after a
                    # timed-out join): exit without consuming pending
                    # work — it belongs to the successor, if any.
                    self._cond.notify_all()
                    return
                self._pending = False
                self._active += 1
            try:
                self._task()
                with self._cond:
                    self.runs += 1
            except Exception as exc:
                with self._cond:
                    self.errors += 1
                    self.last_error = f"{type(exc).__name__}: {exc}"
            finally:
                with self._cond:
                    self._active -= 1
                    self._cond.notify_all()
