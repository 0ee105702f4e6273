"""Watching the simulated network's messages through the tracer.

Every message goes through one funnel, ``P2PNetwork._send``, which turns
it into a ``net.msg`` span whenever a trace is in flight.  Tests observe
messages that way instead of patching private seams.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.obs.trace import Tracer, set_global_tracer


@contextmanager
def recorded_messages() -> Iterator[list[Mapping[str, object]]]:
    """Trace everything inside the block and yield the list the
    attributes of every finished ``net.msg`` span are appended to, in
    send order (``kind``, ``phase``, ``source``, ``destination``,
    ``postings``, ``hops``, and ``route``/``key`` when set).  The
    previous process tracer is restored on exit."""
    tracer = Tracer(enabled=True, capacity=1)
    messages: list[Mapping[str, object]] = []

    def sink(record: Mapping[str, object]) -> None:
        if record["name"] == "net.msg":
            messages.append(record["attrs"])

    tracer.add_sink(sink)
    previous = set_global_tracer(tracer)
    try:
        yield messages
    finally:
        set_global_tracer(previous)
