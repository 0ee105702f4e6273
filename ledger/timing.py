"""The timing rules every workload obeys (see ``ledger/README.md``).

- Steady-state phases are cut into blocks; throughput, p50 and p99 are
  computed per block and the reported value is the median over blocks.
- One-shot phases run several times on fresh state; the fastest counts.
- A fixed pure-Python loop brackets the run, so a disturbed machine is
  visible after the fact.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

#: Target length of one timing block.  Long enough that a block holds
#: the >= 1 000 samples its p99 needs on the slowest workload.
BLOCK_SECONDS = 1.0

#: The noise guard appends blocks while the inter-quartile range of the
#: per-block throughput exceeds this share of its median.
NOISE_GUARD_IQR_SHARE = 0.08


def calibrate() -> float:
    """Milliseconds a fixed 2 M-iteration pure-Python loop takes here.

    The same loop before and after a run: a pair that differs, or that
    is far from the machine's usual reading, flags a disturbed run."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return (time.perf_counter() - start) * 1000.0


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def iqr_share(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread measure used throughout."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class Block:
    """One timing block of a steady-state phase."""

    requests: int
    failed: int
    seconds: float
    qps: float
    p50_ms: float
    p99_ms: float


def summarize_block(
    latencies_s: list[float], seconds: float, failed: int
) -> Block:
    latencies_s.sort()
    return Block(
        requests=len(latencies_s),
        failed=failed,
        seconds=seconds,
        qps=len(latencies_s) / seconds,
        p50_ms=percentile(latencies_s, 0.50) * 1000.0,
        p99_ms=percentile(latencies_s, 0.99) * 1000.0,
    )


def closed_loop_block(
    call: Callable[[str], Any],
    queries: Sequence[str],
    cursor: int,
    seconds: float,
    keep: list[tuple[str, Any]] | None = None,
) -> tuple[Block, int]:
    """One caller, one request at a time, for ``seconds``.

    Replays ``queries`` cyclically from ``cursor`` and returns the
    block with the advanced cursor.  A raising call is counted, not
    propagated: the workloads are chosen so that none fails, and a
    failure must show in the result rather than end the measurement.
    ``keep`` collects ``(query, response)`` pairs for checks the caller
    makes outside the timed region.
    """
    latencies: list[float] = []
    failed = 0
    count = len(queries)
    clock = time.perf_counter
    start = now = clock()
    deadline = start + seconds
    while now < deadline:
        query = queries[cursor % count]
        cursor += 1
        issued = clock()
        try:
            response = call(query)
        except Exception:
            failed += 1
            response = None
        now = clock()
        latencies.append(now - issued)
        if keep is not None:
            keep.append((query, response))
    return summarize_block(latencies, now - start, failed), cursor


def timed_phase(
    run_block: Callable[[int], Block], planned: int, max_extra: int
) -> list[Block]:
    """Run ``planned`` blocks, then let the noise guard append up to
    ``max_extra`` more while the throughput series is unsteady."""
    blocks = [run_block(index) for index in range(planned)]
    while (
        len(blocks) < planned + max_extra
        and iqr_share([block.qps for block in blocks])
        > NOISE_GUARD_IQR_SHARE
    ):
        blocks.append(run_block(len(blocks)))
    return blocks


def block_medians(blocks: Sequence[Block]) -> dict[str, float]:
    return {
        "query_qps": statistics.median(b.qps for b in blocks),
        "query_p50_ms": statistics.median(b.p50_ms for b in blocks),
        "query_p99_ms": statistics.median(b.p99_ms for b in blocks),
    }


def block_series(blocks: Sequence[Block]) -> list[dict[str, float]]:
    return [asdict(block) for block in blocks]


def one_shot(
    make: Callable[[], Any],
    repetitions: int,
    dispose: Callable[[Any], None],
) -> tuple[list[float], Any]:
    """Run a one-shot phase ``repetitions`` times, each on fresh state.

    Returns every repetition's seconds and the last repetition's
    product (the one the workload goes on to use); earlier products are
    disposed of before the next repetition starts, so neither their
    memory nor their threads weigh on it.
    """
    times: list[float] = []
    product: Any = None
    for _ in range(repetitions):
        if product is not None:
            dispose(product)
            product = None
            gc.collect()
        start = time.perf_counter()
        product = make()
        times.append(time.perf_counter() - start)
    return times, product


def steady(times: Sequence[float]) -> float:
    """The reported value of a repeated one-shot phase: the fastest
    repetition.  Interference only ever adds time, and with this few
    repetitions one disturbed build would drag a median along (measured:
    ten runs' ``build`` spread 11 % as fastest-of-two, 57 % as median)."""
    return min(times)
