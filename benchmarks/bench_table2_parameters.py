"""Table 2 — experiment parameters.

Prints the paper's parameterization next to the reduced-scale analogue the
harness actually runs, and benchmarks engine assembly (network build +
collection split) at the harness scale.
"""

from __future__ import annotations

from repro.config import PAPER_PARAMETERS
from repro.engine.service import SearchService
from repro.utils import format_table

from .conftest import BENCH_DF_MAX_VALUES, BENCH_EXPERIMENT, publish


def test_table2_parameters(benchmark, bench_collection):
    engine = benchmark(
        SearchService.build,
        bench_collection,
        num_peers=BENCH_EXPERIMENT.max_peers,
        backend="hdk",
        params=BENCH_EXPERIMENT.hdk,
        cache_capacity=None,
    )
    paper = PAPER_PARAMETERS
    bench = BENCH_EXPERIMENT
    rows = [
        ("number of peers N", "4, 8, ..., 28", f"{bench.peer_counts()}"),
        ("documents per peer", "5,000", f"{bench.docs_per_peer}"),
        ("DF_max", "400 and 500", f"{list(BENCH_DF_MAX_VALUES)}"),
        ("F_f", f"{paper.hdk.ff:,}", f"{bench.hdk.ff:,}"),
        ("window size w", f"{paper.hdk.window_size}", f"{bench.hdk.window_size}"),
        ("s_max", f"{paper.hdk.s_max}", f"{bench.hdk.s_max}"),
    ]
    publish(
        "table2_parameters",
        "Table 2: parameters — paper vs reduced-scale harness\n\n"
        + format_table(["parameter", "paper", "harness"], rows),
    )
    assert len(engine.peers) == bench.max_peers
