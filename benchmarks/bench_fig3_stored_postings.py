"""Figure 3 — stored postings per peer (index size) vs collection size.

Paper shape: the HDK index is several times larger than the single-term
index (13.9x at 140k docs with DF_max=400 at paper scale), both grow with
the collection at these sizes, and a larger DF_max reduces the HDK index
(HDK approaches single-term indexing as DF_max grows).
"""

from __future__ import annotations

from repro.engine.service import SearchService
from repro.engine.reporting import render_figure_series, series_by_label

from .conftest import (
    BENCH_DF_MAX_VALUES,
    BENCH_EXPERIMENT,
    publish,
)


def test_fig3_stored_postings_per_peer(benchmark, growth_results, bench_collection):
    low, high = BENCH_DF_MAX_VALUES
    publish(
        "fig3_stored_postings",
        render_figure_series(
            growth_results,
            value_of=lambda s: s.stored_postings_per_peer,
            value_header=(
                "Figure 3: stored postings per peer (index size)"
            ),
        ),
    )
    series = series_by_label(growth_results)
    st = series["ST"]
    hdk_low = series[f"HDK df_max={low}"]
    hdk_high = series[f"HDK df_max={high}"]
    for st_step, low_step, high_step in zip(st, hdk_low, hdk_high):
        # HDK stores significantly more than single-term indexing.
        assert (
            low_step.stored_postings_per_peer
            > st_step.stored_postings_per_peer
        )
        assert (
            high_step.stored_postings_per_peer
            > st_step.stored_postings_per_peer
        )
    # Index size grows with the collection at small scale (paper: curves
    # increase, expected to flatten only for very large D).
    assert (
        hdk_low[-1].stored_postings_per_peer
        > hdk_low[0].stored_postings_per_peer
    )
    # Benchmark the measured operation: indexing one engine at the first
    # step's scale.
    first_docs = BENCH_EXPERIMENT.initial_peers * BENCH_EXPERIMENT.docs_per_peer
    prefix = bench_collection.subset(bench_collection.doc_ids()[:first_docs])

    def build_and_index():
        engine = SearchService.build(
            prefix,
            num_peers=BENCH_EXPERIMENT.initial_peers,
            backend="hdk",
            params=BENCH_EXPERIMENT.hdk,
            cache_capacity=None,
        )
        engine.index()
        return engine.stored_postings_per_peer()

    stored = benchmark(build_and_index)
    assert stored > 0
