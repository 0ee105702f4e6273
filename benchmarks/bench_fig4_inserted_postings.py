"""Figure 4 — inserted postings per peer (indexing cost) vs collection size.

Paper shape: peers insert more postings than end up stored (NDK
truncation discards postings after transfer), and HDK indexing costs a
multiple of single-term indexing.
"""

from __future__ import annotations

from repro.engine.service import SearchService
from repro.engine.reporting import render_figure_series, series_by_label

from .conftest import BENCH_DF_MAX_VALUES, BENCH_EXPERIMENT, publish


def test_fig4_inserted_postings_per_peer(
    benchmark, growth_results, bench_collection
):
    low, high = BENCH_DF_MAX_VALUES
    publish(
        "fig4_inserted_postings",
        render_figure_series(
            growth_results,
            value_of=lambda s: s.inserted_postings_per_peer,
            value_header=(
                "Figure 4: inserted postings per peer (indexing cost)"
            ),
        ),
    )
    series = series_by_label(growth_results)
    for label in (f"HDK df_max={low}", f"HDK df_max={high}"):
        for hdk_step, st_step in zip(series[label], series["ST"]):
            # HDK indexing inserts more postings than single-term.
            assert (
                hdk_step.inserted_postings_per_peer
                > st_step.inserted_postings_per_peer
            )
            # Inserted >= stored: NDK truncation happens after transfer.
            assert (
                hdk_step.inserted_postings_per_peer
                >= hdk_step.stored_postings_per_peer
            )
    # ST inserts exactly what it stores (no truncation).
    for st_step in series["ST"]:
        assert st_step.inserted_postings_per_peer == (
            st_step.stored_postings_per_peer
        )
    # Benchmark the single-term indexing cost at the first step's scale
    # for comparison with Figure 3's HDK benchmark.
    first_docs = (
        BENCH_EXPERIMENT.initial_peers * BENCH_EXPERIMENT.docs_per_peer
    )
    prefix = bench_collection.subset(bench_collection.doc_ids()[:first_docs])

    def build_and_index_st():
        engine = SearchService.build(
            prefix,
            num_peers=BENCH_EXPERIMENT.initial_peers,
            backend="single_term",
            params=BENCH_EXPERIMENT.hdk,
            cache_capacity=None,
        )
        engine.index()
        return engine.inserted_postings_per_peer()

    inserted = benchmark(build_and_index_st)
    assert inserted > 0
