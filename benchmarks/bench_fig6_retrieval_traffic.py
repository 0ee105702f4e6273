"""Figure 6 — number of retrieved postings per query vs collection size.

Paper shape: single-term retrieval traffic grows linearly with the
collection; HDK traffic stays nearly constant and bounded by
n_k * DF_max, with DF_max=500 slightly above DF_max=400.
"""

from __future__ import annotations

from repro.analysis.retrieval_cost import retrieval_traffic_bound
from repro.corpus.querylog import QueryLogGenerator
from repro.engine.reporting import render_figure_series, series_by_label

from .conftest import BENCH_DF_MAX_VALUES, BENCH_EXPERIMENT, publish


def test_fig6_retrieval_traffic(benchmark, growth_results, bench_collection):
    low, high = BENCH_DF_MAX_VALUES
    publish(
        "fig6_retrieval_traffic",
        render_figure_series(
            growth_results,
            value_of=lambda s: s.retrieval_postings_per_query,
            value_header=(
                "Figure 6: retrieved postings per query"
            ),
        ),
    )
    series = series_by_label(growth_results)
    st = series["ST"]
    hdk_low = series[f"HDK df_max={low}"]
    hdk_high = series[f"HDK df_max={high}"]
    # ST grows with the collection.
    assert (
        st[-1].retrieval_postings_per_query
        > st[0].retrieval_postings_per_query
    )
    # HDK stays far below ST at every step.
    for st_step, low_step, high_step in zip(st, hdk_low, hdk_high):
        assert (
            low_step.retrieval_postings_per_query
            < st_step.retrieval_postings_per_query
        )
        assert (
            high_step.retrieval_postings_per_query
            < st_step.retrieval_postings_per_query
        )
        # The larger DF_max retrieves at least as much as the smaller.
        assert (
            high_step.retrieval_postings_per_query
            >= low_step.retrieval_postings_per_query * 0.8
        )
    # HDK growth across the sweep is much flatter than ST growth.
    st_growth = (
        st[-1].retrieval_postings_per_query
        / max(1.0, st[0].retrieval_postings_per_query)
    )
    hdk_growth = (
        hdk_low[-1].retrieval_postings_per_query
        / max(1.0, hdk_low[0].retrieval_postings_per_query)
    )
    assert hdk_growth < st_growth
    # Every measured HDK point respects the analytic bound for its
    # measured n_k.
    for step in hdk_low:
        bound = step.keys_per_query * low
        assert step.retrieval_postings_per_query <= bound + 1e-9
    # Sanity against the worst-case formula at the harness's query sizes.
    assert retrieval_traffic_bound(3, BENCH_EXPERIMENT.hdk.s_max, low) == (
        7 * low
    )
    # Benchmark one query end-to-end on a freshly indexed engine.
    from repro.engine.service import SearchService

    first_docs = (
        BENCH_EXPERIMENT.initial_peers * BENCH_EXPERIMENT.docs_per_peer
    )
    prefix = bench_collection.subset(bench_collection.doc_ids()[:first_docs])
    engine = SearchService.build(
        prefix,
        num_peers=BENCH_EXPERIMENT.initial_peers,
        backend="hdk",
        params=BENCH_EXPERIMENT.hdk,
        cache_capacity=None,  # every benchmarked call pays the lookup
    )
    engine.index()
    query = QueryLogGenerator(
        prefix, window_size=BENCH_EXPERIMENT.hdk.window_size, min_hits=3,
        seed=5,
    ).generate(1)[0]
    result = benchmark(engine.search, query)
    assert result.keys_looked_up >= 1
