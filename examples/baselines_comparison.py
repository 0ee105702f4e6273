"""Baselines comparison: every retrieval backend on one collection.

Run with::

    python examples/baselines_comparison.py

The paper positions HDK indexing against the whole landscape its related
work describes; this example runs every backend in the registry on the
same synthetic collection and the same query log through one uniform
``SearchService`` API:

- ``single_term`` — naive distributed single-term (full posting lists),
- ``single_term_bloom`` — Bloom-optimized conjunctive pre-intersection,
- ``topk`` — distributed top-k via the Threshold Algorithm,
- ``hdk`` — the paper's model,
- ``hdk_disk`` — the paper's model served from the segmented disk store
  under a tight RAM budget (identical results to ``hdk``),
- ``centralized`` — single-node BM25 (the oracle the overlap column is
  measured against),

plus HDK behind the service's LRU result cache (repeated-query
workload).

Printed per engine: mean postings transferred per query and the top-10
overlap with the centralized BM25 reference.
"""

from __future__ import annotations

from repro import HDKParameters, SearchService
from repro.corpus import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.corpus.querylog import QueryLogGenerator
from repro.retrieval.metrics import top_k_overlap
from repro.utils import format_table


def main() -> None:
    config = SyntheticCorpusConfig(
        vocabulary_size=1_500,
        mean_doc_length=50,
        num_topics=10,
        zipf_skew=1.1,
    )
    collection = SyntheticCorpusGenerator(config, seed=13).generate(400)
    params = HDKParameters(
        df_max=15, window_size=8, s_max=3, ff=8_000, fr=3
    )
    queries = QueryLogGenerator(
        collection,
        window_size=params.window_size,
        min_hits=5,
        seed=41,
        size_weights={2: 0.6, 3: 0.4},
    ).generate(25)

    # One service per registered backend, cache disabled so the traffic
    # column reflects the raw protocols.
    def build(backend: str, cache_capacity: int | None = None, **kwargs):
        service = SearchService.build(
            collection,
            num_peers=6,
            backend=backend,
            params=params,
            cache_capacity=cache_capacity,
            **kwargs,
        )
        service.index()
        return service

    oracle = build("centralized")
    reference = {
        q.query_id: oracle.search(q, k=10).results for q in queries
    }

    def measure(service):
        report = service.run_querylog(queries, k=10)
        overlaps = [
            top_k_overlap(r.results, reference[r.query.query_id], k=10)
            for r in report.responses
        ]
        return (
            report.mean_postings_per_query,
            sum(overlaps) / len(overlaps),
        )

    rows = []
    for backend, note, kwargs in [
        ("single_term", "full lists, OR semantics", {}),
        ("single_term_bloom", "Bloom AND semantics", {}),
        ("topk", "exact BM25 top-k (TA)", {}),
        ("hdk", "the paper's model", {}),
        (
            "hdk_disk",
            "HDK from disk, 3.5 kB RAM budget",
            {"memory_budget_bytes": 3_500},
        ),
        ("centralized", "single-node oracle, zero network", {}),
    ]:
        traffic, overlap = measure(build(backend, **kwargs))
        rows.append([backend, f"{traffic:,.1f}", f"{overlap:.1f}%", note])

    # Cache: replay the log twice through a caching HDK service; the
    # second pass is all hits, so the batch traffic is zero.
    cached = build("hdk", cache_capacity=256)
    cached.run_querylog(queries, k=10)  # warm pass
    traffic, overlap = measure(cached)
    rows.append(
        [
            "hdk + LRU cache (repeat)",
            f"{traffic:,.1f}",
            f"{overlap:.1f}%",
            "second pass over the log",
        ]
    )
    print(
        format_table(
            ["engine", "postings/query", "top-10 overlap", "notes"], rows
        )
    )
    print(
        "\nAND-semantics engines (Bloom, and top-k to a lesser degree) "
        "answer a different question than the OR-ranked reference, so "
        "their overlap is not directly comparable; the traffic column "
        "is the paper's cost axis."
    )


if __name__ == "__main__":
    main()
