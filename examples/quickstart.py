"""Quickstart: build a P2P HDK search service and run queries.

Run with::

    python examples/quickstart.py

Builds a synthetic 400-document collection, distributes it over 8
simulated peers, runs the distributed HDK indexing protocol through the
``SearchService`` facade, and executes single and batch queries,
printing results and the traffic each query generated.
"""

from __future__ import annotations

from repro import HDKParameters, SearchService
from repro.corpus import SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.net.accounting import Phase


def main() -> None:
    # 1. A document collection.  Real deployments read documents from
    #    disk (see examples/encyclopedia_search.py); here we synthesize a
    #    Wikipedia-like corpus with Zipf-distributed topical text.
    config = SyntheticCorpusConfig(
        vocabulary_size=900, mean_doc_length=70, num_topics=12
    )
    collection = SyntheticCorpusGenerator(config, seed=42).generate(400)
    print(
        f"collection: {collection.size} documents, "
        f"{collection.sample_size:,} tokens, "
        f"{len(collection.vocabulary()):,} distinct terms"
    )

    # 2. HDK model parameters, scaled down from the paper's Table 2
    #    (DF_max=400, w=20, s_max=3 at Wikipedia scale).
    params = HDKParameters(
        df_max=15, window_size=8, s_max=3, ff=5_000, fr=3
    )

    # 3. Build and index: 8 peers share the collection and construct the
    #    global key-to-documents index collaboratively.  The backend is
    #    chosen by name from the registry — swap "hdk" for
    #    "single_term", "single_term_bloom", or "centralized" to run the
    #    same workload against any baseline.
    service = SearchService.build(
        collection, num_peers=8, backend="hdk", params=params
    )
    service.index()
    stats = service.stats()
    print(
        f"indexed: {stats['keys']:,} keys, "
        f"{stats['stored_postings']:,} stored postings "
        f"(backend={service.backend_name})"
    )

    # 4. Search.  Queries go through the same text pipeline as documents;
    #    every response carries timing and per-phase traffic.
    responses = {}
    for raw_query in ("t00012 t00055", "t00003 t00104 t00288"):
        response = responses[raw_query] = service.search(raw_query, k=10)
        print(f"\nquery {raw_query!r}:")
        print(
            f"  lattice lookups (n_k) : {response.keys_looked_up}"
            f" ({response.dk_keys} DK, {response.ndk_keys} NDK)"
        )
        print(f"  postings transferred  : {response.postings_transferred}")
        print(f"  service time          : {response.elapsed_ms:.2f} ms")
        for rank, ranked in enumerate(response.results[:5], start=1):
            doc = collection.get(ranked.doc_id)
            print(
                f"  #{rank}  doc {ranked.doc_id:>4}  "
                f"score {ranked.score:6.3f}  {doc.title}"
            )

    # 5. Batch search — the heavy-traffic surface.  Repeated term sets
    #    are served from the service's LRU cache at zero network cost.
    log = ["t00012 t00055", "t00003 t00104 t00288", "t00012 t00055"]
    report = service.search_batch(log, k=10)
    print(
        f"\nbatch of {report.num_queries}: "
        f"{report.total_postings_transferred} postings transferred, "
        f"{report.cache_hits} cache hit(s) "
        f"({report.cache_hit_rate:.0%} hit rate)"
    )

    # 6. Traffic accounting, the paper's central cost measure.
    accounting = service.network.accounting
    print(
        f"\ntraffic: indexing={accounting.postings(Phase.INDEXING):,} "
        f"retrieval={accounting.postings(Phase.RETRIEVAL):,} postings"
    )

    # 7. The same collection under the naive single-term baseline, for
    #    comparison (full posting lists fetched per query term).
    baseline = SearchService.build(
        collection, num_peers=8, backend="single_term", params=params
    )
    baseline.index()
    st_response = baseline.search("t00012 t00055", k=10)
    print(
        f"\nsingle-term baseline on 't00012 t00055': "
        f"{st_response.postings_transferred} postings transferred "
        f"(HDK transferred "
        f"{responses['t00012 t00055'].postings_transferred})"
    )


if __name__ == "__main__":
    main()
