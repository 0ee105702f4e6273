"""The one shared world every workload is built on, and its query logs.

One world, so that counters are comparable across workloads — and one
world for every ``--seed``, so that they are comparable across runs: the
corpus, the query pools and the probe logs the counting pass replays are
fixed (``WORLD_SEED``), and ``--seed`` drives what the timed blocks
replay (the order of the uniform log, the draws of the Zipf log).  The
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from typing import Any, Sequence

from repro.config import HDKParameters
from repro.corpus.collection import DocumentCollection
from repro.corpus.querylog import QueryLogGenerator
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.retrieval.metrics import top_k_overlap

CORPUS = SyntheticCorpusConfig(
    vocabulary_size=3_000,
    mean_doc_length=60,
    num_topics=12,
    zipf_skew=1.0,
)

PARAMS = HDKParameters(df_max=12, window_size=8, s_max=3, ff=4_000)

PEERS = 32

#: Seed of everything that is the same in every run.
WORLD_SEED = 7

K = 20

#: Exponent of the Zipf query log (weight ``1 / rank ** ZIPF_SKEW``).
ZIPF_SKEW = 1.1


@dataclass(frozen=True)
class Sizes:
    """How much work one run does.  ``quick`` sizes exist for
    ``python -m ledger selftest`` only and are flagged in the output."""

    quick: bool = False
    docs: int = 160
    join_docs: int = 64
    #: One-shot phases are repeated this often on fresh state.
    repetitions: int = 2
    #: The counting pass: a fixed number of queries, one caller.
    counting_queries: int = 1_500
    overlap_queries: int = 400
    uniform_pool: int = 6_000
    zipf_pool: int = 2_000
    #: Zipf draws prepared up front; the replay wraps around after them.
    zipf_draws: int = 60_000

    @classmethod
    def for_quick(cls) -> "Sizes":
        return cls(
            quick=True,
            repetitions=1,
            counting_queries=300,
            overlap_queries=100,
            uniform_pool=1_500,
            zipf_draws=15_000,
        )


@dataclass
class World:
    initial: DocumentCollection
    #: Held-out documents the churn workload joins, four at a time.
    held_out: list[DocumentCollection]
    #: Fixed probe logs: what the counting pass replays.
    probe_uniform: list[str]
    probe_zipf: list[str]
    #: Seed-driven logs: what the timed blocks replay, cyclically.
    uniform: list[str]
    zipf: list[str]
    #: Distinct queries the final world's rankings are compared on.
    overlap: list[str]

    def replay_digest(self) -> str:
        """A fingerprint of what ``--seed`` chose."""
        head = "\n".join(self.uniform[:500] + self.zipf[:500])
        return hashlib.sha256(head.encode("utf-8")).hexdigest()[:16]


def _distinct_queries(
    collection: DocumentCollection, count: int, seed: int
) -> list[str]:
    queries = QueryLogGenerator(
        collection, window_size=PARAMS.window_size, min_hits=2, seed=seed
    ).generate(count)
    # A window can be sampled twice; the logs promise distinct queries.
    return list(dict.fromkeys(" ".join(query.terms) for query in queries))


def make_world(seed: int, sizes: Sizes) -> World:
    full = SyntheticCorpusGenerator(CORPUS, seed=WORLD_SEED).generate(
        sizes.docs + sizes.join_docs
    )
    ids = full.doc_ids()
    initial = full.subset(ids[: sizes.docs])
    held_out = [
        full.subset(ids[start : start + 4])
        for start in range(sizes.docs, len(ids), 4)
    ]
    uniform_pool = _distinct_queries(initial, sizes.uniform_pool, WORLD_SEED)
    zipf_pool = _distinct_queries(initial, sizes.zipf_pool, WORLD_SEED + 1)
    weights = [
        1.0 / rank**ZIPF_SKEW for rank in range(1, len(zipf_pool) + 1)
    ]
    rng = random.Random(seed)
    return World(
        initial=initial,
        held_out=held_out,
        probe_uniform=uniform_pool[: sizes.counting_queries],
        probe_zipf=random.Random(WORLD_SEED).choices(
            zipf_pool, weights, k=sizes.counting_queries
        ),
        uniform=rng.sample(uniform_pool, len(uniform_pool)),
        zipf=rng.choices(zipf_pool, weights, k=sizes.zipf_draws),
        overlap=uniform_pool[: sizes.overlap_queries],
    )


# -- rankings as plain, comparable data -------------------------------------------


def ranking_of(response: Any) -> list[list[Any]]:
    """``[[doc_id, score], ...]`` at full precision — the shape the
    gateway's JSON carries, so in-process and HTTP answers compare
    with ``==``."""
    return [[result.doc_id, result.score] for result in response.results]


def rankings_digest(rankings: Sequence[list[list[Any]]]) -> str:
    """A short fingerprint of a sequence of rankings (doc ids and the
    exact bits of every score)."""
    digest = hashlib.sha256()
    for ranking in rankings:
        for doc_id, score in ranking:
            digest.update(struct.pack("<qd", doc_id, score))
        digest.update(b"|")
    return digest.hexdigest()[:16]


def mean_top_k_overlap(
    rankings: Sequence[list[list[Any]]],
    oracle: Sequence[list[list[Any]]],
) -> float:
    """Mean top-``K`` overlap with the oracle's rankings (the paper's
    Figure 7, as a ratio)."""
    percent = [
        top_k_overlap(
            [doc_id for doc_id, _score in ranking],
            [doc_id for doc_id, _score in reference],
            K,
        )
        for ranking, reference in zip(rankings, oracle)
    ]
    return sum(percent) / len(percent) / 100.0
