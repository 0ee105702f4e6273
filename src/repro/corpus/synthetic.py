"""Synthetic topic-mixture corpus with Zipf-distributed term marginals.

Substitute for the paper's Wikipedia subset (DESIGN.md §4).  The generator
produces documents whose

- global term-frequency distribution follows a Zipf law with configurable
  skew (the paper fits ``a = 1.5`` on Wikipedia), which drives the
  scalability analysis of Section 4, and
- terms co-occur *topically*: each document mixes a few topics, and topic
  vocabularies overlap only in the shared high-frequency band.  This gives
  multi-term keys realistic document frequencies — random independent
  sampling would make almost every pair discriminative and trivialize HDK
  generation.

Tokens are emitted directly in processed form (``"t<number>"`` surface
forms survive the tokenizer; generated tokens bypass stemming), so the
same generator output can be fed to the pipeline-based builders or used
as-is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import CorpusError
from .collection import DocumentCollection
from .document import Document

__all__ = ["SyntheticCorpusConfig", "SyntheticCorpusGenerator"]


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Configuration of the synthetic corpus generator.

    Attributes:
        vocabulary_size: number of distinct terms available globally.
        zipf_skew: the Zipf skew ``a`` of the global rank-frequency law
            (the paper fits 1.5 for single terms on Wikipedia).
        num_topics: number of latent topics.
        topics_per_doc: how many topics a single document mixes.
        shared_fraction: fraction of the vocabulary (taken from the lowest
            Zipf ranks, i.e. the most frequent terms) shared by all topics;
            the rest is partitioned across topics.
        mean_doc_length: average document length in tokens (the paper's
            Wikipedia subset averages 225 words; the reduced-scale default
            is shorter).
        doc_length_jitter: half-width of the uniform jitter around the mean
            length, as a fraction of the mean.
    """

    vocabulary_size: int = 2_000
    zipf_skew: float = 1.5
    num_topics: int = 20
    topics_per_doc: int = 2
    shared_fraction: float = 0.10
    mean_doc_length: int = 100
    doc_length_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.vocabulary_size < 10:
            raise CorpusError(
                f"vocabulary_size must be >= 10, got {self.vocabulary_size}"
            )
        if self.zipf_skew <= 0:
            raise CorpusError(f"zipf_skew must be > 0, got {self.zipf_skew}")
        if self.num_topics < 1:
            raise CorpusError(f"num_topics must be >= 1, got {self.num_topics}")
        if not 1 <= self.topics_per_doc <= self.num_topics:
            raise CorpusError(
                f"topics_per_doc must be in [1, num_topics], "
                f"got {self.topics_per_doc}"
            )
        if not 0.0 <= self.shared_fraction < 1.0:
            raise CorpusError(
                f"shared_fraction must be in [0, 1), got {self.shared_fraction}"
            )
        if self.mean_doc_length < 5:
            raise CorpusError(
                f"mean_doc_length must be >= 5, got {self.mean_doc_length}"
            )
        if not 0.0 <= self.doc_length_jitter < 1.0:
            raise CorpusError(
                f"doc_length_jitter must be in [0, 1), "
                f"got {self.doc_length_jitter}"
            )


class SyntheticCorpusGenerator:
    """Deterministic (seeded) topic-mixture corpus generator.

    The generator assigns each vocabulary rank a global Zipf weight
    ``r**-a``.  The lowest ranks (most frequent terms) form a *shared band*
    visible to every topic; the remaining ranks are partitioned round-robin
    across topics so each topic's exclusive vocabulary also spans the full
    frequency range.  A document samples its tokens from the union of the
    shared band and its topics' exclusive vocabularies, with probabilities
    proportional to the global Zipf weights.  The resulting corpus keeps
    the configured global skew while concentrating mid-frequency
    co-occurrence inside topics.
    """

    def __init__(
        self, config: SyntheticCorpusConfig | None = None, seed: int = 7
    ) -> None:
        self.config = config or SyntheticCorpusConfig()
        self._seed = seed
        self._terms = [f"t{rank:05d}" for rank in range(1, self.config.vocabulary_size + 1)]
        self._weights = [
            rank ** -self.config.zipf_skew
            for rank in range(1, self.config.vocabulary_size + 1)
        ]
        self._shared_size = max(
            1, int(self.config.vocabulary_size * self.config.shared_fraction)
        )
        self._topic_members = self._partition_topics()
        # Per-topic sampling tables: term indices + cumulative weights.
        self._topic_tables = [
            self._build_table(members) for members in self._topic_members
        ]

    # -- construction helpers ------------------------------------------------

    def _partition_topics(self) -> list[list[int]]:
        """Assign exclusive vocabulary ranks to topics, round-robin.

        Round-robin over ranks gives every topic terms at every frequency
        level, so each topic has its own frequent *and* rare terms.
        """
        shared = list(range(self._shared_size))
        members: list[list[int]] = [
            list(shared) for _ in range(self.config.num_topics)
        ]
        for offset, rank_index in enumerate(
            range(self._shared_size, self.config.vocabulary_size)
        ):
            members[offset % self.config.num_topics].append(rank_index)
        return members

    def _build_table(
        self, member_indices: list[int]
    ) -> tuple[list[int], list[float]]:
        """Return (term indices, cumulative weights) for one topic."""
        cumulative: list[float] = []
        total = 0.0
        for index in member_indices:
            total += self._weights[index]
            cumulative.append(total)
        return member_indices, cumulative

    # -- generation ------------------------------------------------------------

    def _sample_token(
        self, rng: random.Random, table: tuple[list[int], list[float]]
    ) -> str:
        indices, cumulative = table
        point = rng.random() * cumulative[-1]
        # Binary search over the cumulative weights.
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < point:
                lo = mid + 1
            else:
                hi = mid
        return self._terms[indices[lo]]

    def _merged_table(
        self, topic_ids: list[int]
    ) -> tuple[list[int], list[float]]:
        """Merge the tables of several topics (dedup shared band)."""
        seen: set[int] = set()
        merged: list[int] = []
        for topic_id in topic_ids:
            for index in self._topic_members[topic_id]:
                if index not in seen:
                    seen.add(index)
                    merged.append(index)
        return self._build_table(merged)

    def generate(
        self, num_documents: int, first_doc_id: int = 0
    ) -> DocumentCollection:
        """Generate ``num_documents`` documents with consecutive ids.

        The output order is already shuffled w.r.t. topics (each document
        independently samples its topic mixture), so round-robin splitting
        across peers yields the paper's "randomly distributed" setting.
        """
        if num_documents < 0:
            raise CorpusError(
                f"num_documents must be >= 0, got {num_documents}"
            )
        rng = random.Random(self._seed)
        config = self.config
        collection = DocumentCollection()
        jitter = int(config.mean_doc_length * config.doc_length_jitter)
        for offset in range(num_documents):
            topic_ids = rng.sample(
                range(config.num_topics), config.topics_per_doc
            )
            table = self._merged_table(topic_ids)
            length = config.mean_doc_length + rng.randint(-jitter, jitter)
            length = max(5, length)
            tokens = tuple(
                self._sample_token(rng, table) for _ in range(length)
            )
            doc_id = first_doc_id + offset
            topic_label = "+".join(str(t) for t in sorted(topic_ids))
            collection.add(
                Document(
                    doc_id=doc_id,
                    tokens=tokens,
                    title=f"synthetic-{doc_id} (topics {topic_label})",
                )
            )
        return collection

    def expected_rank_weight(self, rank: int) -> float:
        """Return the unnormalized Zipf weight ``rank**-a`` (for tests)."""
        if rank < 1:
            raise CorpusError(f"rank must be >= 1, got {rank}")
        return float(rank) ** -self.config.zipf_skew
