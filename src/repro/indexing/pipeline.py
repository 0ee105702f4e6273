"""The indexing pipeline: the distributed HDK build protocol, round by round.

HDK construction is independent per peer — each peer extracts and
classifies its own discriminative keys over purely local documents —
yet the outcome of the *publication* side of the protocol is
order-sensitive: merge order decides NDK truncation contents, DK->NDK
transition timing, and notification fan-out.  Every round therefore
runs in three barriered stages, each a loop over the peers in order:

1. **extract** — candidate generation per peer (pure CPU, zero shared
   mutation);
2. **stage** — transmission of the round's INSERT messages (message
   logging and traffic accounting);
3. **apply** — the merges at the responsible peers, peer by peer, key
   by key.

Stage 3 is the only stage that mutates the index.  For ``hdk_disk``,
spill flushes ride the apply stage, so segment writes go through the
:class:`~repro.store.store.SegmentStore` in merge order.

Per-peer traffic attribution: each peer's statistics send, stage and
apply run under their own INDEXING charge
(:meth:`~repro.hdk.indexer.PeerIndexer.charged`), so
:attr:`~repro.hdk.indexer.IndexingReport.traffic` is exactly that
peer's messages.

Failure semantics: extraction errors surface before anything of the
failed round is staged or applied — the global index is left exactly as
the last completed round left it, no charge stays open, and no traffic
of the failed round is recorded.
"""

from __future__ import annotations

from typing import Sequence

from ..config import HDKParameters
from ..errors import KeyGenerationError
from ..hdk.indexer import (
    IndexingReport,
    PeerIndexer,
    entry_of,
    run_expansion_cascade,
)
from ..index.global_index import GlobalKeyIndex, KeyStatus

__all__ = ["IndexingPipeline"]


class IndexingPipeline:
    """Drives the distributed indexing protocol over a set of peers."""

    # -- public drivers ----------------------------------------------------------

    def build(
        self,
        indexers: Sequence[PeerIndexer],
        params: HDKParameters,
    ) -> list[IndexingReport]:
        """Execute the full collaborative indexing protocol.

        Statistics publication first (very frequent terms must be known
        globally before round 1), then rounds of increasing key size
        with a global status reconciliation after each round; each
        round's extract, stage and apply stages are barriered.

        Returns each peer's :class:`IndexingReport` (with exact
        per-peer ``traffic`` attached).
        """
        indexers = list(indexers)
        if not indexers:
            raise KeyGenerationError("no peers to index with")
        global_index = indexers[0].global_index
        self._publish_statistics(indexers)
        for key_size in range(1, params.s_max + 1):
            statuses_by_position = self._run_round(indexers, key_size)
            proposed: dict[frozenset[str], set[int]] = {}
            for position, statuses in enumerate(statuses_by_position):
                for key in statuses:
                    proposed.setdefault(key, set()).add(position)
                indexers[position].report.ndk_keys_by_size[
                    key_size
                ] = sum(
                    1
                    for status in statuses.values()
                    if status is KeyStatus.NON_DISCRIMINATIVE
                )
            self._reconcile(global_index, indexers, proposed)
        return [indexer.report for indexer in indexers]

    def join(
        self,
        existing_indexers: Sequence[PeerIndexer],
        joining_indexers: Sequence[PeerIndexer],
        params: HDKParameters,
    ) -> list[IndexingReport]:
        """Index newly joined peers into an already-built global index.

        The joining peers run the normal generation rounds (exactly like
        :meth:`build`); the NDK-expansion cascade that reconciles the
        grown index then runs over existing + joining peers — see
        :func:`repro.hdk.indexer.run_expansion_cascade` for why the
        cascade is ordered work by construction.

        Returns the reports of the joining peers.
        """
        existing = list(existing_indexers)
        joining = list(joining_indexers)
        if not joining:
            raise KeyGenerationError("no joining peers")
        global_index = joining[0].global_index
        # Discard transitions from the original build: its reconciliation
        # already delivered them.
        global_index.drain_transitions()
        self._publish_statistics(joining)
        for key_size in range(1, params.s_max + 1):
            self._run_round(joining, key_size)
        run_expansion_cascade(existing + joining, global_index, params)
        return [indexer.report for indexer in joining]

    # -- protocol stages ---------------------------------------------------------

    def _publish_statistics(self, indexers: list[PeerIndexer]) -> None:
        """Extract + send each peer's statistics, then aggregate them in
        peer order."""
        all_statistics = []
        for indexer in indexers:
            statistics = indexer.extract_statistics()
            indexer.charged(indexer.send_statistics, statistics)
            all_statistics.append(statistics)
        # Aggregation order fixes the directory's iteration order (and
        # with it snapshot bytes), so it runs after every send.
        for indexer, statistics in zip(indexers, all_statistics):
            indexer.aggregate_statistics(statistics)

    def _run_round(
        self, indexers: list[PeerIndexer], key_size: int
    ) -> list[dict[frozenset[str], KeyStatus]]:
        """One generation round: extract every peer's candidates, then
        stage every peer's messages, then apply every peer's merges."""
        candidates = [indexer.extract_round(key_size) for indexer in indexers]
        staged_by_position = [
            indexer.charged(indexer.stage_round, peer_candidates)
            for indexer, peer_candidates in zip(indexers, candidates)
        ]
        return [
            indexer.charged(indexer.apply_round, key_size, staged)
            for indexer, staged in zip(indexers, staged_by_position)
        ]

    @staticmethod
    def _reconcile(
        global_index: GlobalKeyIndex,
        indexers: list[PeerIndexer],
        proposed: dict[frozenset[str], set[int]],
    ) -> None:
        """A key inserted early in the round may have turned NDK after
        later inserts; deliver the final statuses to all proposers (the
        notification path already logged the messages)."""
        for key, proposer_positions in proposed.items():
            entry = entry_of(global_index, key)
            if entry is None:
                continue
            for position in proposer_positions:
                indexers[position].learn_status(key, entry.status)
