"""Integration tests for the paper's core index invariants.

The central claims of Section 3.1 validated end-to-end against a real
indexed world:

- **Subsumption**: supersets of DKs are DKs; subsets of NDKs are NDKs.
- **Intrinsic discriminativeness**: every indexed multi-term DK has all
  proper sub-keys non-discriminative.
- **Exhaustiveness**: for any discriminative key of size <= s_max, the
  answer set is recoverable from the index — directly, or by local
  post-processing of a sub-key's (full) posting list.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import HDKParameters
from repro.corpus.synthetic import (
    SyntheticCorpusConfig,
    SyntheticCorpusGenerator,
)
from repro.engine.service import SearchService
from repro.hdk.generator import LocalHDKGenerator
from repro.index.global_index import KeyStatus


PARAMS = HDKParameters(df_max=5, window_size=6, s_max=3, ff=2_500, fr=2)


@pytest.fixture(scope="module")
def world():
    config = SyntheticCorpusConfig(
        vocabulary_size=250, mean_doc_length=30, num_topics=5
    )
    collection = SyntheticCorpusGenerator(config, seed=11).generate(120)
    engine = SearchService.build(
        collection,
        num_peers=3,
        params=PARAMS,
        backend="hdk",
        cache_capacity=None,
    )
    engine.index()
    reference = LocalHDKGenerator(collection, PARAMS)
    entries = {e.key: e for e in engine.backend.global_index.entries()}
    return collection, engine, reference, entries


class TestGlobalDfCorrectness:
    def test_global_df_matches_reference(self, world):
        collection, engine, reference, entries = world
        checked = 0
        for key, entry in itertools.islice(entries.items(), 150):
            assert entry.global_df == reference.local_document_frequency(
                key
            ), f"df mismatch for {sorted(key)}"
            checked += 1
        assert checked > 0

    def test_dk_postings_are_complete(self, world):
        collection, engine, reference, entries = world
        for key, entry in entries.items():
            if entry.status is KeyStatus.DISCRIMINATIVE:
                assert len(entry.postings) == entry.global_df

    def test_ndk_postings_truncated_to_df_max(self, world):
        _, _, _, entries = world
        ndk_seen = 0
        for entry in entries.values():
            if entry.status is KeyStatus.NON_DISCRIMINATIVE:
                assert len(entry.postings) == PARAMS.df_max
                assert entry.global_df > PARAMS.df_max
                ndk_seen += 1
        assert ndk_seen > 0


class TestSubsumption:
    def test_indexed_multiterm_dks_are_intrinsic(self, world):
        _, _, _, entries = world
        multi_dks = [
            e
            for e in entries.values()
            if len(e.key) >= 2 and e.status is KeyStatus.DISCRIMINATIVE
        ]
        assert multi_dks, "world produced no multi-term HDKs"
        for entry in multi_dks:
            for size in range(1, len(entry.key)):
                for sub in itertools.combinations(sorted(entry.key), size):
                    sub_key = frozenset(sub)
                    sub_entry = entries.get(sub_key)
                    assert sub_entry is not None, (
                        f"sub-key {sub} of indexed HDK "
                        f"{sorted(entry.key)} missing from index"
                    )
                    assert (
                        sub_entry.status is KeyStatus.NON_DISCRIMINATIVE
                    ), (
                        f"sub-key {sub} of indexed HDK "
                        f"{sorted(entry.key)} is discriminative: the HDK "
                        "is redundant"
                    )

    def test_supersets_of_dks_not_indexed(self, world):
        # Redundancy filtering: no indexed key strictly contains an
        # indexed DK.
        _, _, _, entries = world
        dks = {
            k
            for k, e in entries.items()
            if e.status is KeyStatus.DISCRIMINATIVE
        }
        for key in entries:
            for dk in dks:
                if dk < key:
                    pytest.fail(
                        f"indexed key {sorted(key)} contains DK "
                        f"{sorted(dk)}"
                    )


class TestExhaustiveness:
    def test_dk_answer_sets_recoverable(self, world):
        """Any discriminative key's answer set is recoverable: if the key
        itself is not indexed, some indexed DK sub-key subsumes it and
        local post-processing of that full posting list reproduces the
        answer set exactly."""
        collection, engine, reference, entries = world
        # Sample keys from real document windows so they pass proximity.
        sampled: set[frozenset[str]] = set()
        for doc in itertools.islice(iter(collection), 25):
            tokens = doc.tokens[: PARAMS.window_size]
            distinct = sorted(set(tokens))[:4]
            for size in (2, 3):
                for combo in itertools.combinations(distinct, size):
                    sampled.add(frozenset(combo))
        assert sampled
        for key in itertools.islice(sorted(sampled, key=sorted), 60):
            true_df = reference.local_document_frequency(key)
            if true_df == 0 or true_df > PARAMS.df_max:
                continue  # not a DK (or never co-occurs)
            expected_docs = {
                doc.doc_id
                for doc in collection
                if reference._document_contains(
                    doc.tokens, key, PARAMS.window_size
                )
            }
            recovered = self._recover(key, entries, reference)
            assert recovered == expected_docs, (
                f"answer set for DK {sorted(key)} not recoverable"
            )

    @staticmethod
    def _recover(key, entries, reference):
        """Recover the answer set of a DK from the index."""
        entry = entries.get(key)
        if entry is not None and entry.status is KeyStatus.DISCRIMINATIVE:
            return set(entry.postings.doc_ids())
        # Find an indexed DK sub-key (including size-1) and post-process.
        for size in range(1, len(key)):
            for sub in itertools.combinations(sorted(key), size):
                sub_entry = entries.get(frozenset(sub))
                if (
                    sub_entry is not None
                    and sub_entry.status is KeyStatus.DISCRIMINATIVE
                ):
                    return {
                        doc_id
                        for doc_id in sub_entry.postings.doc_ids()
                        if reference._document_contains(
                            reference.collection.get(doc_id).tokens,
                            key,
                            reference.params.window_size,
                        )
                    }
        raise AssertionError(
            f"no indexed DK covers {sorted(key)} — exhaustiveness broken"
        )
