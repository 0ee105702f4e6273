"""Model parameters for HDK indexing and retrieval, and deployment knobs.

The paper's model is controlled by a small set of parameters (Table 2 of the
paper): the document-frequency threshold ``DF_max``, the collection-frequency
cut-off ``F_f`` for very frequent terms, the proximity window size ``w``, and
the maximal key size ``s_max``.  :class:`HDKParameters` bundles them together
with validation so that every component of the library shares one coherent
configuration object.  :class:`ServiceConfig` does the same for the knobs of a
deployed :class:`~repro.engine.service.SearchService` (caching, storage,
overlay, replication): it is the only place a knob is declared.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping, get_type_hints

from .errors import ConfigurationError

__all__ = [
    "HDKParameters",
    "ExperimentParameters",
    "ServiceConfig",
    "PAPER_PARAMETERS",
    "SMALL_SCALE_PARAMETERS",
]


@dataclass(frozen=True)
class HDKParameters:
    """Parameters of the HDK indexing/retrieval model (paper Table 2).

    Attributes:
        df_max: document-frequency threshold ``DF_max``.  A key is
            *discriminative* iff its global document frequency is at most
            ``df_max`` (Definition 3).  Posting lists of non-discriminative
            keys are truncated to their top-``df_max`` entries.
        window_size: proximity window ``w``.  Only term sets whose terms
            co-occur inside at least one sliding window of this many token
            positions are considered keys (Definition 2).
        s_max: maximal key size (number of distinct terms in a key,
            Definition 1 / size filtering).
        ff: collection-frequency threshold ``F_f``.  Terms occurring more
            than ``ff`` times in the collection are *very frequent* and are
            removed from the key vocabulary, generalizing stop-word removal
            (Definition 9 and the discussion after Theorem 2).
        fr: collection-frequency threshold ``F_r`` separating *rare* from
            *frequent* keys in the scalability analysis (Definitions 7-8).
            Only used by :mod:`repro.analysis`; the indexing path uses
            ``df_max`` directly.
        ndk_truncation: policy used to pick the top-``df_max`` postings kept
            for a non-discriminative key; either ``"tf"`` (highest term
            frequency first, the default) or ``"norm"`` (highest
            length-normalized term frequency first).
        redundancy_filtering: when True (the paper's model), only
            *intrinsically* discriminative keys are indexed (Definition 5);
            when False every discriminative key is indexed.  Exposed for the
            ablation called out in DESIGN.md §5.
        semantic_pmi_threshold: when set, multi-term candidate keys whose
            local pointwise mutual information falls below this value are
            dropped before insertion — the paper's future-work direction of
            integrating "more semantics about the indexing keys" to shrink
            the global index (see :mod:`repro.hdk.semantic`).  None (the
            default) disables the filter, matching the published model.
    """

    df_max: int = 400
    window_size: int = 20
    s_max: int = 3
    ff: int = 100_000
    fr: int = 100
    ndk_truncation: str = "tf"
    redundancy_filtering: bool = True
    semantic_pmi_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.df_max < 1:
            raise ConfigurationError(
                f"df_max must be >= 1, got {self.df_max}"
            )
        if self.window_size < 2:
            raise ConfigurationError(
                f"window_size must be >= 2 so multi-term keys can exist, "
                f"got {self.window_size}"
            )
        if self.s_max < 1:
            raise ConfigurationError(f"s_max must be >= 1, got {self.s_max}")
        if self.s_max > self.window_size:
            raise ConfigurationError(
                f"s_max ({self.s_max}) cannot exceed window_size "
                f"({self.window_size}): a key's terms must fit in one window"
            )
        if self.ff < 1:
            raise ConfigurationError(f"ff must be >= 1, got {self.ff}")
        if self.fr < 1:
            raise ConfigurationError(f"fr must be >= 1, got {self.fr}")
        if self.fr > self.ff:
            raise ConfigurationError(
                f"fr ({self.fr}) must not exceed ff ({self.ff}); the paper "
                f"requires 1 <= F_r <= F_f <= D"
            )
        if self.ndk_truncation not in ("tf", "norm"):
            raise ConfigurationError(
                f"ndk_truncation must be 'tf' or 'norm', "
                f"got {self.ndk_truncation!r}"
            )

    def with_df_max(self, df_max: int) -> "HDKParameters":
        """Return a copy with a different ``DF_max`` (used by sweeps)."""
        return replace(self, df_max=df_max)

    def with_window(self, window_size: int) -> "HDKParameters":
        """Return a copy with a different window size ``w``."""
        return replace(self, window_size=window_size)

    def as_dict(self) -> dict[str, Any]:
        """Return the parameters as a plain dictionary (for reports)."""
        return {
            "df_max": self.df_max,
            "window_size": self.window_size,
            "s_max": self.s_max,
            "ff": self.ff,
            "fr": self.fr,
            "ndk_truncation": self.ndk_truncation,
            "redundancy_filtering": self.redundancy_filtering,
            "semantic_pmi_threshold": self.semantic_pmi_threshold,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HDKParameters":
        """Build parameters from a mapping, validating every field."""
        known = {
            "df_max",
            "window_size",
            "s_max",
            "ff",
            "fr",
            "ndk_truncation",
            "redundancy_filtering",
            "semantic_pmi_threshold",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown HDK parameter(s): {sorted(unknown)}"
            )
        return cls(**dict(data))


def _knob(default: Any, help: str, minimum: int | None = None) -> Any:
    """A :class:`ServiceConfig` field: its default, the lower bound the
    range check enforces, and the one-line help the CLI shows."""
    return field(
        default=default, metadata={"help": help, "minimum": minimum}
    )


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of a :class:`~repro.engine.service.SearchService`.

    The single declaration of every knob: default, documentation, range
    check, and the one-line help the CLI derives its ``--flag`` from.
    Knobs are read at construction only and never change results —
    rankings are byte-identical at any setting.

    Attributes:
        cache_capacity: LRU query-cache size; ``None`` or ``0`` disables
            caching entirely (every query hits the backend).
        store_dir: segment-store directory of the disk-backed backend
            (``hdk_disk``); ``None`` gives the store a private temporary
            directory.  Not accepted by ``load()``: a snapshot's own
            ``segments/`` directory is its store.
        memory_budget_bytes: RAM residency budget of the disk-backed
            backend, in encoded posting bytes; ``None`` uses the store
            default.
        wal: write-ahead-log incremental writes in the disk backend's
            store (crash-durable builds); ``None`` keeps the index
            default (on).
        overlay_fanout: leaves per super-peer cluster (``hdk_super``).
        path_cache_capacity: per-super-peer in-network result-cache size
            in keys (``hdk_super``); ``0`` disables path caching.
        overlay_adaptive: load-aware overlay adaptation (``hdk_super``) —
            super-peer election weighs observed load, hot clusters split
            and cooled-down pairs merge back, and path caching extends to
            every super-peer on the query path with invalidation fan-out.
            Off keeps the static, byte-reproducible overlay.
        overlay_split_threshold: windowed per-cluster load score (lookups
            + cache churn) at which a hot cluster splits (adaptive overlay
            only).
        overlay_merge_threshold: score at or below which a split pair
            counts as calm and may merge back; must be <
            ``overlay_split_threshold``.
        sync: fsync segment files on rollover/close and the snapshot
            manifest on ``save()`` — the durability knob of disk-backed
            deployments.
        replication: replica count per key range.  ``None`` means 1 for a
            built service and the degree recorded in the manifest for a
            loaded one.  ``1`` disables the replication subsystem entirely
            (no manager, no failover wrapper, byte-identical results *and*
            traffic to the unreplicated stack).  With ``R >= 2`` every
            insert and stats publication fans out to the key's R successor
            owners, lookups fail over past crashed replicas,
            ``run_anti_entropy()`` re-converges divergent replicas, and a
            load places every snapshot entry at all R owners and restores
            the persisted replication state.
    """

    cache_capacity: int | None = _knob(
        256, "LRU query-cache capacity; 0 disables", minimum=0
    )
    store_dir: str | Path | None = _knob(
        None, "segment-store directory of the hdk_disk backend"
    )
    memory_budget_bytes: int | None = _knob(
        None,
        "RAM budget of the hdk_disk backend in encoded posting bytes",
        minimum=0,
    )
    wal: bool | None = _knob(
        None, "write-ahead-log incremental hdk_disk writes (on when unset)"
    )
    overlay_fanout: int = _knob(
        8, "leaves per hdk_super super-peer cluster", minimum=1
    )
    path_cache_capacity: int = _knob(
        128,
        "hdk_super result-cache size per super-peer; 0 disables",
        minimum=0,
    )
    overlay_adaptive: bool = _knob(
        False, "load-aware hdk_super overlay: election, split/merge, caching"
    )
    overlay_split_threshold: int = _knob(
        64,
        "load score at which a hot cluster splits (adaptive overlay)",
        minimum=1,
    )
    overlay_merge_threshold: int = _knob(
        16,
        "calm score for merging a split pair back; below the split one",
        minimum=0,
    )
    sync: bool = _knob(
        False, "fsync segment files on rollover/close and the saved manifest"
    )
    replication: int | None = _knob(
        None,
        "replicas per key range (unset: 1 building, the manifest's loading)",
        minimum=1,
    )

    def __post_init__(self) -> None:
        hints = get_type_hints(type(self))
        for knob in fields(self):
            value = getattr(self, knob.name)
            if not isinstance(value, hints[knob.name]):
                raise ConfigurationError(
                    f"{knob.name} must be of type {knob.type}, got {value!r}"
                )
            minimum = knob.metadata["minimum"]
            if (
                minimum is not None
                and value is not None
                and value < minimum
            ):
                raise ConfigurationError(
                    f"{knob.name} must be >= {minimum}, got {value}"
                )
        if self.overlay_merge_threshold >= self.overlay_split_threshold:
            raise ConfigurationError(
                f"overlay_merge_threshold ({self.overlay_merge_threshold}) "
                f"must be < overlay_split_threshold "
                f"({self.overlay_split_threshold})"
            )


@dataclass(frozen=True)
class ExperimentParameters:
    """Parameters of the growth experiment in Section 5 (paper Table 2).

    The paper starts with 4 peers and adds 4 peers per run up to 28, each
    peer contributing a constant number of documents.  The reproduction keeps
    the same protocol at a configurable scale.

    Attributes:
        initial_peers: number of peers in the first experimental run.
        peer_step: peers added at each subsequent run.
        max_peers: number of peers in the final run.
        docs_per_peer: documents contributed by each peer (constant, per the
            paper's use-case assumption).
        hdk: the HDK model parameters shared by all peers.
        seed: RNG seed making the whole experiment deterministic.
    """

    initial_peers: int = 4
    peer_step: int = 4
    max_peers: int = 28
    docs_per_peer: int = 5_000
    hdk: HDKParameters = field(default_factory=HDKParameters)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.initial_peers < 1:
            raise ConfigurationError(
                f"initial_peers must be >= 1, got {self.initial_peers}"
            )
        if self.peer_step < 1:
            raise ConfigurationError(
                f"peer_step must be >= 1, got {self.peer_step}"
            )
        if self.max_peers < self.initial_peers:
            raise ConfigurationError(
                f"max_peers ({self.max_peers}) must be >= initial_peers "
                f"({self.initial_peers})"
            )
        if self.docs_per_peer < 1:
            raise ConfigurationError(
                f"docs_per_peer must be >= 1, got {self.docs_per_peer}"
            )

    def peer_counts(self) -> list[int]:
        """Return the sequence of network sizes, e.g. ``[4, 8, ..., 28]``."""
        counts = list(
            range(self.initial_peers, self.max_peers + 1, self.peer_step)
        )
        if counts[-1] != self.max_peers:
            counts.append(self.max_peers)
        return counts

    def document_counts(self) -> list[int]:
        """Return total collection sizes per run (the x-axis of Figs 3-7)."""
        return [n * self.docs_per_peer for n in self.peer_counts()]


#: The exact parameterization of the paper's experiments (Table 2).
PAPER_PARAMETERS = ExperimentParameters(
    initial_peers=4,
    peer_step=4,
    max_peers=28,
    docs_per_peer=5_000,
    hdk=HDKParameters(df_max=400, window_size=20, s_max=3, ff=100_000),
)

#: A reduced-scale parameterization that keeps the paper's *shape* (same
#: peer-growth protocol, same s_max, same DF_max sweep structure) while
#: running in seconds inside a single-process Python simulation.
SMALL_SCALE_PARAMETERS = ExperimentParameters(
    initial_peers=4,
    peer_step=4,
    max_peers=12,
    docs_per_peer=150,
    hdk=HDKParameters(df_max=12, window_size=8, s_max=3, ff=4_000, fr=4),
)
