"""Memory-budgeted global key index that spills cold postings to disk.

The paper bounds the *per-key* storage of the global HDK index, but the
in-memory reproduction still holds every posting list in RAM, capping
collection size far below web scale.  :class:`SpillingGlobalKeyIndex`
keeps the protocol byte-for-byte identical — entries still live in the
simulated peers' storages, inserts still merge/truncate/notify, lookups
still cost the same messages — while bounding the posting lists actually
resident in RAM:

- a *hot set* of recently inserted/read keys keeps plain posting lists,
  LRU-tracked under a RAM budget denominated in encoded bytes
  (``memory_budget_bytes``);
- cold keys keep a :class:`SpilledPostings` stub — same length, same
  entry object, zero resident postings — whose data lives in a
  :class:`~repro.store.store.SegmentStore`; touching a stub transparently
  reloads it (through the store's block cache) and re-heats the key.

Because stubs satisfy the full :class:`PostingList` reading interface,
every consumer — retrieval engines, traffic accounting, churn handoff,
figure inspection — works unchanged, and results are identical to the
in-memory index.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from ..config import HDKParameters
from ..errors import StoreError
from ..index.codec import posting_list_wire_size
from ..index.global_index import GlobalEntry, GlobalKeyIndex, KeyStatus
from ..index.postings import PostingList
from ..net.accounting import Phase
from ..net.network import P2PNetwork
from ..obs.trace import NOOP_SPAN, get_tracer
from .segment import STATUS_DK, STATUS_NDK
from .store import SegmentStore

__all__ = [
    "SpilledPostings",
    "SpillingGlobalKeyIndex",
    "code_to_status",
    "status_to_code",
]

#: Default RAM budget of the spilling index, in encoded posting bytes.
DEFAULT_MEMORY_BUDGET_BYTES = 1 * 1024 * 1024


def status_to_code(status: KeyStatus) -> int:
    """Map a :class:`KeyStatus` to its segment-record status code."""
    return (
        STATUS_DK if status is KeyStatus.DISCRIMINATIVE else STATUS_NDK
    )


def code_to_status(code: int) -> KeyStatus:
    """Inverse of :func:`status_to_code` (tombstones never reach here)."""
    if code == STATUS_DK:
        return KeyStatus.DISCRIMINATIVE
    if code == STATUS_NDK:
        return KeyStatus.NON_DISCRIMINATIVE
    raise StoreError(f"status code {code} is not a key status")


#: The :class:`PostingList` slots a stub leaves unset until it loads.
_COLUMNS = frozenset(PostingList.__slots__)


class SpilledPostings(PostingList):
    """A posting list whose columns live in a :class:`SegmentStore`.

    Reports its length from directory metadata without touching disk.
    Its column slots start unset, so the first read of any column — by
    any :class:`PostingList` method — falls through to ``__getattr__``,
    which loads the columns through the store's block cache and (via
    ``on_load``) notifies the owning index that the key became hot
    again.
    """

    __slots__ = (
        "_store",
        "_key",
        "_count",
        "_on_load",
        "_load_lock",
        "_loaded",
        "charge_hint",
    )

    def __init__(
        self,
        store: SegmentStore,
        key: frozenset[str],
        count: int,
        on_load: Callable[[frozenset[str], "SpilledPostings"], None]
        | None = None,
        *,
        charge_hint: int | None = None,
    ) -> None:
        # Deliberately no super().__init__: the columns stay unset.
        self._store = store
        self._key = key
        self._count = count
        self._on_load = on_load
        self._load_lock = threading.Lock()
        self._loaded = False
        #: Budget charge of the spilled payload, remembered from when
        #: the owning index last held it hot — read at reload time so
        #: re-heating a stub never re-encodes the list just to price it.
        self.charge_hint = charge_hint

    @property
    def is_loaded(self) -> bool:
        return self._loaded

    def __getattr__(self, name: str) -> object:
        # Reached only when normal lookup fails, which for a column
        # means the stub is still cold.
        if name not in _COLUMNS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self._load()
        return object.__getattribute__(self, name)

    def _load(self) -> None:
        # Check-then-act guarded per stub: two threads touching the same
        # cold stub must load once and fire on_load once, or the hot-set
        # posting budget would be double-charged.
        with self._load_lock:
            if self._loaded:
                return
            tracer = get_tracer()
            with (
                tracer.span(
                    "store.spill_materialize",
                    key=" ".join(sorted(self._key)),
                    count=self._count,
                )
                if tracer.active
                else NOOP_SPAN
            ):
                loaded = self._store.get_postings(self._key)
            if loaded is None:
                raise StoreError(
                    f"spilled postings for {sorted(self._key)} missing from "
                    f"store {self._store.directory}"
                )
            # Lists are immutable: the stub shares the loaded columns.
            (
                self._doc_ids,
                self._tfs,
                self._doc_lens,
                self._offsets,
                self._term_tfs,
            ) = loaded.columns()
            self._count = len(loaded)
            self._loaded = True
            if self._on_load is not None:
                self._on_load(self._key, self)

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        state = "loaded" if self.is_loaded else "spilled"
        return f"SpilledPostings(len={len(self)}, {state})"


class SpillingGlobalKeyIndex(GlobalKeyIndex):
    """Drop-in :class:`GlobalKeyIndex` bounded by a RAM posting budget.

    Args:
        network: the simulated P2P network storing the entries.
        params: HDK model parameters.
        store_dir: directory of the backing :class:`SegmentStore` (a
            private temporary directory when None).  The store compacts
            under the network's ``phase_scope(Phase.MAINTENANCE)``, so
            maintenance is never attributed to the paper's
            indexing/retrieval traffic.
        sync: fsync segment files on rollover/close and WAL appends.
        memory_budget_bytes: RAM budget in encoded posting bytes — what
            the hot lists actually cost on disk and on the wire; ``0``
            spills everything immediately (all reads go through the
            store's block cache).
        wal: write-ahead-log incremental writes in the backing store
            (crash-durable builds); on by default.
    """

    def __init__(
        self,
        network: P2PNetwork,
        params: HDKParameters,
        store_dir: str | Path | None = None,
        sync: bool = False,
        *,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES,
        wal: bool = True,
    ) -> None:
        super().__init__(network, params)
        if memory_budget_bytes < 0:
            raise StoreError(
                f"memory_budget_bytes must be >= 0, got {memory_budget_bytes}"
            )
        self.memory_budget_bytes = memory_budget_bytes
        # The block cache gets the same budget as the hot set, so one
        # knob governs both tiers of residency.
        self.store = SegmentStore(
            store_dir,
            cache_bytes=memory_budget_bytes,
            sync=sync,
            wal=wal,
            maintenance_scope=lambda: network.accounting.phase_scope(
                Phase.MAINTENANCE
            ),
        )
        # Hot-set bookkeeping is shared by every thread whose reads
        # re-heat stubs.  Acyclic lock order: a stub's load lock is
        # only ever taken first, and the store lock is never held while
        # acquiring _hot_lock (materialize releases it before on_load
        # fires).  insert() deliberately runs its merge before
        # acquiring this lock so it follows the same order.
        self._hot_lock = threading.RLock()
        # key -> (encoded bytes charged to the budget, posting count);
        # the posting count is the paper's stats unit.
        self._hot: OrderedDict[frozenset[str], tuple[int, int]] = (
            OrderedDict()
        )
        self._hot_charge = 0
        self._hot_postings = 0
        self._spills = 0
        self._reloads = 0
        # "Inside insert" is per-thread state: a reader in another
        # thread must still enforce the budget for its own reloads.
        self._op_local = threading.local()

    # -- hot-set accounting ------------------------------------------------------

    @property
    def hot_postings(self) -> int:
        """Postings currently resident in RAM across hot entries."""
        return self._hot_postings

    @property
    def hot_keys(self) -> int:
        return len(self._hot)

    def _entry_at_responsible(
        self, key: frozenset[str]
    ) -> GlobalEntry | None:
        # The *effective* owner: with replication installed this is the
        # first live replica, and without it ``None`` when the
        # responsible peer crashed (nothing resident to manage).  Only
        # the effective owner's copy participates in the RAM budget;
        # backup replicas keep plain resident lists — the budget bounds
        # the serving copy, and the R-fold storage overhead is exactly
        # what replication buys.
        target = self.network.effective_owner(self.network.key_id(key))
        if target is None:
            return None
        value = self.network.storage_by_id(target).get(key)
        return value if isinstance(value, GlobalEntry) else None

    def _note_hot(
        self,
        key: frozenset[str],
        postings: PostingList,
        charge: int | None = None,
    ) -> None:
        previous = self._hot.pop(key, None)
        if previous is not None:
            self._hot_charge -= previous[0]
            self._hot_postings -= previous[1]
        if charge is None:
            charge = posting_list_wire_size(postings)
        self._hot[key] = (charge, len(postings))
        self._hot_charge += charge
        self._hot_postings += len(postings)

    def _note_loaded(
        self, key: frozenset[str], _stub: SpilledPostings
    ) -> None:
        """A spilled stub materialized (engine iteration, merge, ...)."""
        with self._hot_lock:
            self._reloads += 1
            # The stub's payload is exactly what was spilled, so the
            # charge recorded at spill time still prices it — no
            # re-encode on the hot read path (stubs placed by a lazy
            # snapshot load carry no hint and are priced once here).
            self._note_hot(key, _stub, charge=_stub.charge_hint)
            if not getattr(self._op_local, "in_operation", False):
                self._enforce_budget()

    def _spill(self, key: frozenset[str], charge: int | None = None) -> None:
        entry = self._entry_at_responsible(key)
        if entry is None:
            # The key vanished from storage (e.g. churn edge) — nothing
            # resident to release.
            return
        postings = entry.postings
        if isinstance(postings, SpilledPostings):
            # A reloaded stub: the store already holds this exact list
            # (inserts replace the whole entry with a plain list), so
            # dropping the resident copy is enough.
            entry.postings = SpilledPostings(
                self.store,
                key,
                len(postings),
                self._note_loaded,
                charge_hint=charge,
            )
        else:
            self.store.put(
                key,
                postings,
                entry.global_df,
                status_to_code(entry.status),
                tuple(sorted(entry.contributors)),
            )
            entry.postings = SpilledPostings(
                self.store,
                key,
                len(postings),
                self._note_loaded,
                charge_hint=charge,
            )
        self._spills += 1

    def _enforce_budget(self) -> None:
        # Callers hold _hot_lock.
        while self._hot_charge > self.memory_budget_bytes and self._hot:
            key, (charge, count) = self._hot.popitem(last=False)
            self._hot_charge -= charge
            self._hot_postings -= count
            self._spill(key, charge)

    # -- overridden protocol surfaces --------------------------------------------

    def apply_staged(self, staged) -> KeyStatus:
        # Hooking apply_staged (not insert) covers both entry points:
        # the classic one-shot insert() and the parallel pipeline's
        # staged path — residency bookkeeping belongs to the merge, and
        # spills flush through the SegmentStore on the applying thread,
        # serialized with every other merge.
        #
        # super().apply_staged() runs OUTSIDE _hot_lock: merging into a
        # cold entry materializes its stub, which takes the stub's load
        # lock and then (via on_load) _hot_lock — the same order readers
        # use.  Holding _hot_lock across the merge would invert that
        # order and deadlock against a reader mid-materialize.  Writes
        # themselves are externally serialized (indexing precedes
        # serving); the lock below only covers hot-set bookkeeping.
        self._op_local.in_operation = True
        try:
            status = super().apply_staged(staged)
        finally:
            self._op_local.in_operation = False
        key = staged.key
        with self._hot_lock:
            entry = self._entry_at_responsible(key)
            if entry is not None:
                self._note_hot(key, entry.postings)
            self._enforce_budget()
        return status

    # lookup() needs no override: the response size reads the stub's
    # metadata length, and consumers that iterate the returned postings
    # re-heat the key through _note_loaded.

    # -- persistence hooks -------------------------------------------------------

    def spill_all(self) -> None:
        """Spill every hot entry (snapshot flush / tests)."""
        with self._hot_lock:
            while self._hot:
                key, (charge, count) = self._hot.popitem(last=False)
                self._hot_charge -= charge
                self._hot_postings -= count
                self._spill(key, charge)
        self.store.flush()

    def checkpoint(self) -> None:
        """Spill everything and checkpoint the backing store: segments
        become self-contained (WAL dropped, sidecars sealed)."""
        self.spill_all()
        self.store.checkpoint()

    def spill_stats(self) -> dict[str, object]:
        """RAM-residency counters plus the backing store's statistics."""
        with self._hot_lock:
            return {
                "memory_budget": self.memory_budget_bytes,
                "budget_unit": "bytes",
                "hot_keys": self.hot_keys,
                "hot_postings": self.hot_postings,
                "hot_charge": self._hot_charge,
                "spills": self._spills,
                "reloads": self._reloads,
                "store": self.store.stats(),
            }
