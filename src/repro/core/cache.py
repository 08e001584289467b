"""Incremental caches for the reconciliation hot path.

The paper's complexity argument (Section 4.3) assumes hash-based conflict
detection and soft-state reuse keep ``ReconcileUpdates`` within
O(t² + t·u·a).  The seed implementation met the bound per call but paid it
again on every epoch: each deferred transaction's update extension was
re-derived from scratch every reconciliation, and every extension pair was
re-compared even when neither side had changed.  This module makes that
work *incremental* — pay once per newly published transaction, not once
per epoch per participant:

* :class:`ExtensionCache` memoizes ``root → UpdateExtension`` against a
  monotone version counter on the participant's applied set
  (:attr:`~repro.core.state.ParticipantState.applied_version`).  A version
  match is an O(1) hit.  On a version mismatch the entry is *revalidated*
  in O(|members|): the transaction extension is the antecedent closure
  stopped at applied transactions, and applied sets only grow, so a cached
  closure none of whose members became applied is still exact (any member
  the larger applied set would remove must itself appear in
  ``members ∩ applied``).  Only entries that fail revalidation are
  recomputed.

* :class:`ConflictCache` memoizes the direct-conflict points of extension
  *pairs*, keyed by the identity of the two extension objects.  Extensions
  are immutable and :class:`ExtensionCache` returns the same object while
  an entry stays valid, so identity equality is exact.  Negative results
  (no conflict) are cached too — they are the overwhelmingly common case.

* :class:`CacheStats` counts hits, misses, and revalidations; the engine
  exposes a per-reconciliation snapshot on
  :attr:`~repro.core.decisions.ReconcileResult.cache_stats`.

:class:`ExtensionCache` instances are per-participant (client-side on
the :class:`~repro.core.engine.Reconciler`, store-side per registered
peer in network-centric mode) and are pruned to the still-deferred roots
after each reconciliation, so they hold O(deferred) entries, not
O(history).  :class:`ConflictCache` has one job: the
*confederation-shared* pair memo a store ships on every batch (identity
validation makes sharing across participants exact — see
:meth:`repro.store.network_centric.DirectLogStore.shared_pair_cache`);
what one participant has compared, client-side or in a store's batch
assembly, lives in its
:class:`~repro.core.conflicts.IncrementalConflictIndex`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.model.schema import Schema
from repro.model.transactions import TransactionId

from repro.core.extensions import (
    RelevantTransaction,
    TransactionGraph,
    UpdateExtension,
    compute_update_extension,
)

#: An unordered extension pair, stored with the lower tid first.
PairKey = Tuple[TransactionId, TransactionId]


@dataclass
class CacheStats:
    """Counters for one cache (or a snapshot/delta of them).

    ``hits`` are O(1) version matches; ``revalidations`` are O(|members|)
    reuses after the applied set grew; ``shipped`` counts store-computed
    extensions adopted instead of computing locally (context-free ones
    proven disjoint from the applied set, and the per-participant
    extensions of a fully network-centric batch);
    ``misses`` are full recomputations (including cold entries);
    ``pair_misses`` counts the pairwise comparisons a conflict index
    performed and ``pair_hits`` those a shared pair memo answered for it
    instead.  A pair neither of whose extensions changed is never
    examined again and counts as neither, so the store-side counters of
    the direct-log stores (``derivation_stats()``), whose assembly
    indexes consult no memo, read ``pair_hits == 0``.
    """

    hits: int = 0
    misses: int = 0
    revalidations: int = 0
    shipped: int = 0
    pair_hits: int = 0
    pair_misses: int = 0

    @property
    def reuses(self) -> int:
        """Extension lookups that avoided a local recomputation."""
        return self.hits + self.revalidations + self.shipped

    @property
    def hit_rate(self) -> float:
        """Fraction of extension lookups served without recomputation."""
        total = self.reuses + self.misses
        return self.reuses / total if total else 0.0

    @property
    def pair_hit_rate(self) -> float:
        """Fraction of pair comparisons served from the cache."""
        total = self.pair_hits + self.pair_misses
        return self.pair_hits / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        """An immutable-by-convention copy of the current counters."""
        return replace(self)

    def add(self, other: "CacheStats") -> None:
        """Accumulate ``other``'s counters into this one (aggregation)."""
        for name, count in vars(other).items():
            setattr(self, name, getattr(self, name) + count)

    def minus(self, other: "CacheStats") -> "CacheStats":
        """The counter delta since ``other`` (an earlier snapshot)."""
        return CacheStats(
            **{name: count - getattr(other, name) for name, count in vars(self).items()}
        )

    def as_dict(self) -> Dict[str, float]:
        """A JSON-friendly view (used by the perf benchmark)."""
        return {
            **vars(self),
            "hit_rate": self.hit_rate,
            "pair_hit_rate": self.pair_hit_rate,
        }


class ExtensionCache:
    """Memoizes update extensions against an applied-set version counter.

    ``enabled=False`` turns every lookup into a recomputation (the
    benchmark's uncached baseline) while keeping the interface identical.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.stats = CacheStats()
        self._entries: Dict[TransactionId, Tuple[int, UpdateExtension]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self,
        tid: TransactionId,
        version: int,
        applied: Set[TransactionId],
        priority: Optional[int] = None,
    ) -> Optional[UpdateExtension]:
        """The cached extension for ``tid`` if still valid, else None.

        A version match hits outright.  Otherwise the entry is revalidated:
        if none of its members became applied, the closure is unchanged and
        the entry is refreshed to the current version (see module
        docstring).  ``priority`` guards against trust-policy drift: a
        cached extension carrying a different root priority is discarded.
        """
        if not self.enabled:
            return None
        entry = self._entries.get(tid)
        if entry is None:
            return None
        cached_version, extension = entry
        if priority is not None and extension.priority != priority:
            return None
        if cached_version == version:
            self.stats.hits += 1
            return extension
        if not (extension.member_set() & applied):
            self._entries[tid] = (version, extension)
            self.stats.revalidations += 1
            return extension
        return None

    def store(
        self, tid: TransactionId, version: int, extension: UpdateExtension
    ) -> None:
        """Record ``extension`` as valid at applied-set ``version``."""
        if self.enabled:
            self._entries[tid] = (version, extension)

    def get_or_compute(
        self,
        schema: Schema,
        graph: TransactionGraph,
        root: RelevantTransaction,
        applied: Set[TransactionId],
        version: int,
        shipped: Optional[UpdateExtension] = None,
    ) -> UpdateExtension:
        """The root's extension: cached, adopted, or computed — in that
        order.

        ``shipped`` is the store's *context-free* extension of the root
        (derived against an empty applied set), if it sent one.  It
        equals the local computation exactly when none of its members
        is applied — the closure walk stops only at applied
        transactions — and is then adopted, re-priced to this
        participant's priority for the root.  A disabled cache never
        adopts: it is the recompute-everything oracle.

        Propagates :class:`~repro.errors.FlattenError` from the underlying
        computation (the engine rejects such roots); failures are not
        cached — a root that fails to flatten is rejected and never
        re-requested.
        """
        extension = self.lookup(root.tid, version, applied, root.priority)
        if extension is not None:
            return extension
        if (
            self.enabled
            and shipped is not None
            and shipped.member_set().isdisjoint(applied)
        ):
            if shipped.priority != root.priority:
                shipped = shipped.repriced(root.priority)
            extension = shipped
            self.stats.shipped += 1
        else:
            self.stats.misses += 1
            extension = compute_update_extension(schema, graph, root, applied)
        self.store(root.tid, version, extension)
        return extension

    def prune(self, keep: Iterable[TransactionId]) -> None:
        """Drop entries for roots no longer under consideration."""
        keep_set = set(keep)
        for tid in [t for t in self._entries if t not in keep_set]:
            del self._entries[tid]

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()


class PageCache:
    """A bounded LRU cache paging immutable values from a backing store.

    The durable store (:mod:`repro.store.durable`) keeps transaction
    bodies on disk and pages them through one of these, so resident
    memory stays O(cache capacity) — the open frontier — while the
    published history grows without bound.  The cache is deliberately
    dumb: keys map to immutable values, a hit refreshes recency, and
    inserting past ``capacity`` evicts the least-recently-used entry
    (an evicted body is simply re-read from disk on its next miss).

    Recency is tracked with the dict's own insertion order (pop +
    re-insert on hit), so iteration — and therefore eviction — is
    deterministic.  Counters mirror :class:`CacheStats` in spirit:
    ``hits``/``misses`` price the paging, ``evictions`` counts
    capacity-forced drops, and ``peak_resident`` records the high-water
    mark the bounded-memory claim is asserted against.
    """

    def __init__(self, capacity: int) -> None:
        """``capacity`` must be >= 1 (a zero-size page cache would turn
        every lookup into a disk read and hide bugs as slowness)."""
        if capacity < 1:
            raise ValueError(f"PageCache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_resident = 0
        self._entries: Dict[object, object] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The cached value, refreshed as most recently used; else None."""
        value = self._entries.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        self._entries[key] = value
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Insert (or refresh) an entry, evicting LRU past capacity."""
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        if len(self._entries) > self.peak_resident:
            self.peak_resident = len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def as_dict(self) -> Dict[str, int]:
        """A JSON-friendly view (used by the durable perf benchmark)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident": len(self._entries),
            "peak_resident": self.peak_resident,
            "capacity": self.capacity,
        }


class ConflictCache:
    """The confederation-shared memo of direct-conflict points per
    extension pair.

    Entries pin the two compared :class:`UpdateExtension` objects, so a
    recomputed (hence new) extension object naturally invalidates every
    pair it participated in.  Hits and comparisons are counted by the
    :class:`~repro.core.conflicts.IncrementalConflictIndex` that asks.

    The memo is mutated concurrently when the threaded epoch scheduler
    runs several reconciliations at once, so every structural mutation
    is guarded by an internal lock.  Races on content are benign by
    construction — conflict points are a pure function of the two
    extension objects, so two threads storing the same pair write the
    same value — but unguarded retirement while another thread inserts
    would corrupt the dict iteration.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        """``limit`` caps the entry count with FIFO eviction (an evicted
        pair simply gets re-compared on its next miss); None = unbounded."""
        self.limit = limit
        self._lock = threading.Lock()
        self._entries: Dict[PairKey, Tuple[UpdateExtension, UpdateExtension, Tuple]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def pair_key(left: TransactionId, right: TransactionId) -> PairKey:
        """The canonical unordered key for a pair of roots."""
        return (left, right) if left < right else (right, left)

    def lookup(
        self, key: PairKey, left: UpdateExtension, right: UpdateExtension
    ) -> Optional[Tuple]:
        """Cached conflict points for the pair, or None if stale/absent.

        ``left``/``right`` may arrive in either order; the stored entry is
        keyed canonically and validated by object identity on both sides.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        cached_left, cached_right, points = entry
        if (cached_left is left and cached_right is right) or (
            cached_left is right and cached_right is left
        ):
            return points
        return None

    def store(
        self, key: PairKey, left: UpdateExtension, right: UpdateExtension, points: Sequence
    ) -> None:
        """Record the pair's conflict points (possibly empty — cached too)."""
        with self._lock:
            self._entries[key] = (left, right, tuple(points))
            if self.limit is not None:
                while len(self._entries) > self.limit:
                    self._entries.pop(next(iter(self._entries)))

    def discard(self, roots: Iterable[TransactionId]) -> None:
        """Drop every pair involving any of ``roots`` (retirement: the
        roots have been finally decided by every participant, so no
        reconciliation will compare their extensions again)."""
        drop = set(roots)
        if not drop:
            return
        with self._lock:
            for key in [
                k for k in self._entries if k[0] in drop or k[1] in drop
            ]:
                del self._entries[key]

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
