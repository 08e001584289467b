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

* :class:`ConflictGraph` is what the confederation knows about *pairs*:
  direct-conflict points are a pure function of two extension objects, so
  an edge — the points, or ``()`` — hangs on the two objects themselves,
  written by the first conflict index to hold both and read by every
  other with one probe.  Extensions are immutable and an
  :class:`ExtensionCache` returns the same object while an entry stays
  valid, so identity is exact.  The same object keeps the one derivation
  per (root, closure) that participants adopt from each other.

* :class:`CacheStats` counts hits, misses, and revalidations; the engine
  exposes a per-reconciliation snapshot on
  :attr:`~repro.core.decisions.ReconcileResult.cache_stats`.

An :class:`ExtensionCache` is a participant's, on its
:class:`~repro.core.engine.Reconciler`, and is pruned to the
still-deferred roots after each reconciliation, so it holds O(deferred)
entries, not O(history).  There is one :class:`ConflictGraph` per store,
shipped on every batch (see
:meth:`repro.store.direct_log.DirectLogStore.shared_pair_cache`) and
pruned by the store's retirement signal; which pairs one participant
holds, client-side or in the DHT's store-computed batch assembly, lives
in its :class:`~repro.core.conflicts.IncrementalConflictIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.model.schema import Schema
from repro.model.transactions import TransactionId

from repro.core.extensions import (
    RelevantTransaction,
    TransactionGraph,
    UpdateExtension,
    flattened_extension,
)


@dataclass
class CacheStats:
    """Counters for one cache (or a snapshot/delta of them).

    ``hits`` are O(1) version matches; ``revalidations`` are O(|members|)
    reuses after the applied set grew; ``shipped`` counts extensions
    adopted instead of computed locally (ones another participant
    derived over the same closure, and the per-participant extensions
    of a store-computed batch); ``misses`` are full recomputations
    (including cold entries).  ``pair_misses`` counts the pairwise
    comparisons a conflict index performed and ``pair_hits`` the
    candidate pairs the shared :class:`ConflictGraph` answered for it
    instead — subsumed pairs included, which cost no comparison the
    first time either.  A pair neither of whose extensions changed is
    never examined again and counts as neither.
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
    """Memoizes update extensions against an applied-set version counter."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._entries: Dict[TransactionId, Tuple[int, UpdateExtension]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, tid: TransactionId, version: int, applied: Set[TransactionId]
    ) -> Optional[UpdateExtension]:
        """The cached extension for ``tid`` if still valid, else None.

        A version match hits outright.  Otherwise the entry is revalidated:
        if none of its members became applied, the closure is unchanged and
        the entry is refreshed to the current version (see module
        docstring).  A trust policy that moved the root's priority leaves
        the entry valid: the extension carries none.
        """
        entry = self._entries.get(tid)
        if entry is None:
            return None
        cached_version, extension = entry
        if cached_version == version:
            self.stats.hits += 1
            return extension
        if applied.isdisjoint(extension.member_set):  # a view iterates the smaller side
            self._entries[tid] = (version, extension)
            self.stats.revalidations += 1
            return extension
        return None

    def get_or_compute(
        self,
        schema: Schema,
        graph: TransactionGraph,
        root: RelevantTransaction,
        applied: Set[TransactionId],
        version: int,
        shipped: Optional[UpdateExtension] = None,
        shared: Optional["ConflictGraph"] = None,
    ) -> UpdateExtension:
        """The root's extension: cached, adopted, or derived — in that
        order.

        ``shipped`` is the extension a store-computed batch offers for
        the root, derived against this participant's applied set: it is
        adopted as it is.  Otherwise the closure is walked once, and
        ``shared`` (the batch's conflict graph, if it carries one) is
        asked for what some participant already derived over exactly
        that closure; only then are the members the walk returned
        flattened here, and the result registered there for the next.
        An adopted extension is kept as the very object, whatever
        priority this participant gives the root.

        Propagates :class:`~repro.errors.FlattenError` from the underlying
        computation (the engine rejects such roots); failures are not
        cached — a root that fails to flatten is rejected and never
        re-requested.
        """
        extension = self.lookup(root.tid, version, applied)
        if extension is not None:
            return extension
        extension = shipped
        if extension is None:
            members = graph.extension(root.tid, applied)
            if shared is not None:
                extension = shared.derived(root.tid, tuple(members))
        if extension is not None:
            self.stats.shipped += 1
        else:
            self.stats.misses += 1
            extension = flattened_extension(
                schema,
                root.tid,
                # The root comes last in its closure: alone, it is the
                # one body, and nothing is looked up.
                (root.transaction,)
                if len(members) == 1
                else [graph.transaction(tid) for tid in members],
            )
            if shared is not None:
                shared.register(extension)
        self._entries[root.tid] = (version, extension)  # valid at ``version``
        return extension

    def prune(self, keep: Iterable[TransactionId]) -> None:
        """Drop entries for roots no longer under consideration."""
        keep_set = set(keep)
        for tid in [t for t in self._entries if t not in keep_set]:
            del self._entries[tid]


class PageCache:
    """A bounded LRU cache paging immutable values from a backing store.

    The sqlite stores (:mod:`repro.store.central`, registered as
    ``central`` and ``durable``) keep transaction bodies on disk and
    page them through one of these, so resident memory stays O(cache
    capacity) — the open frontier — while the published history grows
    without bound.  The cache is deliberately
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


#: Backstop capacity of a :class:`ConflictGraph` (and of the DHT
#: controllers' derivation tables), in roots.  Retirement is the primary
#: eviction policy; this FIFO cap only bounds worst-case memory when
#: retirement cannot fire — e.g. a registered participant that stops
#: reconciling would otherwise pin every root forever.  An evicted root
#: merely costs a derivation on the next miss.
SHARED_MEMO_LIMIT = 65536

#: The neighbourhood of an extension registered with no edge yet: one
#: shared empty mapping, never written — :meth:`ConflictGraph.link`
#: gives an extension a dict of its own at its first edge.
_UNLINKED = MappingProxyType({})


class ConflictGraph:
    """The confederation-shared conflict graph: what is known about
    pairs of extension *objects*, hung on the objects themselves.

    An extension is registered under its root.  A registered extension
    carries its neighbourhood, ``id(other) -> (other, points)``: an edge
    is written at both ends by the first conflict index to hold both
    (:meth:`link`), says ``()`` for a pair that does not conflict *or*
    of which one subsumes the other, and is read by every later index
    with one probe and an identity test.  An edge pins its two objects,
    so the ``id`` it is filed under cannot be reused while it stands; a
    recomputed object has no edges.

    The same registry is the one derivation per (root, closure): an
    extension is a pure function of its root and member set, so the
    first participant to flatten a closure (:meth:`register`) serves
    every other whose walk ends on it (:meth:`derived`), at whatever
    priority each gives the root.  Registering allocates nothing until
    it must: a root's first extension is its own entry and shares the
    empty neighbourhood, a dict of its own comes with its first edge,
    and a list of a root's other extensions with its second closure.

    Roots leave by the stores' retirement signal (:meth:`discard`),
    O(degree) per extension, with ``limit`` as the backstop;
    ``released`` counts the roots let go either way.  Only these
    helpers mutate the registry.
    """

    def __init__(self, limit: Optional[int] = SHARED_MEMO_LIMIT) -> None:
        """``limit`` caps the registered roots with FIFO eviction (an
        evicted root's edges and derivations are simply recomputed on
        the next miss); None = unbounded."""
        self.limit = limit
        self.released = 0
        self._entries: Dict[TransactionId, UpdateExtension] = {}
        # A root's extensions past its first, one per further closure.
        self._others: Dict[TransactionId, List[UpdateExtension]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def derived(
        self, root: TransactionId, members: Tuple[TransactionId, ...]
    ) -> Optional[UpdateExtension]:
        """The registered extension of ``root`` over the closure
        ``members`` (in publish order), if there is one."""
        first = self._entries.get(root)
        if first is None or first.members == members:
            return first
        for other in self._others.get(root, ()):
            if other.members == members:
                return other
        return None

    def register(self, extension: UpdateExtension) -> None:
        """Register ``extension`` under its root: a derivation
        :meth:`derived` had none of, or one end of a first edge
        (:meth:`link`)."""
        extension._hood = _UNLINKED
        root = extension.root
        if root in self._entries:
            self._others.setdefault(root, []).append(extension)
        else:
            self._entries[root] = extension
            if self.limit is not None and len(self._entries) > self.limit:
                self._unlink(next(iter(self._entries)))

    def _unlink(self, root: TransactionId) -> None:
        first = self._entries.pop(root, None)
        if first is None:
            return
        self.released += 1
        for extension in (first, *self._others.pop(root, ())):
            hood, extension._hood = extension._hood, None
            for other, _points in hood.values():
                del other._hood[id(extension)]

    def link(
        self, left: UpdateExtension, right: UpdateExtension, points: Tuple
    ) -> None:
        """Hang the edge between ``left`` and ``right`` on both
        (``points`` possibly empty — known too)."""
        if left._hood is None:
            self.register(left)
        if right._hood is None:
            self.register(right)
        if left._hood is None or right._hood is None:
            return  # the backstop evicted one end to admit the other
        if left._hood is _UNLINKED:
            left._hood = {}
        if right._hood is _UNLINKED:
            right._hood = {}
        left._hood[id(right)] = (right, points)
        right._hood[id(left)] = (left, points)

    def discard(self, roots: Iterable[TransactionId]) -> None:
        """Unlink every extension of ``roots``, at both ends of each edge
        (retirement: the roots have been finally decided by every
        participant, so no reconciliation will hold their extensions
        again)."""
        for root in roots:
            self._unlink(root)
