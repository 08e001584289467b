"""The batch read path of a store that reads its own log — both
columns of Figure 3.

:class:`DirectLogStore` is the base class of the two stores with direct
access to their log (the in-memory store and the one sqlite store),
sitting between :class:`~repro.store.base.UpdateStore` and the logs.  A
log supplies storage — publication, decision records and the ``_nc_*``
accessors — and everything that *reads* it to assemble a batch is
written here, once:

* :meth:`DirectLogStore.begin_reconciliation`, the client-centric batch
  (the paper's implementation, and our default): advance to the stable
  epoch, take the window's undecided foreign transactions, apply the
  trust policy, and ship the trusted roots with their antecedent closure
  (:meth:`~repro.store.base.UpdateStore.closure_entries`, stopping at
  the applied set) and their context-free extensions.  The reconciling
  participant computes update extensions and detects conflicts itself.
* :meth:`DirectLogStore.begin_network_reconciliation`, Figure 3's
  *network-centric* column, which "distributes almost all of the work
  across the network" at the price of more communication (the paper
  leaves it as future work): the same batch with the participant's
  deferred transactions (which the store tracks) folded in as roots,
  and flattened update extensions and direct-conflict adjacency already
  computed.  The client then only runs ``CheckState`` (it alone holds
  the materialised instance, dirty values, and its own delta), the
  cheap greedy ``DoGroup``, and application.

One batch reads each log entry once: the entry table of the batch's
closure walk also feeds every root's context-free closure and the
deferred roots.

The distributed store does not derive from this class — it has no
direct log access.  Its transaction controllers derive context-free
extensions at publish time, and each participant's extensions against
that participant's applied set over the ring protocol; the driver
assembles the conflict adjacency through the same
:func:`attach_assembled_payload` helper this class uses — so every
built-in backend serves ``begin_network_reconciliation`` (see
:mod:`repro.store.dht`).

The shared memos (context-free extensions, the conflict graph) are
pruned by reconciliation-aware retention; see
:meth:`DirectLogStore.retire_shared_entries`.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cache import CacheStats, ConflictGraph, ExtensionCache
from repro.core.conflicts import IncrementalConflictIndex
from repro.core.decisions import ReconcileResult
from repro.core.extensions import (
    ReconciliationBatch,
    RelevantTransaction,
    TransactionGraph,
    UpdateExtension,
    flattened_extension,
)
from repro.errors import FlattenError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.store.base import (
    DEFAULT_MESSAGE_LATENCY,
    EntryTable,
    LogEntry,
    UpdateStore,
)


def attach_assembled_payload(
    schema, batch: ReconciliationBatch, extensions, index: IncrementalConflictIndex
) -> int:
    """Finish a fully network-centric batch: store-side ``FindConflicts``.

    The shared back half of ``begin_network_reconciliation`` for every
    backend: given the per-participant extensions (derived from direct
    log access by :class:`DirectLogStore`, or collected from transaction
    controllers over the ring by the DHT driver), bring the
    participant's store-side conflict ``index`` to them — over the
    conflict graph the batch carries: the participants' indexes compare
    a pair once between them — attach extensions and adjacency (a view
    of the index) to the batch, and return the number of (undirected)
    conflict edges.  A direct-log store prices shipping them at one
    fragment each (Figures 6-7's size-bounded-message regime); the DHT
    ships only the edges its peer does not already hold.
    """
    analysis = index.update(schema, batch.graph, extensions, batch.pair_cache)
    batch.extensions = extensions
    batch.conflicts = analysis.adjacency
    return len(analysis.points)


class DirectLogStore(UpdateStore):
    """An update store that reads its own log: batch assembly and
    store-side precomputation of extensions and conflicts, written once
    for every such log.

    A concrete store supplies the log itself (the store contract of
    :class:`~repro.store.base.UpdateStore`) and the ``_nc_*`` accessors
    below; a subclass missing one cannot be instantiated.

    Precomputation reuses the client engine's machinery — an
    :class:`ExtensionCache` and an :class:`IncrementalConflictIndex` —
    held per participant: a deferred transaction's extension — and every
    conflict pair untouched by new publications — depends only on the
    applied set, so it is computed once per change rather than once per
    reconciliation.
    """

    #: Simulated seconds every API call costs on top of its two
    #: messages; only a log that models a remote DBMS sets one.
    DEFAULT_CALL_OVERHEAD = 0.0

    def __init__(
        self,
        schema: Schema,
        message_latency: float = DEFAULT_MESSAGE_LATENCY,
        real_latency: bool = False,
    ) -> None:
        super().__init__(schema, message_latency, real_latency=real_latency)
        self._nc_caches: Dict[
            int, Tuple[ExtensionCache, IncrementalConflictIndex]
        ] = {}
        self._nc_context_free: Dict[
            TransactionId, Optional[UpdateExtension]
        ] = {}
        self._nc_shared_pairs = ConflictGraph(limit=self.SHARED_MEMO_LIMIT)
        # Context-free memo entries let go so far, retired or evicted.
        self._nc_released = 0
        self._publishing = False  # inside publish(): its steps are one call

    def _charge_call(self) -> None:
        """Account one client-server procedure call: request + reply —
        the paper's "constant number of procedures are invoked during
        each reconciliation" — plus the log's per-call overhead."""
        if not self._publishing:
            self.perf.charge(2, self._message_latency)
            self.perf.simulated_seconds += self.DEFAULT_CALL_OVERHEAD

    def publish(self, participant: int, transactions: Sequence[Transaction]) -> int:
        """One procedure call: the log runs begin, write and finish
        itself, and the call is charged once, refused or not."""
        self._publishing = True
        try:
            return super().publish(participant, transactions)
        finally:
            self._publishing = False
            self._charge_call()

    @abc.abstractmethod
    def _nc_advance(self, participant: int) -> Tuple[int, int]:
        """Record a reconciliation at the stable epoch — the latest not
        preceded by an unfinished one — and return the window
        ``(previous reconciliation epoch, stable epoch)``."""

    @abc.abstractmethod
    def _nc_candidates(
        self, participant: int, last: int, stable: int
    ) -> List[LogEntry]:
        """The entries of the transactions other participants published
        in epochs ``last < e <= stable`` for which ``participant`` has
        no decision on record — applied, rejected or deferred (the
        client caches and reconsiders deferred ones itself)."""

    @abc.abstractmethod
    def _nc_deferred_tids(self, participant: int) -> List[TransactionId]:
        """The participant's deferred transaction ids, in publish order."""

    @abc.abstractmethod
    def _nc_applied_tids(self, participant: int) -> Set[TransactionId]:
        """The participant's applied transaction ids, for the batch whose
        ``_nc_candidates`` were just read (read-only: a log may hand out
        its live set, or only the applied ids that batch's walks meet)."""

    @abc.abstractmethod
    def _nc_applied_version(self, participant: int) -> int:
        """A monotone counter bumped whenever that applied set grows
        (drives cache invalidation)."""

    @abc.abstractmethod
    def _nc_priority(self, participant: int, transaction: Transaction) -> int:
        """The participant's trust priority for ``transaction``."""

    def _nc_caches_of(
        self, participant: int
    ) -> Tuple[ExtensionCache, IncrementalConflictIndex]:
        """The participant's store-side extension cache and conflict
        index (one shared :class:`~repro.core.cache.CacheStats`)."""
        caches = self._nc_caches.get(participant)
        if caches is None:
            extensions = ExtensionCache()
            caches = extensions, IncrementalConflictIndex(stats=extensions.stats)
            self._nc_caches[participant] = caches
        return caches

    def _nc_retire(self, participant: int, result: ReconcileResult) -> None:
        """Bring the participant's store-side conflict index down to its
        open deferred set: the roots ``result`` finally decides leave
        (every log's ``complete_reconciliation`` ends here)."""
        caches = self._nc_caches.get(participant)
        if caches is not None:
            caches[1].discard(self.schema, (*result.applied, *result.rejected))

    def derivation_stats(self) -> CacheStats:
        """The per-participant store-side caches' counters, summed."""
        total = CacheStats()
        for extensions, _pairs in self._nc_caches.values():
            total.add(extensions.stats)
        return total

    # ------------------------------------------------------------------
    # Context-free extensions: computed once per published transaction,
    # shared by every participant.

    #: Backstop capacity of the confederation-shared memos.  Retention
    #: (:meth:`retire_shared_entries`) is the primary eviction policy;
    #: this FIFO cap only bounds worst-case memory when retention cannot
    #: fire — e.g. a registered participant that stops reconciling would
    #: otherwise pin every entry forever.  An evicted entry is dropped,
    #: on every log, and merely costs a recomputation on the next miss.
    SHARED_MEMO_LIMIT = 65536

    def context_free_extension(
        self, root: RelevantTransaction, table: Optional[EntryTable] = None
    ) -> Optional[UpdateExtension]:
        """The root's update extension against an *empty* applied set
        (``table``: the entries the calling batch has already read).

        A transaction's full antecedent closure — and hence its flattened
        extension with no applied-set filtering — is fixed at publish
        time, so the store derives it exactly once for the whole
        confederation (the memo is keyed by transaction id and never
        invalidated; entries leave through
        :meth:`retire_shared_entries` once every participant has
        finally decided the root, with the :attr:`SHARED_MEMO_LIMIT`
        FIFO backstop bounding the worst case).  A participant whose
        applied set is disjoint from the closure can adopt it as-is:
        the closure walk stops only at applied transactions, so
        removing stops that are never reached changes nothing.  Returns
        None when the footprint does not flatten (the engine rejects
        such roots locally).
        """
        memo = self._nc_context_free
        tid = root.tid
        if tid in memo:
            return memo[tid]
        closure = self.closure_entries([tid], frozenset(), table)
        closure.sort(key=lambda entry: entry[2])  # publish order
        try:
            extension = flattened_extension(
                self.schema, root, [entry[0] for entry in closure]
            )
        except FlattenError:
            extension = None  # memoised as None: the engine rejects such roots
        memo[tid] = extension
        while len(memo) > self.SHARED_MEMO_LIMIT:  # the FIFO backstop
            del memo[next(iter(memo))]
            self._nc_released += 1
        return extension

    def shared_pair_cache(self) -> ConflictGraph:
        """The one confederation-wide conflict graph.

        Every participant receives the *same* context-free extension
        objects (from the store's memo), so the first conflict index to
        hold a pair — a participant's, or one this store assembles
        batches on — hangs the edge on the two objects for all the
        others.  An extension a participant had to derive locally is
        registered there too, once per (root, closure), for the next.
        """
        return self._nc_shared_pairs

    def retire_shared_entries(self, roots: List[TransactionId]) -> None:
        """Reconciliation-aware retention for the shared memos.

        ``roots`` are transaction ids every registered participant has
        finally decided (applied or rejected).  Such a root can never
        appear in a reconciliation batch again — the store delivers only
        undecided transactions — so its context-free extension, and
        everything the conflict graph holds for it (its derivations and
        their edges, unlinked at both ends), is dead weight in RAM and
        is dropped — on every log: it is derived data, never persisted,
        and a later miss (a participant registered after retirement)
        recomputes it from the log.  (Deferred roots are *not* retired:
        in network-centric mode the store reconsiders them every round.)

        With retention as the primary policy, memory tracks the
        confederation's *open* frontier — O(undecided roots) — instead
        of O(recent history); an entry is only FIFO-evicted (the
        :attr:`SHARED_MEMO_LIMIT` backstop) when retention cannot keep
        up, e.g. a registered participant that stopped reconciling.
        """
        memo = self._nc_context_free
        for tid in roots:
            if tid in memo:
                del memo[tid]
                self._nc_released += 1
        self._nc_shared_pairs.discard(roots)

    def retired_extension_count(self) -> int:
        """How many context-free extensions the shared memo has let go
        — retired or FIFO-evicted — since the store was opened."""
        return self._nc_released

    def ship_context_free_extensions(
        self, batch: ReconciliationBatch, table: Optional[EntryTable] = None
    ) -> None:
        """Attach precomputed context-free extensions to a batch
        (``table``: the entries its assembly has already read).

        Done for every reconciliation batch (client-centric included):
        the payload is derived data — the batch already carries the
        closure transactions themselves — so it costs no extra store
        messages, and it saves each reconciling participant from
        re-deriving the identical flattened footprint locally.  The
        shared conflict graph rides along for the same reason.
        """
        shipped = {
            root.tid: extension
            for root in batch.roots
            if (extension := self.context_free_extension(root, table)) is not None
        }
        batch.extensions = shipped or None
        batch.pair_cache = self.shared_pair_cache()

    # ------------------------------------------------------------------
    # The batch read path

    def _assemble(
        self, participant: int
    ) -> Tuple[ReconciliationBatch, Set[TransactionId], EntryTable]:
        """The client-centric batch, with the applied set it stopped at
        and the log entries it read (the network-centric assembly goes
        on from both)."""
        last, stable = self._nc_advance(participant)
        table: EntryTable = {}
        roots: List[RelevantTransaction] = []
        for entry in self._nc_candidates(participant, last, stable):
            transaction, _antecedents, order = entry
            table[transaction.tid] = entry
            priority = self._nc_priority(participant, transaction)
            if priority > 0:
                roots.append(RelevantTransaction(transaction, priority, order))
        roots.sort(key=lambda root: root.order)

        applied = self._nc_applied_tids(participant)
        graph = TransactionGraph()
        for entry in self.closure_entries(
            [root.tid for root in roots], applied, table
        ):
            graph.add(*entry)
        self._charge_call()
        batch = ReconciliationBatch(recno=stable, roots=roots, graph=graph)
        # Derived data riding along with the closure transactions: the
        # flattened context-free extensions, computed once per published
        # transaction for the whole confederation.
        self.ship_context_free_extensions(batch, table)
        return batch, applied, table

    def begin_reconciliation(self, participant: int) -> ReconciliationBatch:
        """Assemble the next batch; see the base class."""
        return self._assemble(participant)[0]

    def begin_network_reconciliation(
        self, participant: int
    ) -> ReconciliationBatch:
        """A batch with store-computed extensions and conflict adjacency."""
        batch, applied, table = self._assemble(participant)

        # Fold the participant's deferred transactions in as roots: in
        # network-centric mode the store recomputes their standing too.
        present = {root.tid for root in batch.roots}
        deferred = [
            tid
            for tid in self._nc_deferred_tids(participant)
            if tid not in present
        ]
        for entry in self.closure_entries(deferred, applied, table):
            batch.graph.add(*entry)
        for tid in deferred:
            transaction, _antecedents, order = table[tid]
            priority = self._nc_priority(participant, transaction)
            batch.roots.append(RelevantTransaction(transaction, priority, order))
        batch.roots.sort(key=lambda root: root.order)

        ext_cache, index = self._nc_caches_of(participant)
        version = self._nc_applied_version(participant)
        extensions = {}
        for root in batch.roots:
            try:
                # Work that only depends on the applied set is shared: a
                # context-free extension valid for this participant is
                # adopted instead of recomputing per participant.
                extensions[root.tid] = ext_cache.get_or_compute(
                    self.schema,
                    batch.graph,
                    root,
                    applied,
                    version,
                    shipped=self.context_free_extension(root, table),
                    shared=batch.pair_cache,
                )
            except FlattenError:
                # Leave it out; the client's fallback recomputation will
                # reach the same FlattenError and reject the root.
                continue
        edges = attach_assembled_payload(self.schema, batch, extensions, index)

        # Deferred roots reappear in the next round's batch; anything else
        # is decided by then, so cap the cache at this round's roots (the
        # index update has just dropped what left).
        ext_cache.prune(extensions)

        # Communication: shipping the precomputed structures costs
        # messages proportional to their size (one fragment per flattened
        # update, plus one per conflict edge).
        shipped = sum(len(ext.operations) for ext in extensions.values()) + edges
        self.perf.charge(2 + shipped, self.message_latency)
        return batch
