"""The batch read path of a store that reads its own log.

:class:`DirectLogStore` is the base class of the two stores with direct
access to their log (the in-memory store and the one sqlite store),
sitting between :class:`~repro.store.base.UpdateStore` and the logs.  A
log supplies storage — publication, decision records and the ``_nc_*``
accessors — and what *reads* it to assemble a batch is written here,
once: :meth:`DirectLogStore.begin_reconciliation`, the client-centric
batch (the paper's implementation): advance to the stable epoch, take
the window's undecided foreign transactions, apply the trust policy,
and ship the trusted roots with their antecedent closure
(:meth:`~repro.store.base.UpdateStore.closure_entries`, stopping at the
applied set) and the shared conflict graph.  The reconciling
participant derives update extensions and detects conflicts itself,
adopting what another participant left on that graph.

Figure 3's network-centric column, store-computed batches, is the
distributed store's alone (:mod:`repro.store.dht`):
``Confederation.open()`` refuses ``network_centric="store"`` on a direct
log.

The shared conflict graph is pruned by reconciliation-aware retention;
see :meth:`DirectLogStore.retire_shared_entries`.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Set, Tuple

from repro.core.cache import ConflictGraph
from repro.core.extensions import (
    ReconciliationBatch,
    RelevantTransaction,
    TransactionGraph,
)
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.store.base import (
    DEFAULT_MESSAGE_LATENCY,
    EntryTable,
    LogEntry,
    UpdateStore,
)


class DirectLogStore(UpdateStore):
    """An update store that reads its own log: batch assembly written
    once for every such log.

    A concrete store supplies the log itself (the store contract of
    :class:`~repro.store.base.UpdateStore`) and the ``_nc_*`` accessors
    below; a subclass missing one cannot be instantiated.
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
        self._nc_shared_pairs = ConflictGraph()
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
    def _nc_applied_tids(self, participant: int) -> Set[TransactionId]:
        """The participant's applied transaction ids, for the batch whose
        ``_nc_candidates`` were just read (read-only: a log may hand out
        its live set, or only the applied ids that batch's walks meet)."""

    @abc.abstractmethod
    def _nc_priority(self, participant: int, transaction: Transaction) -> int:
        """The participant's trust priority for ``transaction``."""

    # ------------------------------------------------------------------
    # The confederation-shared conflict graph

    def shared_pair_cache(self) -> ConflictGraph:
        """The one confederation-wide conflict graph, on every batch.

        The first participant's conflict index to hold a pair hangs the
        edge on the two extension objects for all the others, and an
        extension a participant derives is registered there, once per
        (root, closure), for the next.
        """
        return self._nc_shared_pairs

    def retire_shared_entries(self, roots: List[TransactionId]) -> None:
        """Reconciliation-aware retention for the shared conflict graph.

        ``roots`` are transaction ids every registered participant has
        finally decided (applied or rejected).  Such a root can never
        appear in a reconciliation batch again — the store delivers only
        undecided transactions — so everything the graph holds for it
        (its derivations and their edges, unlinked at both ends) is dead
        weight in RAM and is dropped — on every log: it is derived data,
        never persisted, and a later miss (a participant registered
        after retirement) derives it again.  (Deferred roots are *not*
        retired: their participants reconsider them every round.)

        With retention as the primary policy, memory tracks the
        confederation's *open* frontier — O(undecided roots) — instead
        of O(recent history); a root is only FIFO-evicted (the graph's
        backstop) when retention cannot keep up, e.g. a registered
        participant that stopped reconciling.
        """
        self._nc_shared_pairs.discard(roots)

    def retired_extension_count(self) -> int:
        """How many roots' derivations the shared conflict graph has let
        go — retired or FIFO-evicted — since the store was opened."""
        return self._nc_shared_pairs.released

    # ------------------------------------------------------------------
    # The batch read path

    def begin_reconciliation(self, participant: int) -> ReconciliationBatch:
        """Assemble the next batch; see the base class.  The window's
        candidate entries seed the closure walk's table, so each log
        entry is read once."""
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

        graph = TransactionGraph()
        applied = self._nc_applied_tids(participant)
        for entry in self.closure_entries([root.tid for root in roots], applied, table):
            graph.add(entry)
        self._charge_call()
        return ReconciliationBatch(
            recno=stable, roots=roots, graph=graph, pair_cache=self._nc_shared_pairs
        )
