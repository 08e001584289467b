"""The update-store interface and performance accounting.

Section 5.2: the update store's fundamental role is "to publish and
retrieve updates, and to associate each published transaction with a
client reconciliation time."  Our interface (all implementations):

* :meth:`UpdateStore.register_participant` — join the CDSS with a trust
  policy (the store applies trust predicates store-side, as in the
  paper's central implementation, so only relevant transactions travel);
* :meth:`UpdateStore.publish` — publish a batch of transactions under a
  fresh epoch; the publisher's own transactions are recorded as applied;
* :meth:`UpdateStore.begin_reconciliation` — pick the reconciliation
  epoch (the latest *stable* epoch), gather newly relevant trusted
  transactions with priorities and the antecedent closure, and return a
  :class:`~repro.core.extensions.ReconciliationBatch`;
* :meth:`UpdateStore.complete_reconciliation` — record the participant's
  accept/reject/defer decisions so nothing is delivered twice;
* :meth:`UpdateStore.closure_entries` — the one read of the log: a set
  of transactions with their antecedent closure, for batch assembly and
  for rebuilding a participant's soft state.

The batch protocol is the **single store contract** the session layer
consumes: :meth:`UpdateStore.reconciliation_batch` dispatches to the
client-centric assembly every store implements, or to the
network-centric ``begin_network_reconciliation`` only the distributed
store has (``Confederation.open()`` refuses that mode on any other).
Everything above the store boundary —
:class:`~repro.core.session.ReconcileSession` and the engine — sees only
the batch, and adopts whatever payload it carries (store-computed
extensions, the shared conflict graph) without knowing the store's
type.

Store-phase discipline: a confederation is driven from one thread and
stores are not thread-safe.  Each store call the transport layer
(:class:`~repro.cdss.participant.Participant`) makes is one measured
store phase, ``Participant._store_call``: the perf snapshot, the call,
its delta and the latency it charged — what the latency and perf
accounting depend on.  ``test_every_charged_message_is_in_one_store_phase``
holds it: the phases' deltas add up to all the store charged.

Performance accounting: every store tracks a :class:`PerfCounters` of
messages exchanged and the simulated network latency they cost.  A
direct-log store charges one request/reply pair per API call
(client-server round trip; ``publish`` is one); the DHT store charges
every protocol message of Figures 6-7.
Latency per message defaults to 500 microseconds, the floor the paper
injected in its distributed experiments.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cache import CacheStats
from repro.core.decisions import ReconcileResult
from repro.core.extensions import LogEntry, ReconciliationBatch, antecedent_closure
from repro.errors import StoreError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.net.clock import BlockingLatencyClock, LatencyClock
from repro.policy.acceptance import TrustPolicy

#: One-way latency charged per simulated message, in seconds (paper: the
#: distributed experiments added "a delay of at least 500 microseconds ...
#: to every message (and reply) transmission").
DEFAULT_MESSAGE_LATENCY = 500e-6

#: The entries one caller (a batch assembly) has read so far, by
#: transaction id; see :meth:`UpdateStore.closure_entries`.
EntryTable = Dict[TransactionId, LogEntry]


@dataclass
class PerfCounters:
    """Cumulative traffic and simulated-latency accounting for a store."""

    messages: int = 0
    simulated_seconds: float = 0.0

    def charge(self, messages: int, latency: float) -> None:
        """Record ``messages`` messages at ``latency`` seconds each."""
        self.messages += messages
        self.simulated_seconds += messages * latency

    def snapshot(self) -> "PerfCounters":
        """An independent copy (for before/after deltas)."""
        return PerfCounters(self.messages, self.simulated_seconds)

    def minus(self, earlier: "PerfCounters") -> "PerfCounters":
        """The delta between this snapshot and an earlier one."""
        return PerfCounters(
            self.messages - earlier.messages,
            self.simulated_seconds - earlier.simulated_seconds,
        )


class UpdateStore(abc.ABC):
    """Interface every update store implements."""

    def __init__(
        self,
        schema: Schema,
        message_latency: float = DEFAULT_MESSAGE_LATENCY,
        real_latency: bool = False,
    ) -> None:
        """``real_latency=True`` makes the injected per-message delay
        *real* (the paper's experiments injected these delays for real;
        by default we only account them): see :meth:`pay_latency`."""
        if message_latency < 0:
            raise StoreError(f"message_latency must be >= 0, not {message_latency}")
        self._schema = schema
        self._message_latency = message_latency
        self._real_latency = real_latency
        #: How charged latency is paid in wall time (see
        #: :mod:`repro.net.clock`; the async scheduler swaps it while it runs).
        self.clock: LatencyClock = BlockingLatencyClock()
        self.perf = PerfCounters()
        #: Optional hook bus (``repro.confed.hooks.HookBus``), attached
        #: by ``Confederation.open()`` so stores can surface fault /
        #: retry / degraded / recovery events; ``None`` when standalone.
        self.hooks = None

    def _emit(self, event: str, **payload) -> None:
        """Emit a hook event when a bus is attached (no-op otherwise)."""
        if self.hooks is not None:
            self.hooks.emit(event, **payload)

    @property
    def schema(self) -> Schema:
        """The shared CDSS schema."""
        return self._schema

    @property
    def message_latency(self) -> float:
        """Simulated one-way latency per message, in seconds."""
        return self._message_latency

    @property
    def real_latency(self) -> bool:
        """True when charged latency is slept for real (see ``__init__``)."""
        return self._real_latency

    def pay_latency(self, seconds: float) -> None:
        """Pay ``seconds`` through the clock if delays are real.

        Part of the store contract (every :class:`UpdateStore` provides
        it; this base implementation is the default): the transport layer
        (:meth:`repro.cdss.participant.Participant._store_call`) calls it
        unconditionally with the simulated-latency delta of the store
        call it just made, after the call returns or raises.  The wait
        itself is delegated to :attr:`clock` (never an inline
        ``time.sleep``): blocking under the serial schedule, accrued to
        the running segment's participant under the async schedule.
        Third-party drivers must not remove it; a driver that charged
        latency but never paid it would silently break the paper's
        injected-delay experiments.
        """
        if self._real_latency and seconds > 0:
            self.clock.pay(seconds)

    # ------------------------------------------------------------------

    @abc.abstractmethod
    def register_participant(
        self, participant: int, policy: TrustPolicy
    ) -> None:
        """Add a participant and its trust policy to the confederation."""

    def publish(
        self, participant: int, transactions: Sequence[Transaction]
    ) -> int:
        """Publish a transaction batch; returns the allocated epoch.

        The publisher's transactions are recorded as applied by it (they
        are already in its local instance).  An empty batch still allocates
        and finishes an epoch, which keeps the epoch clock advancing the
        way the paper's global ordering assumes.

        ``publish`` is the one-shot form of the decoupled protocol below:
        ``begin_publish`` + ``write_transactions`` + ``finish_publish``.
        The epoch is finished even when the write fails, so it never
        blocks the stable-epoch computation forever (a rejected batch
        contributes an empty epoch).  On a direct-log store it is one
        procedure call; each step called alone is one call of its own.
        """
        epoch = self.begin_publish(participant)
        try:
            self.write_transactions(participant, epoch, transactions)
        finally:
            self.finish_publish(participant, epoch)
        return epoch

    # ------------------------------------------------------------------
    # Decoupled publication (Section 5.2.1)
    #
    # "Since publishing is not instantaneous, each peer records when it
    # has started publishing, and also when it has finished. ... when a
    # peer requests to reconcile after publishing, it determines the
    # latest epoch not preceded by an 'unfinished' epoch."  Exposing the
    # begin/write/finish phases lets several peers publish concurrently
    # while reconciliations only ever see stable prefixes.

    @abc.abstractmethod
    def begin_publish(self, participant: int) -> int:
        """Allocate an epoch and mark it as publishing; returns the epoch."""

    @abc.abstractmethod
    def write_transactions(
        self, participant: int, epoch: int, transactions: Sequence[Transaction]
    ) -> None:
        """Write transactions under an epoch opened by ``begin_publish``."""

    @abc.abstractmethod
    def finish_publish(self, participant: int, epoch: int) -> None:
        """Mark the epoch finished; it can now become stable."""

    def unpublished(
        self, participant: int, transactions: Sequence[Transaction]
    ) -> List[Transaction]:
        """Those of ``transactions`` no epoch of ``participant`` lists after a
        ``publish`` that raised: all of them where ``write_transactions`` is
        atomic.  A store that lists a batch one at a time overrides this."""
        return list(transactions)

    @abc.abstractmethod
    def begin_reconciliation(self, participant: int) -> ReconciliationBatch:
        """Assemble the participant's next reconciliation batch."""

    def reconciliation_batch(
        self, participant: int, network_centric: bool = False
    ) -> ReconciliationBatch:
        """The single batch contract the session layer consumes:
        :meth:`begin_reconciliation`, or — on a store that has it — the
        store-computed ``begin_network_reconciliation``, whose batch
        carries each root's extension against this participant's
        applied set and the conflict adjacency.  Asked of a store without
        it, a :class:`StoreError` naming ``'dht'``, before anything moves."""
        if not network_centric:
            return self.begin_reconciliation(participant)
        if not hasattr(self, "begin_network_reconciliation"):
            raise StoreError(
                f"store backend {type(self).__name__} does not compute "
                f"batches; network-centric reconciliation needs 'dht'"
            )
        return self.begin_network_reconciliation(participant)

    @abc.abstractmethod
    def complete_reconciliation(
        self, participant: int, result: ReconcileResult
    ) -> None:
        """Record the decisions of a finished reconciliation."""

    # ------------------------------------------------------------------
    # Introspection shared by benchmarks and tests

    @abc.abstractmethod
    def current_epoch(self) -> int:
        """The highest epoch allocated so far."""

    @abc.abstractmethod
    def transaction_count(self) -> int:
        """Total number of transactions ever published."""

    @abc.abstractmethod
    def last_reconciliation_epoch(self, participant: int) -> int:
        """The epoch of the participant's most recent reconciliation."""

    def derivation_stats(self) -> CacheStats:
        """How often the store itself derived update extensions, and how
        often it reused one instead: none, unless it computes batches."""
        return CacheStats()

    @abc.abstractmethod
    def decided_transactions(
        self, participant: int
    ) -> Tuple[List[Tuple], List[TransactionId], List[TransactionId]]:
        """``(applied entries in publish order, rejected ids, deferred ids)``;
        an applied entry is ``(version, head, transaction, antecedents)``.

        This is the basis of the paper's soft-state claim: "it is possible
        to reconstruct the entire state of the participant, up to his or
        her last reconciliation, from the update store."  An applied entry
        carries the applied-set version after the step that applied it and
        whether it headed its closure there (an own publication or accepted
        root, not an ancestor a later root carried in).
        """

    @abc.abstractmethod
    def _nc_lookup(self, tid: TransactionId) -> LogEntry:
        """The log entry of one published transaction — the per-backend
        primitive under :meth:`closure_entries`."""

    def antecedents_of(self, tid: TransactionId) -> Tuple[TransactionId, ...]:
        """The antecedents the store computed for ``tid`` at publish time."""
        return self._nc_lookup(tid)[1]

    def closure_entries(
        self,
        roots: Iterable[TransactionId],
        stop: Set[TransactionId],
        table: Optional[EntryTable] = None,
    ) -> List[LogEntry]:
        """The one read of the log: the entries of ``roots`` and their
        antecedent closure, not descending into ``stop`` (roots are
        always included).

        Batch assembly and state reconstruction read the log through
        here.  ``table`` holds the entries a caller has already read and
        is extended in place, so a walk looks up no member the caller
        (a batch's candidate read) or an earlier walk sharing the table
        already has.
        """
        if table is None:
            table = {}

        def antecedents_of(tid: TransactionId) -> Tuple[TransactionId, ...]:
            """``tid``'s antecedents: its entry is read on first sight."""
            entry = table.get(tid)
            if entry is None:
                entry = table[tid] = self._nc_lookup(tid)
            return entry[1]

        # The walk asks for the antecedents of every member it returns,
        # so all of them are in the table by now.
        closure = antecedent_closure(antecedents_of, roots, stop)
        return [table[tid] for tid in closure]
