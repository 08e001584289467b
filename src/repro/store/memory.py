"""In-process update store — the reference implementation.

Implements the full store contract in plain Python structures.  The
central sqlite store and the simulated DHT store must behave identically;
their tests compare against this one.  The log is a dict from transaction
id to the ``(transaction, antecedents, publish order)`` entry every read
hands out, so a published transaction costs the store that one tuple.

Message accounting: one request/reply pair (2 messages) per public API
call, matching a client talking to a single server with batched
operations — the paper's observation that "a constant number of procedures
are invoked during each reconciliation".  ``publish`` is one such call:
the store runs begin, write and finish itself; each step called alone,
as by a concurrent publisher, is one call of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.decisions import ReconcileResult
from repro.errors import StoreError, UnknownTransactionError
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.policy.acceptance import TrustPolicy
from repro.store.base import DEFAULT_MESSAGE_LATENCY, EntryTable
from repro.store.network_centric import DirectLogStore
from repro.store.logic import (
    ProducerIndex,
    compute_antecedents,
    register_producers,
    stable_epoch,
)


@dataclass
class _ParticipantRecord:
    """Store-side per-participant state (Section 5.2's moved sets)."""

    policy: TrustPolicy
    last_recon_epoch: int = 0
    #: Applied tid -> the ``applied_version`` after the step applying it.
    applied: Dict[TransactionId, int] = field(default_factory=dict)
    #: Bumped by each step that applies; versions the store-side caches.
    applied_version: int = 0
    #: Applied tids no accepted root: a later root of the step carried them in.
    carried: Set[TransactionId] = field(default_factory=set)
    rejected: Set[TransactionId] = field(default_factory=set)
    deferred: Set[TransactionId] = field(default_factory=set)


class MemoryUpdateStore(DirectLogStore):
    """The reference in-process update store."""

    def __init__(
        self,
        schema: Schema,
        message_latency: float = DEFAULT_MESSAGE_LATENCY,
        real_latency: bool = False,
    ) -> None:
        super().__init__(schema, message_latency, real_latency=real_latency)
        self._participants: Dict[int, _ParticipantRecord] = {}
        self._log: EntryTable = {}
        self._by_epoch: Dict[int, List[TransactionId]] = {}
        self._producers: ProducerIndex = {}
        self._epoch = 0
        #: The stable-epoch watermark: epochs only ever go from unfinished
        #: to finished, so each scan resumes where the last one stopped.
        self._stable = 0
        self._epoch_finished: Dict[int, bool] = {}
        self._epoch_publisher: Dict[int, int] = {}
        self._order = 0
        #: Open tid -> how many participants hold a final verdict on it
        #: (applied or rejected); dropped when the tid retires.
        self._verdicts: Dict[TransactionId, int] = {}

    # ------------------------------------------------------------------

    def register_participant(
        self, participant: int, policy: TrustPolicy
    ) -> None:
        """Add a participant and its trust policy."""
        if participant in self._participants:
            raise StoreError(f"participant {participant} already registered")
        self._participants[participant] = _ParticipantRecord(policy=policy)
        # Recount: a retired tid is open again until the newcomer decides.
        self._verdicts.clear()
        self._verdicts.update(Counter(
            tid for r in self._participants.values() for tid in r.applied.keys() | r.rejected
        ))
        self._charge_call()

    def _record_of(self, participant: int) -> _ParticipantRecord:
        try:
            return self._participants[participant]
        except KeyError:
            raise StoreError(f"participant {participant} is not registered") from None

    # ------------------------------------------------------------------

    def begin_publish(self, participant: int) -> int:
        """Allocate an epoch and mark it as publishing."""
        self._record_of(participant)
        self._epoch += 1
        epoch = self._epoch
        self._epoch_finished[epoch] = False
        self._by_epoch[epoch] = []
        self._epoch_publisher[epoch] = participant
        self._charge_call()
        return epoch

    def _validate_open_epoch(self, participant: int, epoch: int) -> None:
        if self._epoch_publisher.get(epoch) != participant:
            raise StoreError(f"epoch {epoch} is not being published by {participant}")
        if self._epoch_finished.get(epoch, True):
            raise StoreError(f"epoch {epoch} is already finished")

    def write_transactions(
        self, participant: int, epoch: int, transactions: Sequence[Transaction]
    ) -> None:
        """Write transactions under an open epoch."""
        record = self._record_of(participant)
        self._validate_open_epoch(participant, epoch)
        batch: Set[TransactionId] = set()
        for transaction in transactions:
            tid = transaction.tid
            if transaction.origin != participant:
                raise StoreError(f"participant {participant} cannot publish {tid}")
            if tid in self._log or tid in batch:  # earlier, or in this batch
                raise StoreError(f"transaction {tid} was already published")
            batch.add(tid)
        producer_of, version = self._producers.get, record.applied_version + 1
        for transaction in transactions:
            antecedents = tuple(compute_antecedents(producer_of, transaction))
            self._log[transaction.tid] = (transaction, antecedents, self._order)
            self._order += 1
            self._by_epoch[epoch].append(transaction.tid)
            register_producers(self._producers, transaction)
            record.applied[transaction.tid] = version
        self._verdicts.update(dict.fromkeys(batch, 1))  # the publisher's verdicts
        if transactions:
            record.applied_version = version
        self._charge_call()

    def finish_publish(self, participant: int, epoch: int) -> None:
        """Mark the epoch finished."""
        self._validate_open_epoch(participant, epoch)
        self._epoch_finished[epoch] = True
        self._charge_call()

    # ------------------------------------------------------------------

    def _nc_advance(self, participant: int) -> Tuple[int, int]:
        record = self._record_of(participant)
        last = record.last_recon_epoch
        self._stable = record.last_recon_epoch = stable_epoch(
            self._epoch_finished, self._epoch, self._stable
        )
        return last, self._stable

    def _nc_candidates(self, participant: int, last: int, stable: int):
        record = self._record_of(participant)
        return [
            self._nc_lookup(tid)
            for epoch in range(last + 1, stable + 1)
            for tid in self._by_epoch.get(epoch, ())
            if tid.participant != participant
            and tid not in record.applied
            and tid not in record.rejected
            and tid not in record.deferred
        ]

    # ------------------------------------------------------------------

    def complete_reconciliation(
        self, participant: int, result: ReconcileResult
    ) -> None:
        """Record decisions; see the base class."""
        record = self._record_of(participant)
        version = record.applied_version + 1
        final, verdicts = set(result.applied).union(result.rejected), self._verdicts
        for tid in final:
            if tid not in record.applied and tid not in record.rejected:
                verdicts[tid] = verdicts.get(tid, 0) + 1
        for tid in result.applied:
            # One verdict per transaction: applied supersedes earlier
            # rejections (the engine's "applied wins" rule).
            record.applied[tid] = version
            record.deferred.discard(tid)
            record.rejected.discard(tid)
        if result.applied:
            record.applied_version = version
            record.carried.update(set(result.applied).difference(result.accepted))
        for tid in result.rejected:
            record.rejected.add(tid)
            record.deferred.discard(tid)
        for tid in result.deferred:
            record.deferred.add(tid)
        self.retire_shared_entries(self._fully_decided(final))
        self._nc_retire(participant, result)
        self._charge_call()

    def _fully_decided(self, roots: Set[TransactionId]) -> List[TransactionId]:
        """The ``roots`` every participant has now finally decided, in
        O(1) each; a root with no count retired earlier and is decided
        still (a final verdict is never withdrawn)."""
        everyone, verdicts = len(self._participants), self._verdicts
        decided = [tid for tid in sorted(roots) if verdicts.get(tid, everyone) >= everyone]
        for tid in decided:
            verdicts.pop(tid, None)
        return decided

    # ------------------------------------------------------------------

    def current_epoch(self) -> int:
        """The highest epoch allocated so far."""
        return self._epoch

    def transaction_count(self) -> int:
        """Total number of transactions ever published."""
        return len(self._log)

    def last_reconciliation_epoch(self, participant: int) -> int:
        """The participant's most recent reconciliation epoch."""
        return self._record_of(participant).last_recon_epoch

    # ------------------------------------------------------------------
    # Extra introspection used by tests

    def decided_transactions(self, participant: int):
        """The participant's verdicts; see the base class."""
        record = self._record_of(participant)
        applied = sorted(record.applied, key=lambda tid: self._log[tid][2])
        return (
            [(record.applied[t], t not in record.carried, *self._log[t][:2]) for t in applied],
            sorted(record.rejected),
            sorted(record.deferred),
        )

    # ------------------------------------------------------------------
    # Network-centric accessors (see repro.store.network_centric)

    def _nc_deferred_tids(self, participant: int):
        record = self._record_of(participant)
        return sorted(record.deferred, key=lambda tid: self._log[tid][2])

    def _nc_applied_tids(self, participant: int):
        return self._record_of(participant).applied.keys()

    def _nc_applied_version(self, participant: int) -> int:
        return self._record_of(participant).applied_version

    def _nc_lookup(self, tid: TransactionId):
        try:
            return self._log[tid]
        except KeyError:
            raise UnknownTransactionError(str(tid)) from None

    def _nc_priority(self, participant: int, transaction: Transaction) -> int:
        record = self._record_of(participant)
        return record.policy.priority_of(self._schema, transaction)
