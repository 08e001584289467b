"""One CDSS participant: local instance + policy + reconciliation lifecycle.

A participant edits its local instance through :meth:`Participant.execute`
(each call is one transaction), occasionally :meth:`Participant.publish`\\ es
the accumulated transactions, and :meth:`Participant.reconcile`\\ s to import
other peers' updates.  Publishing and reconciling are usually performed
together (:meth:`Participant.publish_and_reconcile`), as the paper assumes.

The participant is the **transport layer** of the PR 3 session split: it
is the only layer that talks to the update store.  Every store call goes
through :meth:`Participant._store_call`, which holds the store's lock
(the store-phase discipline: every store touch happens in one bracketed
call, which is what the latency and perf accounting read), measures the
call, and pays any configured real latency *after* releasing the lock.  The decisions themselves are produced by the
transport-free :class:`~repro.core.session.ReconcileSession`.

Every reconciliation records a :class:`ReconcileTiming` splitting the cost
into *store* time (wall-clock spent inside update-store calls plus the
simulated network latency those calls charged) and *local* time (the
reconciliation algorithm itself) — the two bars of the paper's Figures 10
and 12.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.decisions import ReconcileResult
from repro.core.engine import Reconciler
from repro.core.extensions import RelevantTransaction
from repro.core.resolution import Resolution, resolve_conflicts
from repro.core.session import ReconcileSession
from repro.core.state import ParticipantState
from repro.errors import ConstraintViolation, FlattenError
from repro.instance.base import Instance
from repro.instance.memory import MemoryInstance
from repro.model.flatten import flatten
from repro.model.transactions import Transaction, TransactionId
from repro.model.updates import Update
from repro.policy.acceptance import TrustPolicy
from repro.store.base import PerfCounters, UpdateStore


@dataclass
class ReconcileTiming:
    """Cost breakdown of one reconciliation (or resolution re-run)."""

    recno: int
    store_seconds: float  # wall time inside store calls + simulated latency
    local_seconds: float  # reconciliation algorithm time
    store_messages: int  # messages the store exchanged on our behalf

    @property
    def total_seconds(self) -> float:
        """Store plus local time."""
        return self.store_seconds + self.local_seconds


class Participant:
    """One autonomous peer of the CDSS."""

    def __init__(
        self,
        participant_id: int,
        store: UpdateStore,
        policy: TrustPolicy,
        instance: Optional[Instance] = None,
        network_centric: bool = False,
        register: bool = True,
        hooks: Optional[object] = None,
    ) -> None:
        """``network_centric=True`` delegates extension computation and
        conflict detection to the store (Figure 3's network-centric mode);
        requires a store that implements ``begin_network_reconciliation``.
        ``register=False`` re-attaches to an existing registration (used by
        :meth:`rebuild`).  ``hooks`` is an optional event bus
        (:class:`repro.confed.hooks.HookBus`, duck-typed to keep this
        module free of upward imports); publication and reconciliation
        emit lifecycle events into it."""
        self.id = participant_id
        self.store = store
        self.policy = policy
        self.network_centric = network_centric
        self.hooks = hooks
        self.instance = instance or MemoryInstance(store.schema)
        self.state = ParticipantState(participant_id)
        self.reconciler = Reconciler(store.schema, self.instance, self.state, hooks=hooks)
        self.session = ReconcileSession(self.reconciler, hooks=hooks)
        self.timings: List[ReconcileTiming] = []
        self._sequence = 0
        self._unpublished: List[Transaction] = []
        self._own_delta: List[Update] = []
        if register:
            # Registration is a store call like any other: through the
            # transport discipline, under the store lock.
            self._store_call(store.register_participant, participant_id, policy)

    @classmethod
    def rebuild(
        cls,
        participant_id: int,
        store: UpdateStore,
        policy: TrustPolicy,
        instance: Optional[Instance] = None,
        network_centric: bool = False,
        hooks: Optional[object] = None,
    ) -> "Participant":
        """Reconstruct a participant entirely from the update store.

        Section 5.2: "each client contains only soft state; it is possible
        to reconstruct the entire state of the participant, up to his or
        her last reconciliation, from the update store."  The applied
        transactions are replayed in publish order into a fresh instance;
        rejected and deferred sets are restored; deferred transactions'
        bodies and antecedent graphs are refetched so their conflict
        groups can be rebuilt by a follow-up reconciliation pass.

        Replay mirrors the engine's application semantics (flattened
        footprints via ``apply_set``, never raw update sequences): an
        accepted antecedent chain may span several epochs, and its
        *intermediate* states can collide with rows applied from other
        origins even though its net effect fits.  Transactions whose raw
        updates do not fit yet are therefore buffered and flattened
        together with their successors until the combined footprint
        applies — exactly the net effect the live engine installed.
        """
        participant = cls(
            participant_id,
            store,
            policy,
            instance,
            network_centric=network_centric,
            register=False,
            hooks=hooks,
        )
        (applied, rejected, deferred), _, _ = participant._store_call(
            store.decided_transactions, participant_id
        )
        buffered: List[Update] = []
        for transaction in applied:
            buffered.extend(transaction.updates)
            participant.state.record_applied([transaction.tid])
            if transaction.origin == participant_id:
                participant._sequence = max(
                    participant._sequence, transaction.tid.sequence + 1
                )
            try:
                operations = flatten(store.schema, buffered)
                participant.instance.apply_set(operations)
            except (ConstraintViolation, FlattenError):
                continue  # a chain is still mid-flight; keep buffering
            buffered = []
        if buffered:
            # The applied set is store-verified consistent; a leftover
            # buffer that still does not fit is a real reconstruction
            # failure and must surface, not be dropped.
            participant.instance.apply_set(flatten(store.schema, buffered))
        participant.state.record_rejected(rejected)

        graph = participant.state.graph
        if rejected or deferred:
            # Future roots may name rejected transactions as antecedents;
            # the engine then needs their bodies and publish orders from
            # the local graph (the store ships only undecided members);
            # deferred roots need their closures to be reconsidered.
            entries, _, _ = participant._store_call(
                store.closure_entries,
                [*rejected, *deferred],
                participant.state.applied,
            )
            for entry in entries:
                graph.add(*entry)
        for tid in deferred:
            transaction = graph.transaction(tid)
            if transaction.origin == participant_id:  # pragma: no cover
                participant._sequence = max(
                    participant._sequence, transaction.tid.sequence + 1
                )
            participant.state.record_deferred(
                RelevantTransaction(
                    transaction=transaction,
                    priority=policy.priority_of(store.schema, transaction),
                    order=graph.order_of(tid),
                )
            )
        if deferred:
            # Rebuild soft state (dirty keys, conflict groups) from the
            # deferred set without re-deciding anything — re-evaluation
            # belongs to the next real reconciliation.
            participant.reconciler.rebuild_soft_state()
        participant.state.last_recno, _, _ = participant._store_call(
            store.last_reconciliation_epoch, participant_id
        )
        return participant

    # ------------------------------------------------------------------
    # Local editing

    def execute(self, updates: Sequence[Update]) -> Transaction:
        """Run one local transaction: apply to the instance and queue it
        for the next publication.  Raises
        :class:`~repro.errors.ConstraintViolation` (and applies nothing)
        if the updates do not fit the local instance.
        """
        updates = list(updates)
        self.instance.apply_all(updates)
        transaction = Transaction(
            self._next_tid(), tuple(updates)
        )
        self._unpublished.append(transaction)
        self._own_delta.extend(updates)
        return transaction

    def _next_tid(self) -> TransactionId:
        tid = TransactionId(self.id, self._sequence)
        self._sequence += 1
        return tid

    @property
    def unpublished(self) -> Tuple[Transaction, ...]:
        """Locally executed transactions not yet published."""
        return tuple(self._unpublished)

    # ------------------------------------------------------------------
    # Publication and reconciliation

    def _store_call(self, method, *args) -> Tuple[object, PerfCounters, float]:
        """Run one store call: a lock-held store phase, then a
        clock-paid latency phase; returns ``(result, perf delta, wall
        seconds inside the call)``.

        The two phases are deliberately split.  The **store phase**
        (:meth:`_store_phase`) holds the store lock and snapshots the
        perf delta.  The **latency phase** pays that delta through
        ``store.pay_latency`` *after* the lock is released — and,
        because the payment
        goes through the store's :class:`~repro.net.clock.LatencyClock`
        rather than an inline sleep, the asyncio epoch scheduler can
        turn the wait into an awaited ``asyncio.sleep`` without ever
        holding ``store.lock`` across an await.  ``pay_latency`` is
        part of the :class:`~repro.store.base.UpdateStore` contract (it
        used to be reached through ``getattr``, which let a third-party
        driver missing the method skip latency payment silently).
        """
        store = self.store
        result, delta, elapsed = self._store_phase(method, *args)
        store.pay_latency(delta.simulated_seconds)
        return result, delta, elapsed

    def _store_phase(self, method, *args) -> Tuple[object, PerfCounters, float]:
        """The lock-held half of :meth:`_store_call`.

        Serializes store access when a concurrent epoch scheduler
        drives several participants at once (stores are not internally
        thread-safe); the perf snapshot/delta must happen inside the
        lock so concurrent callers cannot misattribute each other's
        charges.  The wall clock starts *after* the lock is acquired —
        contention wait is scheduling, not store cost, and counting it
        would inflate every participant's store bars under a concurrent
        schedule.  No latency is paid here: that is the caller's
        latency phase, outside the lock.
        """
        store = self.store
        with store.lock:
            started = time.perf_counter()
            before = store.perf.snapshot()
            result = method(*args)
            delta = store.perf.minus(before)
        return result, delta, time.perf_counter() - started

    def publish(self) -> int:
        """Publish all unpublished transactions; returns the epoch."""
        transactions = self._unpublished
        self._unpublished = []
        epoch, _delta, _elapsed = self._store_call(
            self.store.publish, self.id, transactions
        )
        self.state.record_applied([t.tid for t in transactions])
        if self.hooks is not None:
            self.hooks.emit(
                "publish",
                participant=self.id,
                epoch=epoch,
                transactions=tuple(transactions),
            )
        return epoch

    def reconcile(self) -> ReconcileResult:
        """Import other peers' updates (one ``ReconcileUpdates`` run).

        Transport only: fetch the batch through the single store
        contract, hand it to the session (the transport-free decision
        layer), and report the upstream result back to the store.
        """
        batch, fetch_delta, fetch_elapsed = self._store_call(
            self.store.reconciliation_batch, self.id, self.network_centric
        )
        outcome = self.session.run(batch, own_updates=self._own_delta)
        _, complete_delta, complete_elapsed = self._store_call(
            self.store.complete_reconciliation, self.id, outcome.upstream
        )

        result = outcome.result
        timing = ReconcileTiming(
            recno=result.recno,
            store_seconds=fetch_elapsed
            + complete_elapsed
            + fetch_delta.simulated_seconds
            + complete_delta.simulated_seconds,
            local_seconds=outcome.local_seconds,
            store_messages=fetch_delta.messages + complete_delta.messages,
        )
        self.timings.append(timing)
        self._own_delta = []
        if self.hooks is not None:
            self.hooks.emit(
                "reconcile",
                participant=self.id,
                recno=result.recno,
                result=result,
                timing=timing,
            )
        return result

    def publish_and_reconcile(self) -> ReconcileResult:
        """The paper's combined step: publish, then reconcile."""
        self.publish()
        return self.reconcile()

    # ------------------------------------------------------------------
    # Conflict resolution

    def open_conflicts(self):
        """The participant's unresolved conflict groups."""
        return self.state.open_conflicts()

    def resolve(self, resolutions: Sequence[Resolution]) -> ReconcileResult:
        """Resolve conflicts, re-reconcile, and report decisions upstream."""
        result = resolve_conflicts(self.reconciler, list(resolutions))
        self._store_call(self.store.complete_reconciliation, self.id, result)
        return result

    # ------------------------------------------------------------------

    def total_store_seconds(self) -> float:
        """Sum of store time across all reconciliations."""
        return sum(t.store_seconds for t in self.timings)

    def total_local_seconds(self) -> float:
        """Sum of local reconciliation time across all reconciliations."""
        return sum(t.local_seconds for t in self.timings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Participant(p{self.id}, {self.state!r})"
