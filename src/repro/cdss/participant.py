"""One CDSS participant: local instance + policy + reconciliation lifecycle.

A participant edits its local instance through :meth:`Participant.execute`
(each call is one transaction), occasionally :meth:`Participant.publish`\\ es
the accumulated transactions, and :meth:`Participant.reconcile`\\ s to import
other peers' updates.  Publishing and reconciling are usually performed
together (:meth:`Participant.publish_and_reconcile`), as the paper assumes.

The participant is the **transport layer** of the PR 3 session split: it
is the only layer that talks to the update store.  Every store call goes
through :meth:`Participant._store_call`, the *store phase*: it measures
the call (the store-phase discipline of :mod:`repro.store.base`), then
pays what the call charged through the store's clock.  The decisions
themselves are produced by the transport-free
:class:`~repro.core.session.ReconcileSession`.

Every reconciliation records a :class:`ReconcileTiming` splitting the cost
into *store* time (wall-clock spent inside update-store calls plus the
simulated network latency those calls charged) and *local* time (the
reconciliation algorithm itself) — the two bars of the paper's Figures 10
and 12.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.decisions import ReconcileResult
from repro.core.engine import Reconciler
from repro.core.extensions import RelevantTransaction, antecedent_closure
from repro.core.resolution import Resolution, resolve_conflicts
from repro.core.session import ReconcileSession
from repro.core.state import ParticipantState
from repro.errors import StoreError
from repro.instance.base import Instance
from repro.model.flatten import flatten_transactions
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


def _closures(step) -> Iterator[List[Transaction]]:
    """A reconcile or resolve step's applied entries, grouped as
    ``Reconciler._apply_accepted`` applied them: each head (a root the step
    accepted) with its ancestors in the step no earlier head took."""
    at = {entry[2].tid: n for n, entry in enumerate(step)}
    inside = {t.tid: [ante for ante in antes if ante in at] for _, _, t, antes in step}
    replayed: Set[TransactionId] = set()
    for tid in [entry[2].tid for entry in step if entry[1]]:
        closure = sorted(antecedent_closure(inside.__getitem__, [tid], replayed), key=at.get)
        replayed.update(closure)
        yield [step[at[member]][2] for member in closure]


class Participant:
    """One autonomous peer of the CDSS."""

    def __init__(
        self,
        participant_id: int,
        store: UpdateStore,
        policy: TrustPolicy,
        *,
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
        self.instance = Instance(store.schema)
        self.state = ParticipantState(participant_id)
        self.reconciler = Reconciler(store.schema, self.instance, self.state, hooks=hooks)
        self.session = ReconcileSession(self.reconciler, hooks=hooks)
        self.timings: List[ReconcileTiming] = []
        self._sequence = 0
        self._unpublished: List[Transaction] = []
        self._own_delta: List[Update] = []
        if register:
            # Registration is a store call like any other: one store phase.
            self._store_call(store.register_participant, participant_id, policy)

    @classmethod
    def rebuild(
        cls,
        participant_id: int,
        store: UpdateStore,
        policy: TrustPolicy,
        *,
        network_centric: bool = False,
        hooks: Optional[object] = None,
    ) -> "Participant":
        """Reconstruct a participant entirely from the update store.

        Section 5.2: "each client contains only soft state; it is possible
        to reconstruct the entire state of the participant, up to his or
        her last reconciliation, from the update store."  The stamped steps
        (:meth:`UpdateStore.decided_transactions`) replay in ``(version,
        own)`` order into a fresh instance: an own publication a transaction
        at a time, as :meth:`execute` applied it; a reconcile or resolve
        step one ``apply_set`` per head's closure (:func:`_closures`).
        Rejected and deferred sets follow, and the deferred roots' groups.
        """
        participant = cls(
            participant_id, store, policy,
            network_centric=network_centric, register=False, hooks=hooks,
        )
        state, schema = participant.state, store.schema
        (applied, rejected, deferred), _, _ = participant._store_call(
            store.decided_transactions, participant_id
        )
        if any(entry[0] is None for entry in applied):
            raise StoreError(
                f"participant {participant_id} has applied verdicts stored without an"
                " applied-set version (by an older store): its steps cannot be replayed"
            )

        def _step(entry) -> Tuple[int, bool]:
            return entry[0], entry[2].origin == participant_id

        for (_, own), entries in groupby(sorted(applied, key=_step), key=_step):
            step = list(entries)
            if own:
                for _, _, transaction, _ in step:
                    participant.instance.apply_all(transaction.updates)
                participant._sequence = step[-1][2].tid.sequence + 1
            else:
                for closure in _closures(step):
                    participant.instance.apply_set(flatten_transactions(schema, closure))
            state.record_applied([entry[2].tid for entry in step])
        state.record_rejected(rejected)
        # Future roots may name rejected transactions as antecedents; the
        # engine then needs their bodies and publish orders from the local
        # graph (the store ships only undecided members); deferred roots
        # need their closures to be reconsidered.
        closures, _, _ = participant._store_call(
            store.closure_entries, [*rejected, *deferred], state.applied
        )
        for entry in closures:
            state.graph.add(entry)
        for tid in deferred:
            transaction = state.graph.transaction(tid)
            priority = policy.priority_of(schema, transaction)
            state.record_deferred(
                RelevantTransaction(transaction, priority, state.graph.order_of(tid))
            )
        # Dirty keys and conflict groups, without re-deciding anything:
        # that belongs to the next real reconciliation.
        participant.reconciler.rebuild_soft_state()
        state.last_recno, _, _ = participant._store_call(
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
        """Run one store call as one store phase; returns ``(result, perf
        delta, wall seconds inside the call)``.

        The phase snapshots the store's perf counters, makes the call,
        takes the delta (this call's charge alone: one thread drives the
        confederation) and then pays the simulated latency the call
        charged through ``store.pay_latency``, also when the call
        raises (a refused call made its round trip).  The payment goes through
        the store's :class:`~repro.net.clock.LatencyClock`, so the
        async epoch schedule turns the wait into a deadline only this
        participant's next segment waits for.  ``pay_latency`` is part
        of the :class:`~repro.store.base.UpdateStore` contract.
        """
        store = self.store
        started = time.perf_counter()
        before = store.perf.snapshot()
        try:
            result = method(*args)
        finally:
            delta = store.perf.minus(before)
            elapsed = time.perf_counter() - started
            store.pay_latency(delta.simulated_seconds)
        return result, delta, elapsed

    def publish(self) -> int:
        """Publish all unpublished transactions; returns the epoch.  A
        publish that raises keeps queued what no epoch lists
        (:meth:`UpdateStore.unpublished`), for the next one to send."""
        batch, self._unpublished = self._unpublished, []
        try:
            epoch, _delta, _elapsed = self._store_call(self.store.publish, self.id, batch)
        except BaseException:
            self._unpublished, _, _ = self._store_call(self.store.unpublished, self.id, batch)
            raise
        finally:
            self.state.record_applied([t.tid for t in batch if t not in self._unpublished])
        if self.hooks is not None:
            self.hooks.emit(
                "publish",
                participant=self.id,
                epoch=epoch,
                transactions=tuple(batch),
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
