"""The transport-agnostic reconciliation session.

One :class:`ReconcileSession` wraps one participant's
:class:`~repro.core.engine.Reconciler` (the pure decision kernel) and
owns the *per-epoch* bookkeeping around it: emitting the
``epoch_start`` event, timing the kernel, and splitting the kernel's
full result from the *upstream* result the store needs to hear about.

The split of responsibilities:

* **decision kernel** (:class:`~repro.core.engine.Reconciler`) — pure
  ``ReconcileUpdates`` over a :class:`ReconciliationBatch`; no store, no
  network, no clock;
* **session** (this module) — consumes a batch, produces decisions and
  the upstream delta; still zero store/network knowledge (the batch is a
  value, wherever it came from);
* **transport** (:class:`~repro.cdss.participant.Participant`) — the
  only layer that talks to an :class:`~repro.store.base.UpdateStore`:
  it fetches the batch through the single store contract
  (:meth:`~repro.store.base.UpdateStore.reconciliation_batch`), feeds it
  to the session, and reports the upstream result back.

Because the session is transport-free it can be driven by anything that
can produce a batch — a store, a replayed log, a test fixture.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.decisions import ReconcileResult
from repro.core.engine import Reconciler
from repro.core.extensions import ReconciliationBatch
from repro.model.updates import Update


@dataclass
class SessionOutcome:
    """What one session run produced.

    * ``result`` — the kernel's full :class:`ReconcileResult`;
    * ``upstream`` — the subset the store must record: the full
      accept/reject/apply sets, but only *newly* deferred roots
      (re-deferral is the common case while a conflict awaits
      resolution, and re-notifying would cost a message pair per
      deferred transaction per reconciliation on a distributed store);
    * ``local_seconds`` — wall-clock spent inside the decision kernel
      (the "local" bar of the paper's Figures 10 and 12).
    """

    result: ReconcileResult
    upstream: ReconcileResult
    local_seconds: float


class ReconcileSession:
    """Runs reconciliation epochs for one participant, transport-free."""

    def __init__(
        self, reconciler: Reconciler, hooks: Optional[object] = None
    ) -> None:
        """``hooks`` is an optional event bus
        (:class:`repro.confed.hooks.HookBus`, duck-typed — the core
        layer never imports upward); when present every run emits
        ``epoch_start`` before the kernel executes."""
        self._reconciler = reconciler
        self._hooks = hooks

    def run(
        self,
        batch: ReconciliationBatch,
        own_updates: Sequence[Update] = (),
    ) -> SessionOutcome:
        """Process one batch: decisions, upstream delta, kernel timing."""
        state = self._reconciler.state
        if self._hooks is not None:
            self._hooks.emit(
                "epoch_start",
                participant=state.participant,
                recno=batch.recno,
                network_centric=batch.network_centric,
            )
        already_deferred = set(state.deferred)
        # Pure timing instrumentation around the kernel call — the
        # measured seconds are reported (Figures 10/12), never consulted
        # by any decision, so the wall-clock read is allowed here.
        started = time.perf_counter()  # repro: allow[RPR003]
        result = self._reconciler.reconcile(batch, own_updates=own_updates)
        local_seconds = time.perf_counter() - started  # repro: allow[RPR003]
        upstream = ReconcileResult(
            recno=result.recno,
            accepted=result.accepted,
            rejected=result.rejected,
            deferred=[
                tid for tid in result.deferred if tid not in already_deferred
            ],
            applied=result.applied,
        )
        return SessionOutcome(
            result=result, upstream=upstream, local_seconds=local_seconds
        )
