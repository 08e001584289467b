"""Epoch-scheduled fault execution for confederations.

The message-level half of a :class:`~repro.net.faults.FaultPlan` (drops,
duplicates, latency spikes) runs inside the simulated network via
:class:`~repro.net.faults.FaultInjector`.  The *lifecycle* half — host
crashes, host recoveries, and participant crash-restarts pinned to
epochs — needs an owner that can reach the store and the participant
registry.  That owner is :class:`FaultController`: the confederation
ticks it after every schedule step
(:meth:`repro.confed.confederation.Confederation.finish_scheduled_epoch`)
and it fires every pending action whose epoch the store has reached.

Actions fire in ``(epoch, declaration order)`` order, serially, between
schedule steps — never inside a reconciliation, so every scheduler
observes crashes only at step boundaries.  Execution is by plain
delegation:

* ``crash`` → ``store.fail_host(host)`` (the host's state is wiped; the
  DHT's successor replicas keep serving — see
  :mod:`repro.store.dht`);
* ``recover`` → ``store.recover_host(host)`` (rejoin the ring and
  rebalance records back);
* ``restart`` → ``confederation.restore(participant)`` — the paper's
  soft-state claim exercised mid-run: the participant object is
  discarded and rebuilt entirely from the update store.

A restart emits a ``recovery`` hook event (``kind="participant"``); the
store surface emits the ``fault``/``recovery`` events for crashes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.net.faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.confed.confederation import Confederation


class FaultController:
    """Fires a plan's epoch-scheduled crashes, recoveries, and restarts."""

    def __init__(self, plan: FaultPlan) -> None:
        actions: List[Tuple[int, int, str, object]] = []
        seq = 0
        for crash in plan.crashes:
            actions.append((crash.at_epoch, seq, "crash", crash.host))
            seq += 1
            if crash.recover_at_epoch is not None:
                actions.append(
                    (crash.recover_at_epoch, seq, "recover", crash.host)
                )
                seq += 1
        for restart in plan.restarts:
            actions.append(
                (restart.at_epoch, seq, "restart", restart.participant)
            )
            seq += 1
        actions.sort()
        self._pending = actions

    @property
    def pending(self) -> Tuple[Tuple[int, str, object], ...]:
        """Actions not yet fired, as ``(epoch, action, target)`` triples
        in firing order."""
        return tuple(
            (epoch, action, target)
            for epoch, _seq, action, target in self._pending
        )

    def tick(self, confederation: "Confederation") -> None:
        """Fire every pending action whose epoch the store has reached.

        Called between schedule steps; idempotent when nothing is due.
        """
        store = confederation.store
        while self._pending and self._pending[0][0] <= store.current_epoch():
            _epoch, _seq, action, target = self._pending.pop(0)
            if action == "crash":
                store.fail_host(target)
            elif action == "recover":
                store.recover_host(target)
            else:
                confederation.restore(target)
                confederation.hooks.emit(
                    "recovery", kind="participant", participant=target
                )
