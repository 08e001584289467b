"""The confederation event hook bus.

One :class:`HookBus` per confederation: participants and their
reconcilers emit lifecycle events into it, and any number of subscribers
observe them.  The built-in metric collectors
(:mod:`repro.metrics.subscribers`) are ordinary subscribers — the bus is
the one observability surface, replacing ad-hoc counter plumbing.

Events and payloads (all payload entries are keyword arguments):

=================  =====================================================
``publish``        ``participant``, ``epoch``, ``transactions`` — a peer
                   published a transaction batch.
``epoch_start``    ``participant``, ``recno``, ``network_centric`` — a
                   reconciliation run is about to process its batch
                   (``network_centric`` is True when the store
                   pre-assembled it).
``decision``       ``participant``, ``recno``, ``tid``, ``decision`` —
                   one root transaction's verdict
                   (:class:`repro.core.decisions.Decision`); emitted in
                   publish order.
``conflict``       ``participant``, ``recno``, ``group`` — one open
                   conflict group after the run, in stable group order.
``cache_stats``    ``participant``, ``recno``, ``stats`` — the run's
                   :class:`repro.core.cache.CacheStats` counter delta.
``reconcile``      ``participant``, ``recno``, ``result``, ``timing`` —
                   a reconciliation finished; carries the full
                   :class:`~repro.core.decisions.ReconcileResult` and
                   the :class:`~repro.cdss.participant.ReconcileTiming`.
``epoch_end``      ``participant``, ``round``, ``published``,
                   ``total_published`` — the schedule finished one
                   participant's publish-and-reconcile step;
                   ``published`` counts the transactions that step
                   published and ``total_published`` the running total
                   across the run (subscribers observe schedule
                   progress instead of polling the report).
``fault``          ``action`` plus fault-specific context — one injected
                   fault fired: a message-level injection carries
                   ``kind``/``sender``/``recipient``
                   (:class:`repro.net.faults.FaultInjector`), a host
                   crash carries ``host``
                   (:meth:`repro.store.dht.DhtUpdateStore.fail_host`).
``retry``          ``kind``, ``recipient``, ``attempt`` — a store
                   request went unanswered and is being re-sent
                   (attempt numbering starts at 1).
``degraded``       store-specific context (e.g. ``participant``,
                   ``roots``) — a resilient path gave up on its
                   preferred strategy and fell back to a slower but
                   correct one.
``recovery``       ``kind`` plus context — a previously failed
                   component rejoined (``kind="host"`` carries
                   ``host``; ``kind="participant"`` carries
                   ``participant``).
=================  =====================================================

Delivery is synchronous and in subscription order; handler exceptions
propagate to the emitting call (hooks are part of the run, not
best-effort logging).  Handlers must accept their payload as keyword
arguments — accepting ``**_`` for unused entries keeps them forward
compatible with payload growth.

Every event is emitted on the thread that drives the confederation
(see :mod:`repro.confed.scheduler`), so handler runs never interleave.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import ConfigError

#: Every event the bus can carry, in lifecycle order.
EVENTS: Tuple[str, ...] = (
    "publish", "epoch_start", "decision", "conflict", "cache_stats", "reconcile",
    "epoch_end", "fault", "retry", "degraded", "recovery",
)

Handler = Callable[..., None]


class HookBus:
    """A synchronous, ordered publish/subscribe bus for lifecycle events."""

    def __init__(self) -> None:
        self._handlers: Dict[str, List[Handler]] = {}

    # ------------------------------------------------------------------
    # Subscription

    def subscribe(self, event: str, handler: Handler) -> Handler:
        """Register ``handler`` for ``event``; returns the handler so the
        call can be used as a decorator.  Unknown event names raise
        :class:`~repro.errors.ConfigError` (silent typos would otherwise
        subscribe to nothing)."""
        if event not in EVENTS:
            raise ConfigError(
                f"unknown hook event {event!r}; known events: {', '.join(EVENTS)}"
            )
        self._handlers.setdefault(event, []).append(handler)
        return handler

    def unsubscribe(self, event: str, handler: Handler) -> None:
        """Remove a previously subscribed handler (no-op if absent)."""
        handlers = self._handlers.get(event)
        if handlers and handler in handlers:
            handlers.remove(handler)

    # Named shorthands — the documented hook points of the public API.

    def on_publish(self, handler: Handler) -> Handler:
        """Subscribe to ``publish`` events."""
        return self.subscribe("publish", handler)

    def on_epoch_start(self, handler: Handler) -> Handler:
        """Subscribe to ``epoch_start`` events."""
        return self.subscribe("epoch_start", handler)

    def on_decision(self, handler: Handler) -> Handler:
        """Subscribe to ``decision`` events."""
        return self.subscribe("decision", handler)

    def on_conflict(self, handler: Handler) -> Handler:
        """Subscribe to ``conflict`` events."""
        return self.subscribe("conflict", handler)

    def on_cache_stats(self, handler: Handler) -> Handler:
        """Subscribe to ``cache_stats`` events."""
        return self.subscribe("cache_stats", handler)

    def on_reconcile(self, handler: Handler) -> Handler:
        """Subscribe to ``reconcile`` events."""
        return self.subscribe("reconcile", handler)

    def on_epoch_end(self, handler: Handler) -> Handler:
        """Subscribe to ``epoch_end`` events."""
        return self.subscribe("epoch_end", handler)

    def on_fault(self, handler: Handler) -> Handler:
        """Subscribe to ``fault`` events."""
        return self.subscribe("fault", handler)

    def on_retry(self, handler: Handler) -> Handler:
        """Subscribe to ``retry`` events."""
        return self.subscribe("retry", handler)

    def on_degraded(self, handler: Handler) -> Handler:
        """Subscribe to ``degraded`` events."""
        return self.subscribe("degraded", handler)

    def on_recovery(self, handler: Handler) -> Handler:
        """Subscribe to ``recovery`` events."""
        return self.subscribe("recovery", handler)

    # ------------------------------------------------------------------
    # Emission

    def has(self, event: str) -> bool:
        """True when ``event`` has at least one subscriber.  Emitters use
        this to skip payload construction loops on a quiet bus."""
        return bool(self._handlers.get(event))

    def emit(self, event: str, **payload) -> None:
        """Deliver ``payload`` to every subscriber of ``event``, in
        subscription order."""
        handlers = self._handlers.get(event)
        if not handlers:
            return
        for handler in list(handlers):
            handler(**payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = {
            event: len(handlers)
            for event, handlers in self._handlers.items()
            if handlers
        }
        return f"HookBus({counts!r})"
