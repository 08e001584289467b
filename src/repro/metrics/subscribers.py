"""Metric collectors as hook-bus subscribers.

The evaluation metrics used to be gathered by reaching into participant
internals (``participant.timings``, ``participant.reconciler.cache``).
These collectors gather the same data by subscribing to the
confederation's event bus (:class:`repro.confed.hooks.HookBus`) — the
one observability surface — so adding a metric never means threading a
new counter through the engine.

Each collector's ``attach(bus)`` subscribes it and returns it, so wiring
reads as one expression::

    timing = TimingCollector().attach(confederation.hooks)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.cache import CacheStats
from repro.metrics.state_ratio import state_ratio


class TimingCollector:
    """Collects every :class:`~repro.cdss.participant.ReconcileTiming`.

    Subscribes to ``reconcile`` events; one record per reconciliation
    per participant, exactly what ``participant.timings`` accumulates —
    but gathered at the bus, so it works across any set of participants
    sharing one confederation.
    """

    def __init__(self) -> None:
        self.timings: Dict[int, List] = {}

    def attach(self, bus) -> "TimingCollector":
        """Subscribe to ``bus`` and return self."""
        bus.on_reconcile(self)
        return self

    def __call__(self, *, participant: int, timing, **_ignored) -> None:
        self.timings.setdefault(participant, []).append(timing)


class CacheStatsCollector:
    """Sums the engine's per-run cache counter deltas.

    Subscribes to ``cache_stats`` events; the sum over a run equals the
    participants' cumulative counters because the engine emits exactly
    one delta per reconciliation.
    """

    def __init__(self) -> None:
        self.total = CacheStats()

    def attach(self, bus) -> "CacheStatsCollector":
        """Subscribe to ``bus`` and return self."""
        bus.on_cache_stats(self)
        return self

    def __call__(self, *, stats: Optional[CacheStats], **_ignored) -> None:
        if stats is not None:
            self.total.add(stats)


@dataclass
class FaultSummary:
    """Counters of one run's fault activity (see :class:`FaultCollector`).

    ``injected`` counts fired faults by action (``drop`` / ``duplicate``
    / ``delay`` from the message injector, ``crash`` from host
    failures); the rest count resilience responses: store-request
    retries, degraded fallbacks, and component recoveries.
    """

    injected: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    degraded: int = 0
    recoveries: int = 0

    @property
    def total_injected(self) -> int:
        """Every fault that fired, across actions."""
        return sum(self.injected.values())


class FaultCollector:
    """Counts ``fault`` / ``retry`` / ``degraded`` / ``recovery`` events.

    An ordinary bus subscriber, like the timing and cache collectors:
    the store surface and the fault injector emit, the collector counts,
    and ``Confederation.report()`` snapshots the summary.  The raw event
    payloads are kept (in emission order) so chaos tests can assert on
    the exact fault trace, not just the totals.
    """

    def __init__(self) -> None:
        self.summary = FaultSummary()
        #: ``(event, payload)`` pairs in emission order.
        self.events: List[tuple] = []

    def attach(self, bus) -> "FaultCollector":
        """Subscribe to ``bus`` and return self."""
        bus.on_fault(self._on_fault)
        bus.on_retry(self._on_retry)
        bus.on_degraded(self._on_degraded)
        bus.on_recovery(self._on_recovery)
        return self

    def _on_fault(self, *, action: str, **payload) -> None:
        self.summary.injected[action] = (
            self.summary.injected.get(action, 0) + 1
        )
        self.events.append(("fault", dict(payload, action=action)))

    def _on_retry(self, **payload) -> None:
        self.summary.retries += 1
        self.events.append(("retry", payload))

    def _on_degraded(self, **payload) -> None:
        self.summary.degraded += 1
        self.events.append(("degraded", payload))

    def _on_recovery(self, **payload) -> None:
        self.summary.recoveries += 1
        self.events.append(("recovery", payload))

    def snapshot(self) -> FaultSummary:
        """An independent copy of the summary (reports must not mutate
        when the confederation keeps running)."""
        return FaultSummary(
            injected=dict(self.summary.injected),
            retries=self.summary.retries,
            degraded=self.summary.degraded,
            recoveries=self.summary.recoveries,
        )


class StateRatioProbe:
    """Samples the state ratio after every reconciliation.

    ``instances`` is a zero-argument callable returning the live
    ``{participant_id: Instance}`` mapping (a callable, not a snapshot,
    so the probe always sees the current replicas).  The sample series
    is the state-ratio trajectory of the run — Figure 9/11 material —
    where the old API only exposed the final value.
    """

    def __init__(
        self,
        instances: Callable[[], Mapping[int, object]],
        relation: Optional[str] = None,
    ) -> None:
        self._instances = instances
        self.relation = relation
        #: ``(recno, state_ratio)`` samples in emission order.
        self.samples: List[tuple] = []

    def attach(self, bus) -> "StateRatioProbe":
        """Subscribe to ``bus`` and return self."""
        bus.on_reconcile(self)
        return self

    def __call__(self, *, recno: int, **_ignored) -> None:
        self.samples.append(
            (recno, state_ratio(self._instances(), relation=self.relation))
        )

    @property
    def latest(self) -> Optional[float]:
        """The most recent sample, or None before any reconciliation."""
        return self.samples[-1][1] if self.samples else None
