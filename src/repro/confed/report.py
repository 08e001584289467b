"""The metrics report of one confederation run.

Carries the two metrics of the paper's evaluation section — the *state
ratio* and per-participant reconciliation timings split into store and
local components — plus the engine cache counters.  The timing and
cache data are gathered by hook-bus subscribers
(:mod:`repro.metrics.subscribers`), not by reaching into participant
internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.confed.config import ConfederationConfig
from repro.core.cache import CacheStats
from repro.metrics.subscribers import FaultSummary
from repro.metrics.timing import TimingAggregate


@dataclass
class ConfederationReport:
    """Everything a benchmark needs from one confederation run."""

    #: The configuration that drove the run.
    config: ConfederationConfig
    state_ratio: float
    timings: Dict[int, TimingAggregate]
    transactions_published: int
    store_messages: int
    #: Which epoch scheduler identity produced the run (a
    #: ``schedule_mode`` name: ``"serial"`` or ``"async"``).  Decision streams are only comparable between
    #: runs of the same schedule, so a report names its own.
    scheduler: str = "serial"
    #: Engine cache counters summed over all participants.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: The store's own derivation counters (``derivation_stats()``):
    #: store-side extension caches on the direct-log stores, the
    #: controllers' derivation tables on the DHT; empty otherwise.
    store_cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Fault activity of the run: injected faults by action, store
    #: retries, degraded fallbacks, recoveries.  All zero on a
    #: fault-free run (the default).
    faults: FaultSummary = field(default_factory=FaultSummary)
    #: Wire-protocol mix, from the store's simulated network when it
    #: has one (empty for in-process stores): fragments delivered per
    #: message kind, and that kind's share of the delivered bytes.
    #: Together they show *where* a mode's traffic goes — e.g. the
    #: Figure-3 byte trade of the network-centric DHT path.
    kind_counts: Dict[str, int] = field(default_factory=dict)
    kind_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_total_seconds_per_participant(self) -> float:
        """Average, over participants, of their total reconciliation time."""
        if not self.timings:
            return 0.0
        totals = [agg.total_seconds for agg in self.timings.values()]
        return sum(totals) / len(totals)

    @property
    def mean_store_seconds_per_participant(self) -> float:
        """Average total store time per participant."""
        if not self.timings:
            return 0.0
        totals = [agg.total_store_seconds for agg in self.timings.values()]
        return sum(totals) / len(totals)

    @property
    def mean_local_seconds_per_participant(self) -> float:
        """Average total local time per participant."""
        if not self.timings:
            return 0.0
        totals = [agg.total_local_seconds for agg in self.timings.values()]
        return sum(totals) / len(totals)

    @property
    def mean_seconds_per_reconciliation(self) -> float:
        """Average time of a single reconciliation across all peers."""
        count = sum(agg.reconciliations for agg in self.timings.values())
        if count == 0:
            return 0.0
        total = sum(agg.total_seconds for agg in self.timings.values())
        return total / count

    @property
    def mean_store_seconds_per_reconciliation(self) -> float:
        """Average store time of a single reconciliation."""
        count = sum(agg.reconciliations for agg in self.timings.values())
        if count == 0:
            return 0.0
        total = sum(agg.total_store_seconds for agg in self.timings.values())
        return total / count

    @property
    def mean_local_seconds_per_reconciliation(self) -> float:
        """Average local time of a single reconciliation."""
        count = sum(agg.reconciliations for agg in self.timings.values())
        if count == 0:
            return 0.0
        total = sum(agg.total_local_seconds for agg in self.timings.values())
        return total / count
