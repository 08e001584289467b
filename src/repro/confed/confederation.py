"""The :class:`Confederation` facade: one object that owns a CDSS.

Built from a declarative :class:`~repro.confed.config.ConfederationConfig`,
a confederation owns the participant lifecycle:

* ``open()`` builds the store through the driver registry, wires the
  event hook bus and its metric collectors, and registers the
  configured peers with their trust policies through the epoch
  schedule (:func:`repro.confed.scheduler.register`); ``close()``
  releases the store.  Both are also available as a context manager;
* participants publish/reconcile/resolve exactly as before — the facade
  adds by-name store selection, config validation, and observability,
  not new reconciliation semantics;
* ``snapshot()``/``restore()`` wrap the soft-state reconstruction of
  Section 5.2 (:meth:`repro.cdss.participant.Participant.rebuild`):
  everything a participant is can be re-derived from the update store;
* ``run()`` executes the evaluation-section schedule — one round plan,
  run by one loop (:mod:`repro.confed.scheduler`), in the grouping
  ``schedule_mode`` names — and ``report()`` collects the paper's
  metrics from hook-bus subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import get_close_matches
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.cdss.participant import Participant
from repro.confed import scheduler
from repro.confed.config import ConfederationConfig
from repro.confed.faults import FaultController
from repro.confed.hooks import HookBus
from repro.confed.report import ConfederationReport
from repro.errors import ConfigError
from repro.metrics.state_ratio import state_ratio
from repro.metrics.subscribers import (
    CacheStatsCollector,
    FaultCollector,
    TimingCollector,
)
from repro.metrics.timing import aggregate_timings
from repro.net.faults import FaultInjector, FaultPlan
from repro.model.schema import Schema
from repro.model.transactions import TransactionId
from repro.policy.acceptance import TrustPolicy
from repro.store.base import UpdateStore
from repro.store.registry import create_store
from repro.workload.generator import WorkloadConfig, WorkloadGenerator, curated_schema


def _refuse_unknown(store: UpdateStore, name: str, known: Collection[str], refusal: str) -> None:
    """Refuse a fault plan naming what ``store`` lacks, with close matches."""
    if name not in known:
        close = ", ".join(get_close_matches(name, sorted(known))) or "none"
        raise ConfigError(f"store backend {type(store).__name__} {refusal}; close matches: {close}")


@dataclass(frozen=True)
class ParticipantSnapshot:
    """What the update store knows about one participant's decisions.

    This is exactly the state the paper's soft-state claim says suffices
    to rebuild a participant: applied transactions (in publish order),
    rejected and deferred ids, and the last reconciliation epoch.
    """

    participant: int
    applied: Tuple[TransactionId, ...]
    rejected: Tuple[TransactionId, ...]
    deferred: Tuple[TransactionId, ...]
    last_recno: int


class Confederation:
    """A confederation of participants over one update store.

    Construct from a config (optionally with a pre-built ``store`` or a
    non-default ``schema``), then ``open()`` — or use it as a context
    manager::

        config = ConfederationConfig(store="central", peers=(1, 2, 3))
        with Confederation.from_config(config) as confed:
            confed.participant(1).execute([...])
            confed.participant(1).publish_and_reconcile()
    """

    def __init__(
        self,
        config: Optional[ConfederationConfig] = None,
        store: Optional[UpdateStore] = None,
        schema: Optional[Schema] = None,
        hooks: Optional[HookBus] = None,
    ) -> None:
        """``store`` adopts an existing store (the config's ``store``
        name and ``store_options`` are then ignored, and ``close()``
        leaves it to its owner); ``schema`` overrides the default
        evaluation schema when the facade builds the store itself."""
        self.config = (config or ConfederationConfig()).validate()
        self.hooks = hooks or HookBus()
        self._store: Optional[UpdateStore] = store
        self._owns_store = store is None
        self._schema = schema if store is None else store.schema
        self._participants: Dict[int, Participant] = {}
        self._opened = False
        self._closed = False
        self._transactions_published = 0
        self._generator: Optional[WorkloadGenerator] = None
        # Metric collectors: ordinary bus subscribers (see
        # repro.metrics.subscribers) — report() reads these.
        self._timing = TimingCollector().attach(self.hooks)
        self._cache_stats = CacheStatsCollector().attach(self.hooks)
        self._fault_collector = FaultCollector().attach(self.hooks)
        self._fault_controller: Optional[FaultController] = None

    @classmethod
    def from_config(
        cls,
        config: ConfederationConfig,
        schema: Optional[Schema] = None,
        hooks: Optional[HookBus] = None,
    ) -> "Confederation":
        """Build and ``open()`` a confederation from a config."""
        return cls(config, schema=schema, hooks=hooks).open()

    # ------------------------------------------------------------------
    # Lifecycle

    def open(self) -> "Confederation":
        """Build the store and register the configured peers, in order.

        Registration is the schedule's first ordered store phase
        (:func:`repro.confed.scheduler.register`), one clock segment per
        peer: under ``schedule_mode="async"`` each peer waits only for
        its own round trip, so opening costs about one round trip, not
        one per peer; the serial mode pays one after another.  Opening
        twice, or reopening after ``close()``, raises
        :class:`~repro.errors.ConfigError`, and so does
        ``network_centric="store"`` on a store without store-computed
        batches (every store but ``dht``).
        """
        if self._closed:
            raise ConfigError("this confederation has been closed")
        if self._opened:
            raise ConfigError("this confederation is already open")
        if self._store is None:
            schema = self._schema if self._schema is not None else curated_schema()
            self._store = create_store(
                self.config.store, schema, **self.config.store_options
            )
        # Duck-typed, as the fault checks are: a store qualifies by
        # serving store-computed batches, not by its type.
        if self.config.network_centric_store and not hasattr(
            self._store, "begin_network_reconciliation"
        ):
            raise ConfigError(
                f"store backend {type(self._store).__name__} does not compute "
                f"batches; network_centric='store' needs a store with "
                f"begin_network_reconciliation (e.g. 'dht')"
            )
        # The store surfaces fault / retry / degraded / recovery events
        # on the confederation's bus.
        self._store.hooks = self.hooks
        if self.config.faults is not None and not self.config.faults.is_empty():
            self._install_faults(self.config.faults)
        self._opened = True
        scheduler.register(
            self, [(pid, self._policy_for(pid)) for pid in self.config.peers]
        )
        return self

    def _install_faults(self, plan: FaultPlan) -> None:
        """Wire a fault plan into the store, or refuse it loudly.

        A plan naming faults the store cannot suffer is a configuration
        error at ``open()``, not a silent no-op at fire time: message
        faults need the store's simulated network and — where the store
        says which kinds it carries (``message_kinds``) — a kind it can
        carry, host crashes need the ``fail_host``/``recover_host``
        surface and — where the store names its hosts (``host_names``) —
        a host it has.  The checks are duck-typed (capability, not concrete
        type) so third-party drivers qualify by exposing the same
        surface.
        """
        store = self._store
        if plan.messages:
            network = getattr(store, "network", None)
            if network is None:
                raise ConfigError(
                    f"store backend {type(store).__name__} has no "
                    f"simulated network; message faults need a networked "
                    f"store (e.g. 'dht')"
                )
            kinds = getattr(store, "message_kinds", None)
            for fault in plan.messages if kinds is not None else ():
                _refuse_unknown(store, fault.kind, kinds, f"carries no {fault.kind!r} "
                                "messages, so that fault would never fire")
            network.injector = FaultInjector(
                plan,
                latency=store.message_latency,
                emit=lambda **payload: self.hooks.emit("fault", **payload),
            )
        if plan.crashes and not (
            hasattr(store, "fail_host") and hasattr(store, "recover_host")
        ):
            raise ConfigError(
                f"store backend {type(store).__name__} cannot crash or "
                f"recover hosts; host-crash faults need the "
                f"fail_host/recover_host surface (e.g. 'dht')"
            )
        hosts = getattr(store, "host_names", None)
        for crash in plan.crashes if hosts is not None else ():
            _refuse_unknown(store, crash.host, hosts, f"has no host {crash.host!r}, so "
                            "that crash would fail mid-run")
        self._fault_controller = FaultController(plan)

    def close(self) -> None:
        """Release the store (if this confederation created it).

        Idempotent; after closing, the confederation cannot be reused —
        rebuild one from the same config instead (the store holds
        everything needed, per Section 5.2).
        """
        if self._closed:
            return
        self._closed = True
        store = self._store
        if store is not None and self._owns_store:
            close = getattr(store, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "Confederation":
        if not self._opened:
            self.open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigError("this confederation has been closed")
        if not self._opened:
            raise ConfigError(
                "this confederation is not open yet; call open() or use "
                "Confederation.from_config(...)"
            )

    # ------------------------------------------------------------------
    # Participants

    @staticmethod
    def _mutual_policy(pid: int, ids: Sequence[int], priority: int) -> TrustPolicy:
        """Everyone-trusts-everyone at one priority, for peer ``pid``."""
        policy = TrustPolicy()
        for other in ids:
            if other != pid:
                policy.trust_participant(other, priority)
        return policy

    def _policy_for(self, pid: int) -> TrustPolicy:
        """The configured trust policy of one peer."""
        if self.config.trust is None:
            return self._mutual_policy(pid, self.config.peers, 1)
        policy = TrustPolicy()
        for other, priority in self.config.trust.get(pid, {}).items():
            policy.trust_participant(other, priority)
        return policy

    def add_participant(self, participant_id: int, policy: TrustPolicy) -> Participant:
        """Create and register a participant.

        A duplicate id is a caller error —
        :class:`~repro.errors.ConfigError`, not a store fault.
        """
        self._ensure_open()
        if participant_id in self._participants:
            raise ConfigError(
                f"participant {participant_id} already exists in this confederation"
            )
        participant = Participant(
            participant_id,
            self.store,
            policy,
            network_centric=self.config.network_centric_store,
            hooks=self.hooks,
        )
        self._participants[participant_id] = participant
        return participant

    def add_mutually_trusting_participants(
        self, ids: Sequence[int], priority: int = 1
    ) -> List[Participant]:
        """The evaluation-section setup: everyone trusts everyone equally.

        Equal priorities mean conflicts "must be manually rather than
        automatically resolved" — the configuration all the paper's
        experiments use.
        """
        return scheduler.register(
            self, [(pid, self._mutual_policy(pid, ids, priority)) for pid in ids]
        )

    def participant(self, participant_id: int) -> Participant:
        """Look up a participant by id."""
        self._ensure_open()
        try:
            return self._participants[participant_id]
        except KeyError:
            raise ConfigError(
                f"no participant {participant_id} in this confederation"
            ) from None

    @property
    def participants(self) -> List[Participant]:
        """All participants, ordered by id."""
        return [self._participants[pid] for pid in sorted(self._participants)]

    def __len__(self) -> int:
        return len(self._participants)

    # ------------------------------------------------------------------
    # Store access

    @property
    def store(self) -> UpdateStore:
        """The shared update store."""
        if self._store is None:
            raise ConfigError(
                "the store is built by open(); call open() first"
            )
        return self._store

    @property
    def schema(self) -> Schema:
        """The shared schema."""
        return self.store.schema

    # ------------------------------------------------------------------
    # Soft-state snapshot / restore (Section 5.2)

    def snapshot(self) -> Dict[int, ParticipantSnapshot]:
        """Per-participant decision state as recorded by the store, read
        through ``decided_transactions`` (abstract in the store contract,
        so every store has it)."""
        self._ensure_open()
        snapshots = {}
        for participant in self.participants:
            applied, rejected, deferred = self.store.decided_transactions(
                participant.id
            )
            snapshots[participant.id] = ParticipantSnapshot(
                participant=participant.id,
                applied=tuple(entry[2].tid for entry in applied),
                rejected=tuple(rejected),
                deferred=tuple(deferred),
                last_recno=self.store.last_reconciliation_epoch(participant.id),
            )
        return snapshots

    def restore(self, participant_id: Optional[int] = None):
        """Rebuild participants entirely from the update store.

        Wraps :meth:`Participant.rebuild`: the applied transactions are
        replayed step by step, as the store stamped them, into a fresh
        instance and the rejected/deferred soft state is reconstructed.  With an id,
        restores (and returns) that one participant; with none, restores
        every participant and returns them as a dict.  The restored
        objects replace the live ones and keep their policies and the
        confederation's hook bus.
        """
        self._ensure_open()
        if participant_id is not None:
            return self._restore_one(participant_id)
        return {pid: self._restore_one(pid) for pid in sorted(self._participants)}

    def _restore_one(self, participant_id: int) -> Participant:
        current = self.participant(participant_id)
        rebuilt = Participant.rebuild(
            participant_id,
            self.store,
            current.policy,
            network_centric=self.config.network_centric_store,
            hooks=self.hooks,
        )
        self._participants[participant_id] = rebuilt
        return rebuilt

    # ------------------------------------------------------------------
    # Metrics

    def state_ratio(self, relation: Optional[str] = None) -> float:
        """The evaluation's state ratio across all participants."""
        return state_ratio(
            {p.id: p.instance for p in self.participants}, relation=relation
        )

    def report(self, relation: Optional[str] = "F") -> ConfederationReport:
        """Metrics of the run so far, gathered from the hook bus."""
        self._ensure_open()
        timings = self._timing.timings
        network = getattr(self.store, "network", None)
        return ConfederationReport(
            config=self.config,
            state_ratio=self.state_ratio(relation=relation),
            timings={
                p.id: aggregate_timings(timings.get(p.id, []))
                for p in self.participants
            },
            transactions_published=self._transactions_published,
            store_messages=self.store.perf.messages,
            scheduler=self.config.schedule_mode,
            # A snapshot, not the live collector: a report's counters
            # must not mutate when the confederation keeps running.
            cache_stats=self._cache_stats.total.snapshot(),
            store_cache_stats=self.store.derivation_stats(),
            faults=self._fault_collector.snapshot(),
            kind_counts=dict(
                getattr(network, "kind_counts", None) or {}
            ),
            kind_bytes=dict(getattr(network, "kind_bytes", None) or {}),
        )

    # ------------------------------------------------------------------
    # The evaluation schedule (Section 6)

    @property
    def generator(self) -> WorkloadGenerator:
        """The workload generator driving :meth:`run` (lazily built)."""
        if self._generator is None:
            self._generator = WorkloadGenerator(
                self.config.workload or WorkloadConfig()
            )
        return self._generator

    def run(self, relation: Optional[str] = "F") -> ConfederationReport:
        """Execute the configured schedule and return the report: every
        ``reconciliation_interval`` transactions each participant
        publishes and reconciles, for ``rounds`` cycles, plus one
        reconcile-only pass if ``final_reconcile`` is set.  One round
        plan, run by one loop (:func:`repro.confed.scheduler.run`);
        ``config.schedule_mode`` picks its grouping, its latency clock
        and whether a failure is wrapped in
        :class:`~repro.errors.SchedulerError`."""
        self._ensure_open()
        scheduler.run(self)
        return self.report(relation=relation)

    def finish_scheduled_epoch(
        self, participant: Participant, round_index: int, published: int
    ) -> None:
        """Record one completed schedule step and announce it.

        Called by the round plan after ``participant``'s group has
        published and reconciled in round ``round_index`` (inline,
        outside any clock segment); ``published`` is the number of
        transactions ``participant`` published in it.  Emits the
        ``epoch_end`` event so subscribers can observe schedule progress,
        then fires any fault-plan actions whose epoch has been reached —
        crashes, recoveries, and restarts land at step boundaries, never
        inside a reconciliation (see :mod:`repro.confed.faults`).
        """
        self._transactions_published += published
        self.hooks.emit(
            "epoch_end",
            participant=participant.id,
            round=round_index,
            published=published,
            total_published=self._transactions_published,
        )
        if self._fault_controller is not None:
            self._fault_controller.tick(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("open" if self._opened else "new")
        return (
            f"Confederation({self.config.store!r}, peers={len(self._participants)}, "
            f"{state})"
        )
