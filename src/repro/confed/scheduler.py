"""Pluggable epoch schedulers for :meth:`Confederation.run`, selected by
:attr:`~repro.confed.config.ConfederationConfig.schedule_mode`:

* :class:`SerialScheduler` (``"serial"``, the default) — the paper's
  strict round-robin: one participant at a time edits, publishes, and
  reconciles.  Byte-for-byte the historical behaviour.
* :class:`AsyncScheduler` (``"async"``) — each round is three phases: a
  per-participant **edit** (on its own RNG substream and replica), a
  **publish barrier** in ascending participant id, and a **reconcile**.
  Within a round every participant sees every other's publications of
  that round, so the mode is a distinct, equally valid schedule.  Every
  segment (registration in ``open()``, an edit at its participant's
  barrier turn just before its publish, a publish, a reconcile) runs one
  at a time, in that global order, once its own participant's injected
  latency is paid, so participant *i+1* allocates its epoch while
  participant *i*'s latency is outstanding.  The global decision stream
  is reproducible and independent of latency.

Both run on the caller's thread: a confederation is driven from one
thread, and nothing in the library starts another, or an event loop.
An async segment's failure raises :class:`~repro.errors.SchedulerError`
naming the participant, chained from its cause (serial raises it raw).
The wall-clock win is overlapped store latency (``real_latency``),
pinned by ``benchmarks/test_perf_scheduler.py``; see "Epoch schedulers
and the latency clock" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Tuple, Type

from repro.errors import ConfigError, SchedulerError
from repro.net.clock import AsyncLatencyClock

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.cdss.participant import Participant
    from repro.confed.confederation import Confederation
    from repro.confed.config import ConfederationConfig
    from repro.policy.acceptance import TrustPolicy

#: One segment of the async round: the phase it belongs to, the
#: per-participant work, and the participant it runs for.
Phase = Tuple[str, Callable[["Participant"], object], "Participant"]


class EpochScheduler(abc.ABC):
    """Executes a confederation's evaluation schedule."""

    #: The ``schedule_mode`` name this scheduler answers to.
    name: str

    @abc.abstractmethod
    def run(self, confederation: "Confederation") -> None:
        """Run every configured round (and the final reconcile pass)."""

    def register(
        self, confederation: "Confederation", peers: List[Tuple[int, "TrustPolicy"]]
    ) -> List["Participant"]:
        """Add ``peers`` (``(id, policy)`` pairs) in the order given, one
        blocking store round trip after another."""
        return [confederation.add_participant(pid, policy) for pid, policy in peers]

    # ------------------------------------------------------------------

    @staticmethod
    def edit_phase(
        confederation: "Confederation", participant: "Participant"
    ) -> int:
        """One participant's edit phase: generate and execute
        ``reconciliation_interval`` transactions; returns how many were
        actually produced (the generator may skip on a saturated
        domain)."""
        executed = 0
        for _ in range(confederation.config.reconciliation_interval):
            updates = confederation.generator.transaction_updates(
                participant.id, participant.instance
            )
            if updates:
                participant.execute(updates)
                executed += 1
        return executed


class SerialScheduler(EpochScheduler):
    """The paper's strict round-robin schedule (the default)."""

    name = "serial"

    def run(self, confederation: "Confederation") -> None:
        """Drive the strict round-robin schedule to completion."""
        config = confederation.config
        for round_index in range(config.rounds):
            # Resolve each participant by id at its step: a fault-plan
            # restart earlier in the round replaces the object, and the
            # schedule must drive the rebuilt one.
            for pid in [p.id for p in confederation.participants]:
                participant = confederation.participant(pid)
                published = self.edit_phase(confederation, participant)
                participant.publish_and_reconcile()
                confederation.finish_scheduled_epoch(
                    participant, round_index, published
                )
        if config.final_reconcile:
            for participant in confederation.participants:
                participant.reconcile()


class AsyncScheduler(EpochScheduler):
    """Participants in one deadline loop, each waiting only for itself.

    Injected latency is paid through an
    :class:`~repro.net.clock.AsyncLatencyClock`: a segment's payments
    accrue to its participant, and only that participant's next segment
    waits them out, so every participant may have latency outstanding
    at once.
    """

    name = "async"

    def round_plan(self, confederation: "Confederation") -> Iterator[Phase]:
        """The phased schedule, as data: every segment in the order it runs.

        The per-participant epoch-end step runs here, between phases.
        Work is written as attribute lookups on the live objects at call
        time (``p.publish()``, not a method bound when the plan is
        built): callers replace those methods on the instances — tests
        inject failures that way, the end-to-end benchmark its clocks.
        """
        config = confederation.config
        published: Dict[int, int] = {}

        def edit(participant: "Participant") -> None:
            """Edit, and note what the epoch-end step must report."""
            published[participant.id] = self.edit_phase(
                confederation, participant
            )

        for round_index in range(config.rounds):
            # Re-read the roster every round: a fault-plan restart
            # (fired at the end of the previous round's steps) replaces
            # a participant object, and the phases must drive the
            # rebuilt one, not a stale reference.
            roster = confederation.participants
            # Deterministic publish-order barrier: epochs allocated in
            # ascending participant id, every round, each participant
            # editing at its turn so a failed edit stops the barrier there.
            for participant in roster:
                yield "edit", edit, participant
                yield "publish", lambda p: p.publish(), participant
            for participant in roster:
                yield "reconcile", lambda p: p.reconcile(), participant
            for participant in roster:
                confederation.finish_scheduled_epoch(
                    participant, round_index, published[participant.id]
                )
        if config.final_reconcile:
            for participant in confederation.participants:
                yield "reconcile", lambda p: p.reconcile(), participant

    @contextmanager
    def _clock_on(self, store) -> Iterator[AsyncLatencyClock]:
        """Swap the store's latency clock for a fresh async one while the
        block runs: payments accrue to the running segment instead of
        blocking."""
        previous, store.clock = store.clock, AsyncLatencyClock()
        try:
            yield store.clock
        finally:
            store.clock = previous

    def register(
        self, confederation: "Confederation", peers: List[Tuple[int, "TrustPolicy"]]
    ) -> List["Participant"]:
        """Registration is this driver's first ordered store phase: one
        segment per peer, in the order given, each waiting only for its
        own round trip, and the pass settles before it returns.  A
        failure raises as the serial pass would."""
        with self._clock_on(confederation.store) as clock:
            for pid, policy in peers:
                clock.segment(pid, confederation.add_participant, pid, policy)
            clock.settle()
        return [confederation.participant(pid) for pid, _policy in peers]

    def run(self, confederation: "Confederation") -> None:
        """Run the round plan's segments in order, each once its
        participant is due; the first failure stops the schedule there.

        The plan's epoch-end work (fault-plan restarts rebuild replicas
        through the store) runs outside any segment, so the clock pays
        its latency at once.
        """
        with self._clock_on(confederation.store) as clock:
            for name, work, participant in self.round_plan(confederation):
                try:
                    clock.segment(participant.id, work, participant)
                except Exception as error:
                    raise SchedulerError(
                        f"{name} phase failed for participant {participant.id}: {error}"
                    ) from error
            clock.settle()


#: Mode name → scheduler class.  ``ConfederationConfig.SCHEDULE_MODES``
#: must name exactly these keys; ``tests/confed/test_scheduler.py`` pins
#: the two in sync.
SCHEDULERS: Dict[str, Type[EpochScheduler]] = {
    SerialScheduler.name: SerialScheduler,
    AsyncScheduler.name: AsyncScheduler,
}


def create_scheduler(config: "ConfederationConfig") -> EpochScheduler:
    """The scheduler a config's ``schedule_mode`` names."""
    scheduler_cls = SCHEDULERS.get(config.schedule_mode)
    if scheduler_cls is None:
        raise ConfigError(
            f"unknown schedule mode {config.schedule_mode!r}; "
            f"available: {', '.join(sorted(SCHEDULERS))}"
        )
    return scheduler_cls()
