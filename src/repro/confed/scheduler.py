"""Pluggable epoch schedulers for :meth:`Confederation.run`, selected by
:attr:`~repro.confed.config.ConfederationConfig.schedule_mode`:

* :class:`SerialScheduler` (``"serial"``, the default) — the paper's
  strict round-robin: one participant at a time edits, publishes, and
  reconciles.  Byte-for-byte the historical behaviour.
* :class:`AsyncScheduler` (``"async"``) — each round is three phases: a
  per-participant **edit** (on its own RNG substream and replica), a
  **publish barrier** in ascending participant id, and a **reconcile**.
  Within a round every participant sees every other's publications of
  that round, so the mode is a distinct, equally valid schedule.  The
  store segments (registration in ``open()``, publish, reconcile, the
  plan's epoch-end step) run one at a time in barrier order on one
  event loop, each once its own participant's injected latency is paid,
  so participant *i+1* allocates its epoch while participant *i*'s
  latency is outstanding.  The global decision stream is reproducible
  and independent of latency.

Both run on the caller's thread: a confederation is driven from one
thread, and nothing in the library starts another.  An async phase's
failure raises :class:`~repro.errors.SchedulerError` naming the
participant, chained from its cause (serial raises it raw).  The
wall-clock win is overlapped store latency (``real_latency``), pinned
by ``benchmarks/test_perf_scheduler.py``; see "Epoch schedulers and the
latency clock" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import abc
import asyncio
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import ConfigError, SchedulerError
from repro.net.clock import AsyncLatencyClock

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.cdss.participant import Participant
    from repro.confed.confederation import Confederation
    from repro.confed.config import ConfederationConfig
    from repro.policy.acceptance import TrustPolicy

#: One phase of the async round: its name, the per-participant work, the
#: roster it runs over (ascending participant id), and whether it
#: touches the store (then its segments keep roster order).
Phase = Tuple[str, Callable[["Participant"], object], List["Participant"], bool]


def _loop_running() -> bool:
    """True when the calling thread is inside a running event loop."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


class EpochScheduler(abc.ABC):
    """Executes a confederation's evaluation schedule."""

    #: The ``schedule_mode`` name this scheduler answers to.
    name: str

    def __init__(self, workers: Optional[int] = None) -> None:
        """``workers`` caps how many participants have latency
        outstanding at once (the serial schedule never has more than
        one); ``None`` leaves it uncapped.

        A non-positive count is a configuration error, never a silent
        fall-back to the default sizing."""
        if workers is not None and workers < 1:
            raise ConfigError(
                f"{type(self).__name__} needs at least one worker, "
                f"got {workers}"
            )
        self._workers = workers

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
    """Participants on one event loop, each waiting only for itself.

    Injected latency is awaited through an
    :class:`~repro.net.clock.AsyncLatencyClock`, and everything
    synchronous (store calls under the lock, session compute,
    ``HookBus.emit``) runs on the one loop thread.  ``workers=None``
    lets every participant have latency outstanding at once.
    """

    name = "async"

    def round_plan(self, confederation: "Confederation") -> Iterator[Phase]:
        """The phased schedule, as data.

        Yields each phase for :meth:`_run` to run to completion; the
        per-participant epoch-end step runs here, between phases.  Work
        is written as attribute lookups on the live objects at call time
        (``p.publish()``, not a method bound when the plan is built):
        callers replace those methods on the instances — tests inject
        failures that way, the end-to-end benchmark its clocks.
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
            yield "edit", edit, roster, False
            # Deterministic publish-order barrier: epochs allocated in
            # ascending participant id, every round.
            yield "publish", lambda p: p.publish(), roster, True
            yield "reconcile", lambda p: p.reconcile(), roster, True
            for participant in roster:
                confederation.finish_scheduled_epoch(
                    participant, round_index, published[participant.id]
                )
        if config.final_reconcile:
            roster = confederation.participants
            yield "reconcile", lambda p: p.reconcile(), roster, True

    @contextmanager
    def _clock_on(self, store) -> Iterator[AsyncLatencyClock]:
        """Swap the store's latency clock for a fresh async one while the
        block runs: payments accrue to the running segment instead of
        blocking the loop."""
        previous, store.clock = store.clock, AsyncLatencyClock(self._workers)
        try:
            yield store.clock
        finally:
            store.clock = previous

    def register(
        self, confederation: "Confederation", peers: List[Tuple[int, "TrustPolicy"]]
    ) -> List["Participant"]:
        """Registration is this driver's first ordered store phase: one
        segment per peer, in the order given, each waiting only for its
        own round trip (``workers`` caps how many are in flight), and the
        pass settles before it returns.  A failure raises as the serial
        pass would.  Inside a running event loop, where ``asyncio.run``
        cannot nest, it is the serial pass."""
        if _loop_running():
            return super().register(confederation, peers)
        return asyncio.run(self._register(confederation, peers))

    async def _register(self, confederation: "Confederation", peers) -> List["Participant"]:
        """The registration pass, inside the event loop ``register`` owns."""
        with self._clock_on(confederation.store) as clock:
            for pid, policy in peers:
                await clock.segment(pid, confederation.add_participant, pid, policy)
            await clock.settle()
        return [confederation.participant(pid) for pid, _policy in peers]

    async def _run(self, confederation: "Confederation") -> None:
        """The schedule, inside the event loop ``run`` owns.

        A store phase's segments run in roster order, each once its own
        participant is due.  An edit is a task that runs as soon as its
        participant is free; the publish barrier awaits it at that
        participant's turn, so a failed edit stops the barrier there.
        """
        async def step(name: str, work: Callable, participant: "Participant") -> None:
            """One participant's segment of a phase; a failure names it."""
            try:
                await clock.segment(participant.id, work, participant)
            except Exception as error:
                raise SchedulerError(
                    f"{name} phase failed for participant {participant.id}: {error}"
                ) from error

        edits: Dict[int, "asyncio.Task[None]"] = {}
        with self._clock_on(confederation.store) as clock:
            try:
                for name, work, roster, shared in self.round_plan(confederation):
                    # The plan's epoch-end work (fault-plan restarts
                    # rebuild replicas through the store) ran outside
                    # any segment: pay it before the next phase.
                    await clock.drain()
                    for participant in roster:
                        if not shared:
                            edits[participant.id] = asyncio.create_task(
                                step(name, work, participant)
                            )
                            continue
                        if participant.id in edits:
                            await edits.pop(participant.id)
                        await step(name, work, participant)
                await clock.drain()
                await clock.settle()
            finally:
                for task in edits.values():
                    task.cancel()
                await asyncio.gather(*edits.values(), return_exceptions=True)

    def run(self, confederation: "Confederation") -> None:
        """Drive the round plan on a fresh event loop; inside a running
        one, where ``asyncio.run`` cannot nest, raise
        :class:`~repro.errors.SchedulerError` before anything runs."""
        if _loop_running():
            raise SchedulerError(
                "schedule_mode='async' runs its own event loop and cannot "
                "start inside a running one: call run() from outside the "
                "loop, or use schedule_mode='serial'"
            )
        asyncio.run(self._run(confederation))


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
    return scheduler_cls(workers=config.schedule_workers)
