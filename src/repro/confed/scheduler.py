"""Pluggable epoch schedulers for :meth:`Confederation.run`.

The evaluation schedule — every ``reconciliation_interval`` transactions
each participant publishes and reconciles, for ``rounds`` cycles — used
to be a serial loop inlined in ``Confederation.run()``.  It is now a
strategy object selected from
:attr:`~repro.confed.config.ConfederationConfig.schedule_mode`:

* :class:`SerialScheduler` (``"serial"``, the default) — the paper's
  strict round-robin: one participant at a time edits, publishes, and
  reconciles.  Byte-for-byte the historical behaviour.
* :class:`ThreadedScheduler` (``"threaded"``) — independent
  participants' *edit* and *reconcile* phases run concurrently on a
  thread pool; store access stays serialized by the store's lock (held
  by the :class:`~repro.cdss.participant.Participant` transport around
  every call).  Each round is three phases:

  1. **edit** (parallel) — every participant generates and executes its
     transactions.  Deterministic: the workload generator keeps an
     independent RNG substream per participant, and a participant's
     edits depend only on its own replica.
  2. **publish barrier** (serial, ascending participant id) — epochs are
     allocated in a deterministic global order, so the published prefix
     every reconciliation sees is reproducible run to run.
  3. **reconcile** (parallel) — sessions run concurrently.  After the
     barrier the stable prefix is fixed and a reconciliation only reads
     that prefix plus the participant's own record, so decisions do not
     depend on worker interleaving.

  The mode trades the paper's interleaving for throughput: within a
  round every participant sees every other's publications of that round
  (under the serial schedule, participant 1 reconciles before
  participant 2 publishes).  Reports and decisions are reproducible for
  a given mode; the modes are distinct, equally valid schedules.
* :class:`AsyncScheduler` (``"async"``) — the same round on one event
  loop, with the store's clock swapped for an
  :class:`~repro.net.clock.AsyncLatencyClock` for the run: injected
  latency accrues to the participant whose synchronous segment is
  running, and only that participant waits it out.  The store-touching
  segments (publish, reconcile, the plan's epoch-end step) run one at a
  time in the threaded barriers' order, each once its own participant
  is due, and a phase ends when its segments have run — so participant
  *i+1* allocates its epoch while participant *i*'s latency is
  outstanding, and a round's last reconcile does not stall the next
  round.  An edit touches only its participant's replica and RNG
  substream: it runs as soon as the participant is free, and the
  barrier waits for it at that participant's turn.  Per-participant
  decision streams are byte-identical to the threaded mode's, and the
  global stream is reproducible and independent of latency.

The threaded and async modes are two *drivers* of one round plan
(:meth:`_PhasedScheduler.round_plan` states the phased round once, as
data).  A failure raises :class:`~repro.errors.SchedulerError` naming
the participant, chained from its cause (serial raises it raw): the
threaded driver names the phase's lowest-id failure, so a failed edit
publishes nothing; the async driver stops at the first failure in store
order, so a failed edit stops the barrier after the lower ids published.

Wall-clock wins come from overlapping whatever does not hold the store
lock: the GIL-free portions of local work (sqlite instances release it)
and, chiefly, store latency — with a ``real_latency`` store the injected
per-message delays are paid outside the lock, and the threaded and
async schedulers overlap different participants' waits exactly as
concurrent clients of a real networked store would
(``benchmarks/test_perf_scheduler.py`` pins the threaded win on a
16-peer run and the async-over-threaded win on a 64-peer high-latency
run, where the serial threaded barrier dominates).
"""

from __future__ import annotations

import abc
import asyncio
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import ConfigError, SchedulerError
from repro.net.clock import AsyncLatencyClock

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.cdss.participant import Participant
    from repro.confed.confederation import Confederation
    from repro.confed.config import ConfederationConfig

#: One phase of a phased round: its name, the per-participant work, the
#: roster it runs over (ascending participant id), whether that work
#: must *start* in roster order (the publish barrier) or in any order,
#: and whether it touches the store (then its segments keep one order).
Phase = Tuple[str, Callable[["Participant"], object], List["Participant"], bool, bool]


class EpochScheduler(abc.ABC):
    """Executes a confederation's evaluation schedule."""

    #: The ``schedule_mode`` name this scheduler answers to.
    name: str

    @abc.abstractmethod
    def run(self, confederation: "Confederation") -> None:
        """Run every configured round (and the final reconcile pass)."""

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


class _PhasedScheduler(EpochScheduler):
    """What the threaded and async schedulers share: the round plan and
    the ``workers`` cap.

    A subclass is only a *driver*: it takes each :data:`Phase` from
    :meth:`round_plan` and runs its work across the roster with its own
    concurrency primitive (pool threads, one event loop).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        """``workers`` caps how many participants run at once (pool
        threads; in the async driver, participants with latency
        outstanding); ``None`` leaves the sizing to the driver.

        A non-positive count is a configuration error, never a silent
        fall-back to the default sizing."""
        if workers is not None and workers < 1:
            raise ConfigError(
                f"{type(self).__name__} needs at least one worker, "
                f"got {workers}"
            )
        self._workers = workers

    def round_plan(self, confederation: "Confederation") -> Iterator[Phase]:
        """The phased schedule, stated once, as data.

        Yields each phase for the driver to run to completion; the
        per-participant epoch-end step runs here, between phases, on
        whatever thread or task advances the plan.  Work is written as
        attribute lookups on the live objects at call time
        (``p.publish()``, not a method bound when the plan is built):
        callers replace those methods on the instances — tests inject
        failures that way, the end-to-end benchmark its clocks.
        """
        config = confederation.config
        if not confederation.participants:
            return
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
            yield "edit", edit, roster, False, False
            # Deterministic publish-order barrier: epochs allocated in
            # ascending participant id, every round.
            yield "publish", lambda p: p.publish(), roster, True, True
            yield "reconcile", lambda p: p.reconcile(), roster, False, True
            for participant in roster:
                confederation.finish_scheduled_epoch(
                    participant, round_index, published[participant.id]
                )
        if config.final_reconcile:
            roster = confederation.participants
            yield "reconcile", lambda p: p.reconcile(), roster, False, True


class ThreadedScheduler(_PhasedScheduler):
    """Concurrent edit/reconcile phases with a publish-order barrier."""

    name = "threaded"

    #: Default pool ceiling.  Workers spend most of their time *waiting*
    #: — store calls serialize on the store lock and injected latency is
    #: slept — so the pool is sized by the peer count (capped), not by
    #: the CPU count: overlapping waits needs threads, not cores.
    MAX_DEFAULT_WORKERS = 32

    def _run_phase(self, pool: ThreadPoolExecutor, phase: Phase) -> None:
        """Run one phase across the pool, failing fast.

        The phase waits with ``FIRST_EXCEPTION`` and cancels what has
        not started; already-running workers drain before the raise, so
        the next phase never runs against a half-finished one.  An
        ordered phase submits the next participant only once the
        previous one finished cleanly — the barrier is serial in wall
        time.  The error names the lowest-id failing participant.
        """
        name, work, roster, ordered, _shared = phase
        futures = []
        for participant in roster:
            futures.append(pool.submit(work, participant))
            if ordered and futures[-1].exception() is not None:
                break
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        for future in pending:
            future.cancel()
        wait(pending)
        for participant, future in zip(roster, futures):
            error = future.exception() if future in done else None
            if error is not None:
                raise SchedulerError(
                    f"{name} phase failed for participant {participant.id}: {error}"
                ) from error

    def run(self, confederation: "Confederation") -> None:
        """Drive the round plan on a thread pool
        (``workers=None``: ``min(peer count, MAX_DEFAULT_WORKERS)``)."""
        workers = self._workers or max(
            1, min(len(confederation.participants), self.MAX_DEFAULT_WORKERS)
        )
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="epoch"
        ) as pool:
            for phase in self.round_plan(confederation):
                self._run_phase(pool, phase)


class AsyncScheduler(_PhasedScheduler):
    """Participants on one event loop, each waiting only for itself.

    The same round plan as the threaded schedule, but injected latency
    is awaited through an :class:`~repro.net.clock.AsyncLatencyClock`
    instead of blocking a pool thread, and everything synchronous
    (store calls under the lock, session compute, ``HookBus.emit``)
    runs on the one loop thread.  ``workers=None`` lets every
    participant have latency outstanding at once.
    """

    name = "async"

    async def _run(self, confederation: "Confederation") -> None:
        """The schedule, inside the event loop ``run`` owns.

        A store phase's segments run in roster order, each once its own
        participant is due.  An edit is a task that runs as soon as its
        participant is free; the publish barrier awaits it at that
        participant's turn, so a failed edit stops the barrier there.
        """
        store = confederation.store
        clock = AsyncLatencyClock(self._workers)
        # Swap the store's latency clock for the run: payments accrue
        # to the running segment instead of blocking the loop.  (Minimal
        # test doubles without a clock attribute pay nothing anyway.)
        previous = getattr(store, "clock", None)
        if previous is not None:
            store.clock = clock

        async def step(name: str, work: Callable, participant: "Participant") -> None:
            """One participant's segment of a phase; a failure names it."""
            try:
                await clock.segment(participant.id, work, participant)
            except Exception as error:
                raise SchedulerError(
                    f"{name} phase failed for participant {participant.id}: {error}"
                ) from error

        edits: Dict[int, "asyncio.Task[None]"] = {}
        try:
            for name, work, roster, _ordered, shared in self.round_plan(confederation):
                # The plan's epoch-end work (fault-plan restarts rebuild
                # replicas through the store) ran outside any segment:
                # pay it before the next phase.
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
            if previous is not None:
                store.clock = previous

    def run(self, confederation: "Confederation") -> None:
        """Drive the round plan on a fresh event loop."""
        asyncio.run(self._run(confederation))


#: Mode name → scheduler class.  ``ConfederationConfig.SCHEDULE_MODES``
#: must name exactly these keys; ``tests/confed/test_scheduler.py`` pins
#: the two in sync.
SCHEDULERS: Dict[str, Type[EpochScheduler]] = {
    SerialScheduler.name: SerialScheduler,
    ThreadedScheduler.name: ThreadedScheduler,
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
    if issubclass(scheduler_cls, _PhasedScheduler):
        return scheduler_cls(workers=config.schedule_workers)
    return scheduler_cls()
