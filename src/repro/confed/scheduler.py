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
* :class:`AsyncScheduler` (``"async"``) — the same three-phase round
  as the threaded mode, but participants run as asyncio *tasks* on one
  event loop instead of pool threads.  The store's latency clock is
  swapped for an :class:`~repro.net.clock.AsyncLatencyClock` for the
  duration of the run, so injected latency *accrues* to a task while
  its synchronous segment runs and is then awaited — which pipelines
  the publish barrier: epochs are still allocated strictly in
  ascending participant id (tasks start in creation order and the
  lock-held allocation runs synchronously to the first await), but
  participant *i+1* allocates its epoch while participant *i*'s
  latency awaits.  The threaded barrier, by contrast, is serial in
  wall time.  Publish order and per-participant RNG substreams are
  identical to the threaded schedule, so per-participant decision
  streams are byte-identical between the two modes — and because one
  event loop interleaves whole synchronous segments deterministically,
  the async mode's *global* stream is reproducible as well.

The threaded and async modes are two *drivers* of one round plan
(:meth:`_PhasedScheduler.round_plan` states the phased round once, as
data) and fail the same way: a failure in any phase aborts the run with
a :class:`~repro.errors.SchedulerError` naming the lowest-id failing
participant, chained from its cause.  The serial mode raises it raw.

Wall-clock wins come from overlapping whatever does not hold the store
lock: the GIL-free portions of local work (sqlite instances release it)
and, chiefly, store latency — with a ``real_latency`` store the injected
per-message delays are paid outside the lock, and the threaded and
async schedulers overlap different participants' waits exactly as
concurrent clients of a real networked store would
(``benchmarks/test_perf_scheduler.py`` pins the threaded win on a
16-peer run and the async-over-threaded win on a 64-peer high-latency
run, where the pipelined barrier dominates).
"""

from __future__ import annotations

import abc
import asyncio
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Set, Tuple, Type

from repro.errors import ConfigError, SchedulerError
from repro.net.clock import AsyncLatencyClock

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.cdss.participant import Participant
    from repro.confed.confederation import Confederation
    from repro.confed.config import ConfederationConfig

#: One phase of a phased round: its name, the per-participant work, the
#: roster it runs over (ascending participant id), and whether that work
#: must *start* in roster order (the publish barrier) or in any order.
Phase = Tuple[str, Callable[["Participant"], object], List["Participant"], bool]


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
    """What the threaded and async schedulers share: the round plan,
    the ``workers`` cap, and the fail-fast contract.

    A subclass is only a *driver*: it takes each :data:`Phase` from
    :meth:`round_plan` and runs its work across the roster with its own
    concurrency primitive (pool threads, asyncio tasks).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        """``workers`` caps how many participants a phase drives at
        once; ``None`` leaves the sizing to the driver.

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
            yield "edit", edit, roster, False
            # Deterministic publish-order barrier: epochs allocated in
            # ascending participant id, every round.
            yield "publish", lambda p: p.publish(), roster, True
            yield "reconcile", lambda p: p.reconcile(), roster, False
            for participant in roster:
                confederation.finish_scheduled_epoch(
                    participant, round_index, published[participant.id]
                )
        if config.final_reconcile:
            roster = confederation.participants
            yield "reconcile", lambda p: p.reconcile(), roster, False

    @staticmethod
    def raise_lowest_failure(
        phase: str,
        roster: List["Participant"],
        outcomes: List[object],
        done: Set[object],
    ) -> None:
        """Fail the phase if a finished outcome holds an exception.

        ``outcomes`` are the roster's futures or tasks (both answer
        ``exception()``) and ``done`` the ones that finished; the
        driver has already cancelled the rest and let started work
        drain, so nothing mutates the round after the raise and the
        next phase never runs against a half-finished one.  The
        :class:`SchedulerError` names the lowest-id failing participant
        and chains its exception as the cause — the same report
        whichever driver, and whichever phase, failed.
        """
        failures = [
            (participant.id, outcome.exception())
            for participant, outcome in zip(roster, outcomes)
            if outcome in done and outcome.exception() is not None
        ]
        if failures:
            pid, error = min(failures, key=lambda pair: pair[0])
            raise SchedulerError(
                f"{phase} phase failed for participant {pid}: {error}"
            ) from error


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
        not started; already-running workers drain before the raise.
        An ordered phase submits the next participant only once the
        previous one finished cleanly — the barrier is serial in wall
        time.
        """
        name, work, roster, ordered = phase
        futures = []
        for participant in roster:
            futures.append(pool.submit(work, participant))
            if ordered and futures[-1].exception() is not None:
                break
        done, pending = wait(futures, return_when=FIRST_EXCEPTION)
        for future in pending:
            future.cancel()
        wait(pending)
        self.raise_lowest_failure(name, roster, futures, done)

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
    """Pipelined epochs: participants as tasks on one event loop.

    The same round plan as the threaded schedule, but the concurrency
    primitive is an asyncio task, and injected latency is awaited
    through an :class:`~repro.net.clock.AsyncLatencyClock` instead of
    blocking a pool thread.  Everything synchronous (store calls under
    the lock, session compute, ``HookBus.emit``) runs on the single
    loop thread, so within a phase whole segments interleave
    deterministically in task order; only the latency waits overlap.
    ``workers=None`` lets every participant be in flight at once (tasks
    are cheap — the cap exists for stores where even *queued* work has
    a footprint).
    """

    name = "async"

    async def _run_phase(self, clock: AsyncLatencyClock, phase: Phase) -> None:
        """Run one phase as tasks, failing fast like the threaded pool.

        Tasks are created in ascending participant id and the event
        loop starts them in creation order (``call_soon`` is FIFO; the
        semaphore grants waiters FIFO too), so each participant's
        lock-held synchronous segment runs in a deterministic global
        order — every phase is ordered, which is what makes *publish* a
        deterministic barrier without serializing its latency:
        participant *i* hits ``clock.drain()`` and awaits while
        participant *i+1* allocates its epoch.  On a failure the pending
        tasks are cancelled (started segments always run to their await
        point — synchronous code cannot be interrupted mid-segment).
        """
        name, work, roster, _ordered = phase
        semaphore = asyncio.Semaphore(self._workers or len(roster))

        async def step(participant: "Participant") -> None:
            """One participant's phase: sync segment, then the debt."""
            async with semaphore:
                work(participant)
                await clock.drain()

        tasks = [asyncio.create_task(step(p)) for p in roster]
        done, pending = await asyncio.wait(
            tasks, return_when=asyncio.FIRST_EXCEPTION
        )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.wait(pending)
        self.raise_lowest_failure(name, roster, tasks, done)

    async def _run(self, confederation: "Confederation") -> None:
        """The schedule, inside the event loop ``run`` owns."""
        store = confederation.store
        clock = AsyncLatencyClock()
        # Swap the store's latency clock for the run: payments accrue
        # to the paying task instead of blocking the loop.  (Minimal
        # test doubles without a clock attribute pay nothing anyway.)
        previous = getattr(store, "clock", None)
        if previous is not None:
            store.clock = clock
        try:
            for phase in self.round_plan(confederation):
                # The plan's epoch-end work (fault-plan restarts rebuild
                # replicas through the store) charges latency to *this*
                # task: pay it before the next phase, and after the last.
                await clock.drain()
                await self._run_phase(clock, phase)
            await clock.drain()
        finally:
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
