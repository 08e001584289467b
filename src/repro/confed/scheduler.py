"""The epoch schedule of :meth:`Confederation.run`: one round plan, run
by one loop, in either :data:`~repro.confed.config.SCHEDULE_MODES` mode.

Every round puts the participants in groups, in the order they joined.
Within a group each member **edits** (on its own RNG substream and
replica) and **publishes**, then each member **reconciles**, then each
member's epoch-end step runs.  ``schedule_mode`` decides three things:

* the grouping — ``"serial"`` (the default) gives each participant a
  group of its own: the paper's strict round-robin; ``"async"`` puts
  everyone in one group, a publish barrier in ascending id and then a
  reconcile pass, so every participant sees the round's publications;
* the clock — ``"async"`` swaps the store's latency clock for a fresh
  :class:`~repro.net.clock.AsyncLatencyClock` for the run, so every
  segment (a registration in ``open()``, an edit, a publish, a
  reconcile) runs once its own participant's latency is paid, and
  participant *i+1* works while participant *i*'s is outstanding;
* the errors — an async segment's failure raises
  :class:`~repro.errors.SchedulerError` naming the phase and the
  participant, chained from its cause; serial raises it raw.

Both run on the caller's thread, one segment at a time in the plan's
order, so the global decision stream is reproducible and independent of
latency.  The async wall-clock win (``real_latency``) is pinned by
``benchmarks/test_perf_scheduler.py``; see "Epoch schedulers and the
latency clock" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Tuple

from repro.errors import SchedulerError
from repro.net.clock import AsyncLatencyClock, LatencyClock

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.cdss.participant import Participant
    from repro.confed.confederation import Confederation
    from repro.policy.acceptance import TrustPolicy

#: One segment of the plan: the phase it belongs to, the per-participant
#: work, and the id of the participant it runs for.
Segment = Tuple[str, Callable[["Participant"], object], int]


def round_plan(confederation: "Confederation") -> Iterator[Segment]:
    """The schedule, as data: every segment in the order it runs.

    The epoch-end step runs here, between segments, so its latency (a
    fault-plan restart rebuilds a replica through the store) is paid at
    once.  A segment names its participant by id and the loop looks the
    object up when it runs, so a restart's rebuilt object is the one
    driven.  Work looks methods up on the live object at call time
    (``p.publish()``, not a bound method): tests replace them per
    instance to inject failures, the end-to-end benchmark its clocks.
    """
    config = confederation.config
    published: Dict[int, int] = {}

    def edit(participant: "Participant") -> None:
        """Generate and execute ``reconciliation_interval`` transactions,
        noting for the epoch-end step how many were produced (the
        generator may skip on a saturated domain)."""
        executed = 0
        for _ in range(config.reconciliation_interval):
            updates = confederation.generator.transaction_updates(
                participant.id, participant.instance
            )
            if updates:
                participant.execute(updates)
                executed += 1
        published[participant.id] = executed

    for round_index in range(config.rounds):
        ids = [p.id for p in confederation.participants]
        groups = [ids] if config.schedule_mode == "async" else [[pid] for pid in ids]
        for group in groups:
            # Epochs are allocated in ascending id, each member editing
            # at its turn, so a failed edit stops the barrier there.
            for pid in group:
                yield "edit", edit, pid
                yield "publish", lambda p: p.publish(), pid
            for pid in group:
                yield "reconcile", lambda p: p.reconcile(), pid
            for pid in group:
                confederation.finish_scheduled_epoch(
                    confederation.participant(pid), round_index, published[pid]
                )
    if config.final_reconcile:
        for participant in confederation.participants:
            yield "reconcile", lambda p: p.reconcile(), participant.id


@contextmanager
def _clock(confederation: "Confederation") -> Iterator[LatencyClock]:
    """The clock the schedule's segments run on: under ``async``, a fresh
    :class:`AsyncLatencyClock` swapped into the store while the block
    runs, so payments accrue to the running segment instead of blocking;
    otherwise the store's own."""
    store = confederation.store
    if confederation.config.schedule_mode != "async":
        yield store.clock
        return
    previous, store.clock = store.clock, AsyncLatencyClock()
    try:
        yield store.clock
    finally:
        store.clock = previous


def register(
    confederation: "Confederation", peers: List[Tuple[int, "TrustPolicy"]]
) -> List["Participant"]:
    """Add ``peers`` (``(id, policy)`` pairs) in the order given, one
    segment each, and settle before returning: under ``async`` each
    waits only for its own round trip.  A failure raises raw in every
    mode."""
    with _clock(confederation) as clock:
        for pid, policy in peers:
            clock.segment(pid, confederation.add_participant, pid, policy)
        clock.settle()
    return [confederation.participant(pid) for pid, _policy in peers]


def run(confederation: "Confederation") -> None:
    """Run every configured round (and the final reconcile pass): the
    plan's segments in order, each once its participant is due; the
    first failure stops the schedule there."""
    wrap = confederation.config.schedule_mode == "async"
    with _clock(confederation) as clock:
        for phase, work, pid in round_plan(confederation):
            try:
                clock.segment(pid, work, confederation.participant(pid))
            except Exception as error:
                if not wrap:
                    raise
                raise SchedulerError(
                    f"{phase} phase failed for participant {pid}: {error}"
                ) from error
        clock.settle()
