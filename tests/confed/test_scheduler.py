"""The pluggable epoch schedulers and the session/transport split."""

from __future__ import annotations

import asyncio
from typing import NamedTuple

import pytest

from repro.confed import (
    AsyncScheduler,
    Confederation,
    ConfederationConfig,
    HookBus,
    SerialScheduler,
    ThreadedScheduler,
    create_scheduler,
)
from repro.core.session import ReconcileSession
from repro.errors import ConfigError, SchedulerError, StoreError
from repro.workload import WorkloadConfig
from tests.conftest import decision_stream


def _config(**overrides):
    base = dict(
        peers=(1, 2, 3, 4),
        reconciliation_interval=2,
        rounds=2,
        final_reconcile=True,
        workload=WorkloadConfig(transaction_size=1, seed=23),
    )
    base.update(overrides)
    return ConfederationConfig(**base)


def _decision_log(config):
    hooks = HookBus()
    log = decision_stream(hooks)
    with Confederation(config, hooks=hooks) as confed:
        report = confed.run()
        snapshots = {
            p.id: p.instance.snapshot() for p in confed.participants
        }
    # Sort by participant: the threaded schedule interleaves emission
    # across workers, but each participant's own stream is ordered.
    return sorted(log), snapshots, report


def _raw_decision_log(config):
    """Like ``_decision_log`` but keeps the global emission order."""
    hooks = HookBus()
    log = decision_stream(hooks)
    with Confederation(config, hooks=hooks) as confed:
        confed.run()
    return log


def _per_participant(log):
    """Group a decision log per participant, preserving each stream."""
    streams = {}
    for participant, *rest in log:
        streams.setdefault(participant, []).append(tuple(rest))
    return streams


class TestSelection:
    def test_serial_is_the_default(self):
        assert ConfederationConfig().schedule_mode == "serial"
        assert isinstance(create_scheduler(ConfederationConfig()), SerialScheduler)

    def test_threaded_selected_by_mode(self):
        cfg = ConfederationConfig(schedule_mode="threaded", schedule_workers=3)
        assert isinstance(create_scheduler(cfg), ThreadedScheduler)

    def test_async_selected_by_mode(self):
        cfg = ConfederationConfig(schedule_mode="async", schedule_workers=3)
        scheduler = create_scheduler(cfg)
        assert isinstance(scheduler, AsyncScheduler)
        assert scheduler._workers == 3

    def test_unknown_mode_rejected_by_validation(self):
        with pytest.raises(ConfigError, match="unknown schedule mode"):
            ConfederationConfig(schedule_mode="quantum").validate()

    def test_mode_registry_matches_config_modes(self):
        # SCHEDULE_MODES (what validate() accepts) and SCHEDULERS (what
        # create_scheduler can build) must never drift apart.
        from repro.confed import SCHEDULE_MODES
        from repro.confed.scheduler import SCHEDULERS

        assert set(SCHEDULERS) == set(SCHEDULE_MODES)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigError, match="schedule_workers"):
            ConfederationConfig(schedule_workers=0).validate()

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("scheduler_cls", [ThreadedScheduler, AsyncScheduler])
    def test_direct_construction_rejects_non_positive_workers(
        self, scheduler_cls, workers
    ):
        # workers=0 used to silently fall back to the default sizing
        # through `self._workers or ...`; it is a hard error at
        # construction for both phased schedulers, with one message.
        with pytest.raises(ConfigError, match="at least one worker"):
            scheduler_cls(workers=workers)

    def test_async_bad_worker_count_rejected_by_validation(self):
        with pytest.raises(ConfigError, match="schedule_workers"):
            ConfederationConfig(
                schedule_mode="async", schedule_workers=0
            ).validate()

    def test_explicit_worker_count_is_honoured(self):
        assert ThreadedScheduler(workers=2)._workers == 2
        assert ThreadedScheduler()._workers is None

    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_schedule_keys_round_trip(self, mode):
        cfg = ConfederationConfig(schedule_mode=mode, schedule_workers=8)
        wire = cfg.to_dict()
        assert wire["schedule_mode"] == mode
        assert wire["schedule_workers"] == 8
        assert ConfederationConfig.from_dict(wire) == cfg


class TestThreadedSchedule:
    def test_threaded_run_completes_and_counts(self):
        with Confederation(_config(schedule_mode="threaded")) as confed:
            report = confed.run()
        assert report.transactions_published == 4 * 2 * 2
        assert set(report.timings) == {1, 2, 3, 4}
        for agg in report.timings.values():
            assert agg.reconciliations == 3  # 2 rounds + final pass

    def test_threaded_decisions_are_reproducible(self):
        first = _decision_log(_config(schedule_mode="threaded"))
        second = _decision_log(_config(schedule_mode="threaded"))
        assert first[0] == second[0]  # decision log
        assert first[1] == second[1]  # replica snapshots
        assert first[2].state_ratio == second[2].state_ratio

    def test_threaded_converges_like_serial_after_full_exchange(self):
        # The two modes interleave differently (and may decide
        # differently mid-run), but with a final reconcile pass every
        # replica sees every accepted update under both schedules.
        serial = _decision_log(_config(schedule_mode="serial"))
        threaded = _decision_log(_config(schedule_mode="threaded"))
        assert serial[2].transactions_published == threaded[2].transactions_published

    def test_threaded_works_against_the_dht_store(self):
        config = _config(
            store="dht",
            store_options={"hosts": 4},
            schedule_mode="threaded",
            rounds=1,
        )
        first = _decision_log(config)
        second = _decision_log(config)
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestAsyncSchedule:
    def test_async_run_completes_and_counts(self):
        with Confederation(_config(schedule_mode="async")) as confed:
            report = confed.run()
        assert report.transactions_published == 4 * 2 * 2
        assert set(report.timings) == {1, 2, 3, 4}
        for agg in report.timings.values():
            assert agg.reconciliations == 3  # 2 rounds + final pass
        assert report.scheduler == "async"

    def test_async_global_stream_is_reproducible(self):
        # Stronger than the threaded pin: one event loop interleaves
        # whole synchronous segments in deterministic task order, so
        # even the *global* decision stream reproduces byte-for-byte.
        config = _config(schedule_mode="async")
        assert _raw_decision_log(config) == _raw_decision_log(config)

    def test_async_matches_threaded_per_participant(self):
        # Same publish order, same RNG substreams, same three-phase
        # rounds: each participant's decision stream is byte-identical
        # between the threaded and async schedules.
        threaded = _raw_decision_log(_config(schedule_mode="threaded"))
        async_log = _raw_decision_log(_config(schedule_mode="async"))
        assert _per_participant(async_log) == _per_participant(threaded)

    def test_async_replicas_and_report_match_threaded(self):
        threaded = _decision_log(_config(schedule_mode="threaded"))
        async_run = _decision_log(_config(schedule_mode="async"))
        assert async_run[0] == threaded[0]  # canonicalised decision log
        assert async_run[1] == threaded[1]  # replica snapshots
        assert async_run[2].state_ratio == threaded[2].state_ratio

    def test_async_works_against_the_dht_store(self):
        config = _config(
            store="dht",
            store_options={"hosts": 4},
            schedule_mode="async",
            rounds=1,
        )
        first = _decision_log(config)
        second = _decision_log(config)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_async_honours_the_in_flight_cap(self):
        config = _config(schedule_mode="async", schedule_workers=1)
        capped = _raw_decision_log(config)
        uncapped = _raw_decision_log(_config(schedule_mode="async"))
        assert _per_participant(capped) == _per_participant(uncapped)

    def test_async_restores_the_blocking_clock_after_the_run(self):
        from repro.net.clock import BlockingLatencyClock

        with Confederation(_config(schedule_mode="async")) as confed:
            confed.run()
            assert isinstance(confed.store.clock, BlockingLatencyClock)


class Segment(NamedTuple):
    """One participant's synchronous segment, as the async driver ran it."""

    name: str
    participant: int
    start: float
    end: float
    charged: float  # the latency the store charged inside it


def _timeline(monkeypatch, workers=None):
    """Run four peers on a real-latency ``memory`` store under the async
    scheduler, participant 4 the farthest from it, recording every
    segment (from the round plan's work) and every epoch end in the
    order they ran; plus the clock the run paid through and the latency
    the store charged during ``run()``."""
    config = _config(
        schedule_mode="async",
        schedule_workers=workers,
        store_options={"message_latency": 0.005, "real_latency": True},
    )
    log, clocks = [], []
    hooks = HookBus()
    hooks.on_epoch_end(lambda **kw: log.append(("epoch_end", kw["participant"])))
    original = AsyncScheduler.round_plan
    with Confederation(config, hooks=hooks) as confed:
        store, perf = confed.store, confed.store.perf
        complete = store.complete_reconciliation

        def far(participant, result):
            # Participant 4 is far away: its report costs five more round
            # trips, so its reconcile's latency outlasts everyone's.
            if participant == 4:
                perf.charge(10, store.message_latency)
            return complete(participant, result)

        store.complete_reconciliation = far

        def timed(name, work):
            def run(participant):
                loop = asyncio.get_running_loop()
                clocks.append(store.clock)
                charged, start = perf.simulated_seconds, loop.time()
                work(participant)
                log.append(Segment(
                    name, participant.id, start, loop.time(),
                    perf.simulated_seconds - charged,
                ))

            return run

        def recording_plan(self, confederation):
            for name, work, *rest in original(self, confederation):
                yield (name, timed(name, work), *rest)

        monkeypatch.setattr(AsyncScheduler, "round_plan", recording_plan)
        before = perf.simulated_seconds
        confed.run()
        charged = perf.simulated_seconds - before
    assert len(set(map(id, clocks))) == 1
    return log, clocks[0], charged


class TestAsyncTimeline:
    """Each participant waits only for its own latency, and the store
    segments keep the barrier driver's global order."""

    PEERS = (1, 2, 3, 4)

    def test_each_participant_waits_only_for_itself_in_the_barrier_order(
        self, monkeypatch
    ):
        log, clock, charged = _timeline(monkeypatch)
        # The store segments run in the barrier driver's global order.
        order = [(entry[0], entry[1]) for entry in log if entry[0] != "edit"]
        assert order == [
            (step, pid)
            for _round in range(2)
            for step in ("publish", "reconcile", "epoch_end")
            for pid in self.PEERS
        ] + [("reconcile", pid) for pid in self.PEERS]
        # No segment starts before its participant's previous one is due.
        segments = [entry for entry in log if isinstance(entry, Segment)]
        previous = {}
        for segment in segments:
            before = previous.get(segment.participant)
            if before is not None:
                assert segment.start >= before.end + before.charged
            previous[segment.participant] = segment
        # The overlap is real: a round-2 publish starts before the last
        # round-1 reconcile is due.
        last = [s for s in segments if s.name == "reconcile"][len(self.PEERS) - 1]
        assert any(
            s.start < last.end + last.charged
            for s in [s for s in segments if s.name == "publish"][len(self.PEERS):]
        )
        assert charged > 0
        assert clock.total_paid == pytest.approx(charged)

    def test_one_worker_leaves_one_participant_with_latency_outstanding(
        self, monkeypatch
    ):
        log, clock, charged = _timeline(monkeypatch, workers=1)
        segments = [entry for entry in log if isinstance(entry, Segment)]
        for before, after in zip(segments, segments[1:]):
            assert after.start >= before.end + before.charged
        assert clock.total_paid == pytest.approx(charged)


@pytest.mark.parametrize("mode", ["threaded", "async"])
class TestFailFast:
    def test_edit_phase_failure_aborts_before_the_publish_barrier(self, mode):
        # A failed edit must stop the round before participant 3 would
        # publish — a half-edited round leaking through the barrier
        # would feed every peer inconsistent epochs — and the raised
        # error must name the failing participant.  The threaded driver
        # never starts the barrier; the async one stops it at 3, after
        # the lower ids published (as after a failed publish).
        with Confederation(_config(schedule_mode=mode)) as confed:
            broken = confed.participant(3)

            def explode(updates):
                raise RuntimeError("disk on fire")

            broken.execute = explode
            with pytest.raises(
                SchedulerError, match="edit phase failed for participant 3"
            ) as excinfo:
                confed.run()
            assert isinstance(excinfo.value.__cause__, RuntimeError)
            published = {"threaded": 0, "async": 2}[mode]
            assert confed.store.current_epoch() == published
            assert confed.report().transactions_published == 0

    def test_a_round_two_edit_failure_stops_that_round(self, mode):
        # Round 2 is where the async driver overlaps one round's
        # latency with the next round's work.
        def run():
            events = []
            hooks = HookBus()

            def record(event):
                return lambda **kw: events.append(
                    (event, kw["participant"], kw.get("round"))
                )

            for event in ("publish", "reconcile", "epoch_end"):
                hooks.subscribe(event, record(event))
            with Confederation(_config(schedule_mode=mode), hooks=hooks) as confed:
                broken = confed.participant(3)
                execute = broken.execute

                def explode_in_round_two(updates):
                    if ("epoch_end", 4, 0) in events:
                        raise RuntimeError("disk on fire")
                    return execute(updates)

                broken.execute = explode_in_round_two
                with pytest.raises(SchedulerError) as excinfo:
                    confed.run()
            return events, excinfo.value

        events, error = run()
        assert str(error).startswith("edit phase failed for participant 3")
        assert isinstance(error.__cause__, RuntimeError)
        round_one = [("publish", p, None) for p in (1, 2, 3, 4)]
        round_one += [("reconcile", p, None) for p in (1, 2, 3, 4)]
        round_one += [("epoch_end", p, 0) for p in (1, 2, 3, 4)]
        if mode == "threaded":
            # Round 2 published nothing (threaded reconciles interleave).
            assert sorted(events) == sorted(round_one)
        else:
            # The lower ids' round-2 epochs stay published; no
            # reconcile or epoch end of round 2 ran.
            assert events == round_one + [("publish", 1, None), ("publish", 2, None)]
            again, second = run()
            assert again == events and str(second) == str(error)

    def test_publish_barrier_failure_is_wrapped_and_stops_the_round(self, mode):
        # A store error during the barrier used to escape raw from the
        # threaded scheduler and wrapped from the async one; both now
        # raise the wrapped form with the cause chained.
        reconciled = []
        hooks = HookBus()
        hooks.on_reconcile(lambda **kw: reconciled.append(kw["participant"]))
        with Confederation(_config(schedule_mode=mode), hooks=hooks) as confed:
            broken = confed.participant(2)

            def explode():
                raise StoreError("store unreachable")

            broken.publish = explode
            with pytest.raises(
                SchedulerError,
                match="publish phase failed for participant 2: store unreachable",
            ) as excinfo:
                confed.run()
            assert isinstance(excinfo.value.__cause__, StoreError)
            # The reconcile phase never ran against the torn barrier.
            assert reconciled == []
            assert confed.report().transactions_published == 0

    def test_reconcile_phase_failure_names_the_participant(self, mode):
        with Confederation(_config(schedule_mode=mode)) as confed:
            broken = confed.participant(2)

            def explode():
                raise RuntimeError("session crashed")

            broken.reconcile = explode
            with pytest.raises(
                SchedulerError,
                match="reconcile phase failed for participant 2",
            ):
                confed.run()


class TestEpochEndHook:
    def test_epoch_end_emitted_per_schedule_step(self):
        for mode in ("serial", "threaded", "async"):
            events = []
            hooks = HookBus()
            hooks.on_epoch_end(lambda **kw: events.append(kw))
            with Confederation(
                _config(schedule_mode=mode), hooks=hooks
            ) as confed:
                report = confed.run()
            assert len(events) == 2 * 4  # rounds x peers
            assert {e["participant"] for e in events} == {1, 2, 3, 4}
            assert {e["round"] for e in events} == {0, 1}
            totals = [e["total_published"] for e in events]
            assert totals == sorted(totals)
            assert totals[-1] == report.transactions_published
            assert sum(e["published"] for e in events) == totals[-1]


class TestSessionLayer:
    def test_participant_reconcile_routes_through_the_session(self):
        with Confederation(_config(rounds=1)) as confed:
            participant = confed.participant(1)
            assert isinstance(participant.session, ReconcileSession)
            confed.run()

    def test_session_is_transport_free(self):
        """A session consumes hand-built batches with no store at all."""
        from repro.core.engine import Reconciler
        from repro.core.extensions import ReconciliationBatch
        from repro.core.state import ParticipantState
        from repro.instance.memory import MemoryInstance
        from repro.workload import curated_schema

        schema = curated_schema()
        reconciler = Reconciler(schema, MemoryInstance(schema), ParticipantState(7))
        session = ReconcileSession(reconciler)
        outcome = session.run(ReconciliationBatch(recno=3))
        assert outcome.result.recno == 3
        assert outcome.upstream.deferred == []
        assert outcome.local_seconds >= 0.0

    def test_session_upstream_filters_re_deferrals(self):
        """Only newly deferred roots travel upstream."""
        from repro.core.engine import Reconciler
        from repro.core.extensions import (
            ReconciliationBatch,
            RelevantTransaction,
        )
        from repro.core.state import ParticipantState
        from repro.instance.memory import MemoryInstance
        from repro.model import Insert, Transaction, TransactionId
        from repro.workload import curated_schema

        schema = curated_schema()
        state = ParticipantState(7)
        reconciler = Reconciler(schema, MemoryInstance(schema), state)
        session = ReconcileSession(reconciler)

        left = Transaction(
            TransactionId(1, 0), (Insert("F", ("rat", "p1", "fn-a"), 1),)
        )
        right = Transaction(
            TransactionId(2, 0), (Insert("F", ("rat", "p1", "fn-b"), 2),)
        )
        batch = ReconciliationBatch(recno=1)
        for order, txn in enumerate((left, right)):
            batch.graph.add(txn, (), order)
            batch.roots.append(
                RelevantTransaction(transaction=txn, priority=1, order=order)
            )
        outcome = session.run(batch)
        assert sorted(map(str, outcome.upstream.deferred)) == ["X1:0", "X2:0"]

        # Same conflict next epoch: re-deferred locally, silent upstream.
        again = session.run(ReconciliationBatch(recno=2))
        assert sorted(map(str, again.result.deferred)) == ["X1:0", "X2:0"]
        assert again.upstream.deferred == []
