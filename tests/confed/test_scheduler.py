"""The pluggable epoch schedulers and the session/transport split."""

from __future__ import annotations

import asyncio
import gc
import sqlite3
import threading
import warnings
from typing import NamedTuple

import pytest

from repro.confed import (
    AsyncScheduler,
    Confederation,
    ConfederationConfig,
    HookBus,
    SerialScheduler,
    create_scheduler,
)
from repro.confed import scheduler as scheduler_module
from repro.core.session import ReconcileSession
from repro.errors import ConfigError, SchedulerError, StoreError
from repro.net.clock import AsyncLatencyClock, BlockingLatencyClock
from repro.store.memory import MemoryUpdateStore
from repro.workload import WorkloadConfig, curated_schema
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
    return log, snapshots, report


class TestSelection:
    def test_serial_is_the_default(self):
        assert ConfederationConfig().schedule_mode == "serial"
        assert isinstance(create_scheduler(ConfederationConfig()), SerialScheduler)

    def test_async_selected_by_mode(self):
        cfg = ConfederationConfig(schedule_mode="async")
        assert isinstance(create_scheduler(cfg), AsyncScheduler)

    def test_unknown_mode_rejected_by_validation(self):
        with pytest.raises(ConfigError, match="unknown schedule mode"):
            ConfederationConfig(schedule_mode="quantum").validate()

    def test_mode_registry_matches_config_modes(self):
        # SCHEDULE_MODES (what validate() accepts) and SCHEDULERS (what
        # create_scheduler can build) must never drift apart.
        from repro.confed import SCHEDULE_MODES
        from repro.confed.scheduler import SCHEDULERS

        assert set(SCHEDULERS) == set(SCHEDULE_MODES)

    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_schedule_keys_round_trip(self, mode):
        cfg = ConfederationConfig(schedule_mode=mode)
        wire = cfg.to_dict()
        assert wire["schedule_mode"] == mode
        assert ConfederationConfig.from_dict(wire) == cfg


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
        # One event loop interleaves whole synchronous segments in
        # deterministic task order, so even the *global* decision
        # stream reproduces byte-for-byte.
        first = _decision_log(_config(schedule_mode="async"))
        second = _decision_log(_config(schedule_mode="async"))
        assert first[0] == second[0]  # decision log, order included
        assert first[1] == second[1]  # replica snapshots
        assert first[2].state_ratio == second[2].state_ratio

    def test_async_publishes_what_serial_publishes(self):
        # The two modes interleave differently (and may decide
        # differently mid-run), but they run the same schedule volume.
        serial = _decision_log(_config(schedule_mode="serial"))
        async_run = _decision_log(_config(schedule_mode="async"))
        assert serial[2].transactions_published == async_run[2].transactions_published

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

    def test_async_run_inside_a_running_loop_is_a_scheduler_error(self):
        async def inside():
            with Confederation(_config(peers=(1, 2, 3), schedule_mode="async")) as confed:
                with pytest.raises(SchedulerError, match='schedule_mode=.serial.'):
                    confed.run()
                return confed.report().transactions_published

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert asyncio.run(inside()) == 0
            gc.collect()  # a coroutine built but never awaited warns here
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_async_restores_the_blocking_clock_after_the_run(self):
        with Confederation(_config(schedule_mode="async")) as confed:
            confed.run()
            assert isinstance(confed.store.clock, BlockingLatencyClock)


class TestOneThread:
    """A confederation is driven from the caller's thread: the store's
    sqlite connection, the hook bus and the shared conflict graph take
    no lock of their own because nothing ever starts a second one."""

    @pytest.mark.parametrize("store", ["memory", "central", "durable", "dht"])
    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_every_event_comes_from_the_callers_thread(self, mode, store):
        caller, alive = threading.get_ident(), threading.active_count()
        seen = []
        hooks = HookBus()
        for event in ("publish", "decision", "reconcile"):
            hooks.subscribe(event, lambda event=event, **_: seen.append(
                (event, threading.get_ident(), threading.active_count())
            ))
        options = {"hosts": 4} if store == "dht" else {}
        config = _config(schedule_mode=mode, store=store, store_options=options)
        with Confederation(config, hooks=hooks) as confed:
            confed.run()
        assert {event for event, *_ in seen} == {"publish", "decision", "reconcile"}
        assert {(ident, count) for _event, ident, count in seen} == {(caller, alive)}

    def test_the_central_store_connection_refuses_other_threads(self):
        # With no lock of its own around the connection, sqlite's
        # thread-affinity check is what stops a second thread using it.
        with Confederation(_config(store="central")) as confed:
            confed.run()
            errors = []

            def touch():
                try:
                    confed.store.current_epoch()
                except sqlite3.ProgrammingError as error:
                    errors.append(error)

            worker = threading.Thread(target=touch)
            worker.start()
            worker.join()
            assert len(errors) == 1 and "thread" in str(errors[0])
            assert confed.store.current_epoch() > 0  # the owner still can


class Segment(NamedTuple):
    """One participant's synchronous segment, as the async driver ran it."""

    name: str
    participant: int
    start: float
    end: float
    charged: float  # the latency the store charged inside it


def _timeline(monkeypatch):
    """Run four peers on a real-latency ``memory`` store under the async
    scheduler, participant 4 the farthest from it, recording every
    segment (from the round plan's work) and every epoch end in the
    order they ran; plus the clock the run paid through and the latency
    the store charged during ``run()``."""
    config = _config(
        schedule_mode="async",
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

class RecordingBlockingClock(BlockingLatencyClock):
    """Pays like the default clock and logs each payment in ``events``."""

    def __init__(self, events):
        self.events = events

    def pay(self, seconds):
        self.events.append(("pay", seconds))
        super().pay(seconds)


class RecordingAsyncClock(AsyncLatencyClock):
    """An async clock that logs every segment as ``(key, start, due)``:
    the loop time its work started and the time it left its key due."""

    instances = []

    def __init__(self):
        super().__init__()
        self.segments = []
        RecordingAsyncClock.instances.append(self)

    async def segment(self, key, work, *args):
        loop, started = asyncio.get_running_loop(), []

        def timed(*inner):
            started.append(loop.time())
            return work(*inner)

        await super().segment(key, timed, *args)
        self.segments.append((key, started[0], self._due[key]))


def _waves(segments):
    """The longest chain of segments each starting once the previous
    one's latency was paid: how many round trips the pass waited out."""
    depth = []
    for _key, start, _due in segments:
        depth.append(1 + max(
            (d for d, (_k, _s, due) in zip(depth, segments) if due <= start),
            default=0,
        ))
    return max(depth)


class TestRegistration:
    """``open()`` registers the peers through the schedule's driver:
    under ``async`` each registration is one clock segment, so the pass
    pays about one round trip; ``serial`` pays one after another.  Nothing asserted here reads elapsed wall time."""

    PEERS = tuple(range(1, 9))
    LATENCY = 0.02  # per message; a registration is one round trip

    def _open(self, monkeypatch, mode, fail_at=None):
        """Open 8 peers on a real-latency ``memory`` store; returns the
        store, its event log and the async clocks the pass used."""
        monkeypatch.setattr(RecordingAsyncClock, "instances", [])
        monkeypatch.setattr(scheduler_module, "AsyncLatencyClock", RecordingAsyncClock)
        store = MemoryUpdateStore(
            curated_schema(), message_latency=self.LATENCY, real_latency=True
        )
        events = []
        store.clock = RecordingBlockingClock(events)
        register = store.register_participant

        def logged(participant, policy):
            if participant == fail_at:
                raise StoreError(f"participant {participant} refused")
            register(participant, policy)
            events.append(("register", participant))

        store.register_participant = logged
        config = _config(peers=self.PEERS, schedule_mode=mode)
        Confederation(config, store=store).open()
        return store, events, RecordingAsyncClock.instances

    def test_async_pays_one_round_trip(self, monkeypatch):
        store, events, [clock] = self._open(monkeypatch, "async")
        assert [key for key, *_ in clock.segments] == list(self.PEERS)
        assert _waves(clock.segments) == 1
        assert clock.total_paid == pytest.approx(store.perf.simulated_seconds)
        assert [kind for kind, _ in events] == ["register"] * len(self.PEERS)
        assert isinstance(store.clock, RecordingBlockingClock)  # restored

    def test_serial_pays_each_round_trip_in_turn(self, monkeypatch):
        _store, events, clocks = self._open(monkeypatch, "serial")
        assert clocks == []
        assert events[0::2] == [("register", pid) for pid in self.PEERS]
        assert [kind for kind, _ in events[1::2]] == ["pay"] * len(self.PEERS)
        assert [paid for _, paid in events[1::2]] == pytest.approx(
            [2 * self.LATENCY] * len(self.PEERS)
        )

    def test_store_side_effects_are_the_same_in_every_mode(self, monkeypatch):
        seen = set()
        for mode in ("serial", "async"):
            store, events, _clocks = self._open(monkeypatch, mode)
            seen.add((
                tuple(entry for entry in events if entry[0] == "register"),
                store.perf.messages,
                store.perf.simulated_seconds,
            ))
        assert len(seen) == 1
        [(order, messages, charged)] = seen
        assert order == tuple(("register", pid) for pid in self.PEERS)
        assert messages == 2 * len(self.PEERS)
        assert charged == pytest.approx(2 * self.LATENCY * len(self.PEERS))

    @pytest.mark.parametrize("mode", ["serial", "async"])
    def test_a_failed_registration_raises_raw_after_the_earlier_peers(
        self, monkeypatch, mode
    ):
        with pytest.raises(StoreError) as excinfo:
            self._open(monkeypatch, mode, fail_at=5)
        assert not isinstance(excinfo.value, SchedulerError)
        assert "participant 5 refused" in str(excinfo.value)

    def test_a_failed_registration_leaves_the_earlier_peers_registered(self, monkeypatch):
        store = None

        def capture(self_, *args, **kwargs):
            nonlocal store
            store = self_
            original(self_, *args, **kwargs)

        original = MemoryUpdateStore.__init__
        monkeypatch.setattr(MemoryUpdateStore, "__init__", capture)
        with pytest.raises(StoreError):
            self._open(monkeypatch, "async", fail_at=5)
        for pid in (1, 2, 3, 4):
            assert store.last_reconciliation_epoch(pid) == 0
        with pytest.raises(StoreError):
            store.last_reconciliation_epoch(5)
        assert isinstance(store.clock, RecordingBlockingClock)

    def test_open_inside_a_running_event_loop_registers_in_turn(self, monkeypatch):
        async def inside():
            return self._open(monkeypatch, "async")

        _store, events, clocks = asyncio.run(inside())
        assert clocks == []
        assert events[0::2] == [("register", pid) for pid in self.PEERS]
        assert [kind for kind, _ in events[1::2]] == ["pay"] * len(self.PEERS)

    def test_add_mutually_trusting_participants_uses_the_same_pass(self, monkeypatch):
        monkeypatch.setattr(RecordingAsyncClock, "instances", [])
        monkeypatch.setattr(scheduler_module, "AsyncLatencyClock", RecordingAsyncClock)
        config = _config(
            peers=(),
            schedule_mode="async",
            store_options={"message_latency": self.LATENCY, "real_latency": True},
        )
        with Confederation(config) as confed:
            added = confed.add_mutually_trusting_participants([3, 1, 2])
            assert [p.id for p in added] == [3, 1, 2]
        clock = RecordingAsyncClock.instances[-1]  # open() had no peers
        assert [key for key, *_ in clock.segments] == [3, 1, 2]
        assert _waves(clock.segments) == 1


class TestFailFast:
    """The async driver stops at the first failure in store order."""

    def test_edit_phase_failure_aborts_before_the_publish_barrier(self):
        # A failed edit must stop the round before participant 3 would
        # publish — a half-edited round leaking through the barrier
        # would feed every peer inconsistent epochs — and the raised
        # error must name the failing participant.  The barrier stops
        # at 3, after the lower ids published (as after a failed
        # publish).
        with Confederation(_config(schedule_mode="async")) as confed:
            broken = confed.participant(3)

            def explode(updates):
                raise RuntimeError("disk on fire")

            broken.execute = explode
            with pytest.raises(
                SchedulerError, match="edit phase failed for participant 3"
            ) as excinfo:
                confed.run()
            assert isinstance(excinfo.value.__cause__, RuntimeError)
            assert confed.store.current_epoch() == 2
            assert confed.report().transactions_published == 0

    def test_a_round_two_edit_failure_stops_that_round(self):
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
            with Confederation(_config(schedule_mode="async"), hooks=hooks) as confed:
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
        # The lower ids' round-2 epochs stay published; no reconcile or
        # epoch end of round 2 ran.
        assert events == round_one + [("publish", 1, None), ("publish", 2, None)]
        again, second = run()
        assert again == events and str(second) == str(error)

    def test_publish_barrier_failure_is_wrapped_and_stops_the_round(self):
        # A store error during the barrier is raised wrapped, with the
        # cause chained.
        reconciled = []
        hooks = HookBus()
        hooks.on_reconcile(lambda **kw: reconciled.append(kw["participant"]))
        with Confederation(_config(schedule_mode="async"), hooks=hooks) as confed:
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

    def test_reconcile_phase_failure_names_the_participant(self):
        with Confederation(_config(schedule_mode="async")) as confed:
            broken = confed.participant(2)

            def explode():
                raise RuntimeError("session crashed")

            broken.reconcile = explode
            with pytest.raises(
                SchedulerError,
                match="reconcile phase failed for participant 2",
            ):
                confed.run()


@pytest.mark.parametrize("phase", ["execute", "publish", "reconcile"])
def test_serial_raises_a_phase_failure_raw(phase):
    # The serial schedule adds no wrapping: the participant's own error
    # reaches the caller unchanged, and the participants after it in the
    # round never publish.
    published = []
    hooks = HookBus()
    hooks.on_publish(lambda **kw: published.append(kw["participant"]))
    with Confederation(_config(schedule_mode="serial"), hooks=hooks) as confed:
        broken = confed.participant(2)

        def explode(*args):
            raise RuntimeError(f"{phase} on fire")

        setattr(broken, phase, explode)
        with pytest.raises(RuntimeError, match=f"{phase} on fire") as excinfo:
            confed.run()
        assert not isinstance(excinfo.value, SchedulerError)
        assert published == ([1, 2] if phase == "reconcile" else [1])


class TestEpochEndHook:
    def test_epoch_end_emitted_per_schedule_step(self):
        for mode in ("serial", "async"):
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
        from repro.instance import Instance
        from repro.workload import curated_schema

        schema = curated_schema()
        reconciler = Reconciler(schema, Instance(schema), ParticipantState(7))
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
        from repro.instance import Instance
        from repro.model import Insert, Transaction, TransactionId
        from repro.workload import curated_schema

        schema = curated_schema()
        state = ParticipantState(7)
        reconciler = Reconciler(schema, Instance(schema), state)
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
