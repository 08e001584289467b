"""The pluggable epoch schedulers and the session/transport split."""

from __future__ import annotations

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


@pytest.mark.parametrize("mode", ["threaded", "async"])
class TestFailFast:
    def test_edit_phase_failure_aborts_before_the_publish_barrier(self, mode):
        # A worker exception in the parallel edit phase must abort the
        # round before anything publishes — a half-edited round leaking
        # through the barrier would feed every peer inconsistent epochs
        # — and the raised error must name the failing participant.
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
            # Nothing published: the barrier never ran.
            assert confed.store.current_epoch() == 0
            assert confed.report().transactions_published == 0

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
