"""Confederation-side fault wiring (PR 6).

The simnet injector executes message faults; everything lifecycle-shaped
— crashes, recoveries, restarts — is owned by
:class:`~repro.confed.faults.FaultController`, which the confederation
ticks between schedule steps.  These tests pin the wiring: the config
carries (and round-trips) the plan, ``open()`` refuses plans the store
cannot suffer, the controller fires in epoch/declaration order, and the
``fault``/``retry``/``recovery`` events land in ``report().faults``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.confed import Confederation, ConfederationConfig, FaultController
from repro.confed.hooks import HookBus
from repro.errors import ConfigError
from repro.metrics import FaultCollector
from repro.net import FaultPlan, HostCrash, MessageFault, Network, ParticipantRestart
from repro.store import MemoryUpdateStore
from repro.workload import WorkloadConfig, curated_schema


def plan_with_everything():
    return FaultPlan(
        seed=3,
        crashes=(HostCrash("host:1", at_epoch=3, recover_at_epoch=6),),
        messages=(MessageFault("txn_data", "drop", probability=0.1, times=2),),
        restarts=(ParticipantRestart(participant=2, at_epoch=5),),
    )


class TestConfigCarriesThePlan:
    def test_faults_round_trip_through_json(self):
        cfg = ConfederationConfig(
            peers=(1, 2), faults=plan_with_everything()
        )
        wire = json.loads(json.dumps(cfg.to_dict()))
        restored = ConfederationConfig.from_dict(wire)
        assert restored == cfg
        assert restored.faults == plan_with_everything()

    def test_no_plan_serialises_as_none(self):
        assert ConfederationConfig().to_dict()["faults"] is None
        assert ConfederationConfig.from_dict({"faults": None}).faults is None

    def test_validate_rejects_unknown_restart_participant(self):
        cfg = ConfederationConfig(
            peers=(1, 2),
            faults=FaultPlan(
                restarts=(ParticipantRestart(participant=9, at_epoch=2),)
            ),
        )
        with pytest.raises(ConfigError, match="participant 9"):
            cfg.validate()

    def test_validate_propagates_plan_errors(self):
        cfg = ConfederationConfig(
            faults=FaultPlan(
                messages=(MessageFault("txn_data", probability=2.0),)
            )
        )
        with pytest.raises(ConfigError, match="probability"):
            cfg.validate()


class TestOpenRefusesImpossiblePlans:
    def test_message_faults_need_a_networked_store(self):
        cfg = ConfederationConfig(
            store="memory",
            peers=(1, 2),
            faults=FaultPlan(messages=(MessageFault("txn_data"),)),
        )
        with pytest.raises(ConfigError, match="simulated network"):
            Confederation(cfg).open()

    def test_crashes_need_the_fail_host_surface(self):
        cfg = ConfederationConfig(
            store="central",
            peers=(1, 2),
            faults=FaultPlan(crashes=(HostCrash("host:1", at_epoch=1),)),
        )
        with pytest.raises(ConfigError, match="fail_host"):
            Confederation(cfg).open()

    def test_message_faults_must_name_a_kind_the_store_carries(self):
        # A misnamed kind matches nothing, so the plan would pass as a
        # silent no-op ("epoch_is" sat in three chaos plans that way; the
        # allocator's reply is ``begin_publishing``).
        cfg = ConfederationConfig(
            store="dht",
            peers=(1, 2),
            faults=FaultPlan(messages=(MessageFault("txn_store", "duplicate"),)),
        )
        with pytest.raises(ConfigError, match="'txn_store' .* txn_stored"):
            Confederation(cfg).open()

    def test_host_crashes_must_name_a_host_the_store_has(self):
        # On the parent this opened cleanly and failed mid-run with
        # ``StoreError: unknown host 'host:9'``.
        cfg = ConfederationConfig(
            store="dht",
            store_options={"hosts": 4},
            peers=(1, 2),
            faults=FaultPlan(crashes=(HostCrash("host:9", at_epoch=2),)),
        )
        with pytest.raises(ConfigError, match="no host 'host:9'.*close matches: host:"):
            Confederation(cfg).open()

    def test_empty_plan_is_inert_on_any_store(self):
        cfg = ConfederationConfig(
            store="memory", peers=(1, 2), faults=FaultPlan(seed=5)
        )
        with Confederation(cfg) as confed:
            assert confed.report().faults.total_injected == 0


class _HostedMemoryStore(MemoryUpdateStore):
    """A third-party store: not the DHT, but with its host-crash surface."""

    host_names = ("node:a", "node:b")

    def __init__(self, schema):
        super().__init__(schema)
        self.host_calls = []

    def fail_host(self, host):
        self.host_calls.append(("fail", host, self.current_epoch()))

    def recover_host(self, host):
        self.host_calls.append(("recover", host, self.current_epoch()))


class TestDuckTypedFaultSurface:
    """``open()`` and ``report()`` read a store's fault surface by
    capability, so a store that is no DHT qualifies by exposing it."""

    def config(self, faults):
        return ConfederationConfig(
            peers=(1, 2), reconciliation_interval=2, rounds=3,
            workload=WorkloadConfig(transaction_size=1, seed=13), faults=faults,
        )

    def test_a_store_with_the_crash_surface_suffers_the_plans_crashes(self):
        store = _HostedMemoryStore(curated_schema())
        plan = FaultPlan(crashes=(HostCrash("node:b", at_epoch=2, recover_at_epoch=4),))
        with Confederation(self.config(plan), store=store) as confed:
            confed.run()
        assert store.host_calls == [("fail", "node:b", 2), ("recover", "node:b", 4)]

    def test_its_host_names_refuse_a_host_it_lacks(self):
        store = _HostedMemoryStore(curated_schema())
        plan = FaultPlan(crashes=(HostCrash("node:c", at_epoch=2),))
        with pytest.raises(ConfigError, match="no host 'node:c'.*close matches: node:"):
            Confederation(self.config(plan), store=store).open()

    def test_a_networked_store_that_names_its_kinds_refuses_one_it_lacks(self):
        store = MemoryUpdateStore(curated_schema())
        store.network = Network(latency=store.message_latency)
        store.message_kinds = ("txn_data", "txn_stored")
        plan = FaultPlan(messages=(MessageFault("txn_dta", "drop"),))
        with pytest.raises(ConfigError, match="'txn_dta' .* txn_data"):
            Confederation(self.config(plan), store=store).open()

    def test_report_reads_the_protocol_mix_off_any_store_network(self):
        store = MemoryUpdateStore(curated_schema())
        store.network = Network(latency=store.message_latency)
        store.network.kind_counts.update({"txn_data": 3})
        store.network.kind_bytes.update({"txn_data": 120})
        with Confederation(self.config(None), store=store) as confed:
            report = confed.report()
        assert (report.kind_counts, report.kind_bytes) == ({"txn_data": 3}, {"txn_data": 120})


class _StubStore:
    def __init__(self):
        self.epoch = 0
        self.calls = []

    def current_epoch(self):
        return self.epoch

    def fail_host(self, host):
        self.calls.append(("fail", host))

    def recover_host(self, host):
        self.calls.append(("recover", host))


class _StubConfederation:
    def __init__(self):
        self.store = _StubStore()
        self.hooks = HookBus()
        self.restored = []

    def restore(self, participant):
        self.restored.append(participant)


class TestFaultController:
    def test_pending_is_sorted_by_epoch_then_declaration(self):
        controller = FaultController(plan_with_everything())
        assert controller.pending == (
            (3, "crash", "host:1"),
            (5, "restart", 2),
            (6, "recover", "host:1"),
        )

    def test_tick_fires_only_reached_epochs(self):
        confed = _StubConfederation()
        controller = FaultController(plan_with_everything())
        controller.tick(confed)  # epoch 0: nothing due
        assert confed.store.calls == []
        confed.store.epoch = 5
        controller.tick(confed)
        assert confed.store.calls == [("fail", "host:1")]
        assert confed.restored == [2]
        assert controller.pending == ((6, "recover", "host:1"),)
        confed.store.epoch = 6
        controller.tick(confed)
        assert confed.store.calls[-1] == ("recover", "host:1")
        assert controller.pending == ()

    def test_restart_emits_a_recovery_event(self):
        confed = _StubConfederation()
        collector = FaultCollector().attach(confed.hooks)
        confed.store.epoch = 5
        FaultController(
            FaultPlan(restarts=(ParticipantRestart(2, at_epoch=1),))
        ).tick(confed)
        assert collector.summary.recoveries == 1
        assert collector.events == [
            ("recovery", {"kind": "participant", "participant": 2})
        ]


class TestReportSurface:
    def run_report(self, faults):
        cfg = ConfederationConfig(
            store="dht",
            store_options={"hosts": 4, "replication_factor": 2},
            peers=(1, 2, 3),
            reconciliation_interval=2,
            rounds=2,
            workload=WorkloadConfig(transaction_size=1, seed=13),
            faults=faults,
        )
        with Confederation(cfg) as confed:
            confed.run()
            return confed.report()

    def test_report_counts_injections_and_recoveries(self):
        report = self.run_report(
            FaultPlan(
                seed=2,
                crashes=(HostCrash("host:1", at_epoch=2, recover_at_epoch=4),),
            )
        )
        assert report.faults.injected == {"crash": 1}
        assert report.faults.recoveries == 1
        assert report.faults.total_injected == 1

    def test_report_snapshot_is_independent(self):
        report = self.run_report(FaultPlan(seed=2))
        report.faults.injected["crash"] = 99
        assert self.run_report(FaultPlan(seed=2)).faults.injected == {}


@pytest.mark.parametrize("mode", ["serial", "async"])
def test_a_delay_fault_is_simulated_time_never_a_sleep(mode, monkeypatch):
    """A delay fault adds ``delay_factor`` latencies to the simulated
    seconds and nothing else; any wall time is the store's latency
    clock's to pay, so a run without real latency never sleeps."""

    def sleeping(seconds):
        raise AssertionError(f"slept {seconds} s outside a latency clock")

    def run(faults):
        cfg = ConfederationConfig(
            store="dht", store_options={"hosts": 4}, peers=(1, 2, 3),
            reconciliation_interval=2, rounds=2, schedule_mode=mode,
            workload=WorkloadConfig(transaction_size=1, seed=13), faults=faults,
        )
        with Confederation(cfg) as confed:
            report = confed.run()
            return report, confed.store.perf, confed.store.message_latency

    monkeypatch.setattr(time, "sleep", sleeping)
    _, clean, _ = run(None)
    report, delayed, latency = run(
        FaultPlan(seed=1, messages=(MessageFault("txn_data", "delay", times=3),))
    )
    assert report.faults.injected == {"delay": 3}
    assert delayed.messages == clean.messages
    assert delayed.simulated_seconds == pytest.approx(
        clean.simulated_seconds + 3 * 4.0 * latency
    )
