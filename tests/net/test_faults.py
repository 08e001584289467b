"""The declarative fault plan and its deterministic injector (PR 6)."""

from __future__ import annotations

import json

import pytest

from repro.confed import ConfederationConfig
from repro.errors import ConfigError
from repro.net import (
    FaultInjector,
    FaultPlan,
    HostCrash,
    MessageFault,
    Network,
    Node,
    ParticipantRestart,
)


class SinkNode(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle(self, network, message):
        self.received.append(message)


def make_net(injector=None):
    net = Network(latency=0.001)
    a, b = SinkNode("a"), SinkNode("b")
    net.add_node(a)
    net.add_node(b)
    net.injector = injector
    return net, a, b


class TestFaultPlanRoundTrip:
    def plan(self):
        return FaultPlan(
            seed=7,
            crashes=(HostCrash("host:1", at_epoch=3, recover_at_epoch=6),),
            messages=(
                MessageFault("txn_data", "drop", probability=0.25, times=4),
                MessageFault("nc_data", "duplicate", probability=1.0),
                MessageFault(
                    "store_txn", "delay", probability=0.5, delay_factor=8.0
                ),
            ),
            restarts=(ParticipantRestart(participant=2, at_epoch=5),),
        )

    def wire(self):
        return ConfederationConfig(faults=self.plan()).to_dict()

    def test_exact_dict_round_trip(self):
        # The plan's dict form is the config's "faults" entry.
        assert ConfederationConfig.from_dict(self.wire()).faults == self.plan()

    def test_json_detour_is_exact(self):
        data = json.loads(json.dumps(self.wire()))
        assert ConfederationConfig.from_dict(data).faults == self.plan()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown faults keys"):
            ConfederationConfig.from_dict({"faults": {"sede": 1}})
        data = self.wire()
        data["faults"]["crashes"][0]["hots"] = data["faults"]["crashes"][0].pop("host")
        with pytest.raises(ConfigError, match=r"unknown faults\.crashes\[0\] keys \['hots'\]"):
            ConfederationConfig.from_dict(data)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(crashes=(HostCrash("h", at_epoch=0),)).validate()
        with pytest.raises(ConfigError):
            FaultPlan(
                crashes=(HostCrash("h", at_epoch=3, recover_at_epoch=3),)
            ).validate()
        with pytest.raises(ConfigError):
            FaultPlan(messages=(MessageFault("k", "explode"),)).validate()
        with pytest.raises(ConfigError):
            FaultPlan(
                messages=(MessageFault("k", probability=1.5),)
            ).validate()
        with pytest.raises(ConfigError):
            FaultPlan(messages=(MessageFault("k", times=0),)).validate()
        with pytest.raises(ConfigError):
            FaultPlan(
                restarts=(ParticipantRestart(1, at_epoch=0),)
            ).validate()
        assert FaultPlan().validate().is_empty()

    @pytest.mark.parametrize(
        "first, second",
        [((3, 5), (4, 6)), ((3, 8), (5, None)), ((3, 5), (5, 8)), ((6, None), (2, 6))],
        ids=["overlapping", "open-ended", "touching", "out-of-order"],
    )
    def test_crash_windows_of_one_host_that_share_an_epoch_are_refused(self, first, second):
        # Both would fire in plan order: (3, 5) + (4, 6) recovers a host
        # that is up, (3, 8) + (5, None) counts one crash twice.
        crashes = tuple(HostCrash("host:1", *window) for window in (first, second))
        with pytest.raises(ConfigError, match=r"crashes of 'host:1' overlap: windows \[") as info:
            FaultPlan(crashes=crashes).validate()
        assert f"[{first[0]}, " in str(info.value) and f"[{second[0]}, " in str(info.value)

    def test_disjoint_windows_and_other_hosts_are_accepted(self):
        FaultPlan(
            crashes=(
                HostCrash("host:1", 3, 5),
                HostCrash("host:1", 6, None),
                HostCrash("host:2", 4, 7),
            )
        ).validate()


class TestFaultInjector:
    def test_drop_skips_delivery_and_accounting(self):
        plan = FaultPlan(messages=(MessageFault("ping", "drop"),))
        net, a, b = make_net(FaultInjector(plan, latency=0.001))
        net.send("a", "b", "ping")
        net.send("a", "b", "other")
        assert net.run() == 2  # both attempts counted
        assert [m.kind for m in b.received] == ["other"]
        assert net.messages_delivered == 1
        assert net.kind_counts == {"other": 1}
        assert net.injector.counts == {"drop": 1}

    def test_duplicate_delivers_twice_and_is_not_reinjected(self):
        plan = FaultPlan(messages=(MessageFault("ping", "duplicate"),))
        net, a, b = make_net(FaultInjector(plan, latency=0.001))
        net.send("a", "b", "ping")
        net.run()
        assert [m.kind for m in b.received] == ["ping", "ping"]
        assert net.messages_delivered == 2
        assert net.injector.counts == {"duplicate": 1}

    def test_delay_charges_extra_latency_only(self):
        plan = FaultPlan(
            messages=(MessageFault("ping", "delay", delay_factor=10.0),)
        )
        net, a, b = make_net(FaultInjector(plan, latency=0.001))
        net.send("a", "b", "ping")
        net.run()
        assert len(b.received) == 1
        assert net.simulated_seconds == pytest.approx(0.001 + 0.010)

    @pytest.mark.faults_may_not_fire
    def test_a_rule_for_another_kind_injects_nothing(self):
        plan = FaultPlan(messages=(MessageFault("pong", "drop"),))
        net, a, b = make_net(FaultInjector(plan, latency=0.001))
        net.send("a", "b", "ping")
        net.run()
        assert [m.kind for m in b.received] == ["ping"]
        assert net.injector.counts == {}

    def test_times_caps_total_injections(self):
        plan = FaultPlan(messages=(MessageFault("ping", "drop", times=2),))
        net, a, b = make_net(FaultInjector(plan, latency=0.001))
        for _ in range(5):
            net.send("a", "b", "ping")
        net.run()
        assert len(b.received) == 3
        assert net.injector.counts == {"drop": 2}

    def test_seeded_probability_is_deterministic(self):
        def drops(seed):
            plan = FaultPlan(
                seed=seed,
                messages=(MessageFault("ping", "drop", probability=0.5),),
            )
            net, a, b = make_net(FaultInjector(plan, latency=0.001))
            for i in range(32):
                net.send("a", "b", "ping", index=i)
            net.run()
            return [m.payload["index"] for m in b.received]

        assert drops(3) == drops(3)
        assert drops(3) != drops(4)

    def test_emit_callback_sees_each_injection(self):
        events = []
        plan = FaultPlan(messages=(MessageFault("ping", "drop"),))
        injector = FaultInjector(
            plan, latency=0.001, emit=lambda **kw: events.append(kw)
        )
        net, a, b = make_net(injector)
        net.send("a", "b", "ping")
        net.run()
        assert events == [
            {
                "action": "drop",
                "kind": "ping",
                "sender": "a",
                "recipient": "b",
            }
        ]
