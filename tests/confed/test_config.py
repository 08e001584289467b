"""ConfederationConfig: round-trip, validation, and error behaviour."""

from __future__ import annotations

import json

import pytest

from repro.confed import Confederation, ConfederationConfig
from repro.errors import ConfigError
from repro.net import FaultPlan, HostCrash, MessageFault, ParticipantRestart
from repro.workload import WorkloadConfig


class TestRoundTrip:
    def test_default_config_round_trips(self):
        cfg = ConfederationConfig()
        assert ConfederationConfig.from_dict(cfg.to_dict()) == cfg

    def test_full_config_round_trips(self):
        cfg = ConfederationConfig(
            store="central",
            store_options={"cache_size": 8},
            peers=(1, 2, 5),
            trust={1: {2: 3, 5: 1}, 2: {1: 1}},
            network_centric="store",
            workload=WorkloadConfig(transaction_size=3, seed=9),
            reconciliation_interval=7,
            rounds=2,
            final_reconcile=True,
        )
        assert ConfederationConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_survives_json(self):
        cfg = ConfederationConfig(
            peers=(1, 2, 3),
            trust={1: {2: 1}, 2: {1: 2}, 3: {1: 1, 2: 1}},
            workload=WorkloadConfig(seed=3),
        )
        wire = json.loads(json.dumps(cfg.to_dict()))
        assert ConfederationConfig.from_dict(wire) == cfg

    def test_peers_normalised_to_tuple(self):
        assert ConfederationConfig(peers=[3, 1]).peers == (3, 1)

    @pytest.mark.parametrize("mode", ["client", "store"])
    def test_network_centric_mode_round_trips_exactly(self, mode):
        cfg = ConfederationConfig(network_centric=mode).validate()
        wire = json.loads(json.dumps(cfg.to_dict()))
        assert wire["network_centric"] == mode
        restored = ConfederationConfig.from_dict(wire)
        assert restored == cfg
        assert restored.network_centric == mode

    def test_network_centric_store_helper(self):
        assert ConfederationConfig(network_centric="store").network_centric_store
        assert not ConfederationConfig(network_centric="client").network_centric_store
        assert not ConfederationConfig().network_centric_store

    def test_the_dict_form_is_pinned(self):
        # The file format, written out: the codec must never move it.
        cfg = ConfederationConfig(
            store="dht",
            store_options={"hosts": 4, "replication_factor": 2},
            peers=(1, 2),
            trust={1: {2: 3}, 2: {1: 1}},
            workload=WorkloadConfig(transaction_size=2, seed=5),
            faults=FaultPlan(
                seed=7,
                crashes=(
                    HostCrash("host:1", at_epoch=3, recover_at_epoch=6),
                    HostCrash("host:2", at_epoch=4),
                ),
                messages=(MessageFault("txn_data", "delay", probability=0.5, times=2),),
                restarts=(ParticipantRestart(participant=2, at_epoch=5),),
            ),
        )
        pinned = {
            "store": "dht",
            "store_options": {"hosts": 4, "replication_factor": 2},
            "peers": [1, 2],
            "trust": {"1": {"2": 3}, "2": {"1": 1}},
            "network_centric": "client",
            "workload": {
                "transaction_size": 2,
                "insert_fraction": 0.6,
                "xref_mean": 7.3,
                "zipf_s": 1.5,
                "organisms": 12,
                "proteins_per_organism": 400,
                "functions": 400,
                "seed": 5,
            },
            "reconciliation_interval": 4,
            "rounds": 4,
            "final_reconcile": False,
            "schedule_mode": "serial",
            "faults": {
                "seed": 7,
                "crashes": [
                    {"host": "host:1", "at_epoch": 3, "recover_at_epoch": 6},
                    {"host": "host:2", "at_epoch": 4, "recover_at_epoch": None},
                ],
                "messages": [
                    {
                        "kind": "txn_data",
                        "action": "delay",
                        "probability": 0.5,
                        "times": 2,
                        "delay_factor": 4.0,
                    }
                ],
                "restarts": [{"participant": 2, "at_epoch": 5}],
            },
        }
        assert cfg.to_dict() == pinned
        assert json.dumps(cfg.to_dict()) == json.dumps(pinned)  # key order too
        assert ConfederationConfig.from_dict(json.loads(json.dumps(pinned))) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ConfederationConfig.from_dict({"stoer": "memory"})

    def test_unknown_workload_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload keys"):
            ConfederationConfig.from_dict({"workload": {"sede": 1}})


class TestValidation:
    def test_duplicate_peers_rejected(self):
        with pytest.raises(ConfigError, match="duplicate peer"):
            ConfederationConfig(peers=(1, 1, 2)).validate()

    def test_trust_must_reference_known_peers(self):
        with pytest.raises(ConfigError, match="unknown peers"):
            ConfederationConfig(peers=(1, 2), trust={1: {9: 1}}).validate()

    def test_unknown_network_centric_mode_rejected(self):
        with pytest.raises(ConfigError, match="network_centric"):
            ConfederationConfig(network_centric="controller").validate()

    @pytest.mark.parametrize("legacy, replacement", [(True, "store"), (False, "client")])
    def test_boolean_network_centric_is_refused_by_name(self, legacy, replacement):
        # An old JSON config file is outside input: the boolean
        # spellings are gone, and must be refused naming the
        # replacement — never coerced, never silently client-centric.
        wire = json.loads(json.dumps({"network_centric": legacy}))
        for cfg in (
            ConfederationConfig(network_centric=legacy),
            ConfederationConfig.from_dict(wire),
            ConfederationConfig(network_centric=int(legacy)),
        ):
            with pytest.raises(
                ConfigError, match=f"'{replacement}' .*was {legacy}"
            ):
                cfg.validate()
            with pytest.raises(ConfigError, match="network_centric"):
                Confederation(cfg)

    def test_network_centric_modes_constant_is_what_validate_accepts(self):
        # NETWORK_CENTRIC_MODES is the public accepted-values list
        # (config UIs iterate it); validate() consults the same tuple,
        # so the two can never drift apart.
        from repro.confed import NETWORK_CENTRIC_MODES

        assert NETWORK_CENTRIC_MODES == ("client", "store")
        for mode in NETWORK_CENTRIC_MODES:
            assert (
                ConfederationConfig(network_centric=mode).validate()
                .network_centric
                == mode
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("final_reconcile", "no"),  # truthy: would run the final reconcile
            ("final_reconcile", 1),
            ("final_reconcile", None),
            ("rounds", 1.5),
            ("rounds", True),
            ("rounds", "3"),
            ("rounds", None),
            ("rounds", -1),
            ("reconciliation_interval", 2.5),
            ("reconciliation_interval", True),
            ("reconciliation_interval", "2"),
            ("reconciliation_interval", -1),
            ("peers", None),
            ("peers", ["a"]),
            ("peers", "12"),  # a string is iterable: would become peers 1 and 2
            ("peers", [1.5]),
            ("peers", [True]),
            ("peers", 5),
            ("peers", [1, 1]),
            ("trust", {"x": {"1": 1}}),
            ("trust", {"1": 5}),
            ("trust", {"1": {"2": "high"}}),
            ("trust", []),
            ("store_options", None),
            ("store_options", []),  # would become {} under dict()
            ("store_options", [["cache_size", 8]]),
            ("store", 5),
            ("store", None),
            ("workload", 5),
            ("faults", "none"),
            ("faults", []),
        ],
    )
    def test_malformed_value_is_a_config_error_naming_its_field(self, field, value):
        # A config file is outside input: a value of the wrong shape is
        # refused up front, never coerced and never left to fail mid-run.
        wire = json.loads(json.dumps({field: value}))
        with pytest.raises(ConfigError, match=field):
            ConfederationConfig.from_dict(wire).validate()

    @pytest.mark.parametrize(
        "case, path",
        [
            ({"workload": {"transaction_size": "3"}}, "workload.transaction_size"),
            ({"workload": {"transaction_size": 0}}, "workload.*transaction_size"),
            ({"workload": {"seed": "x"}}, "workload.seed"),
            ({"faults": {"seed": "x"}}, "faults.seed"),
            ({"faults": {"crashes": [5]}}, r"faults.crashes\[0\]"),
            (
                {"faults": {"crashes": [{"host": "h", "at_epoch": "5"}]}},
                r"faults.crashes\[0\].at_epoch",
            ),
            (
                {"faults": {"messages": [{"kind": "x", "probability": "1"}]}},
                r"faults.messages\[0\].probability",
            ),
            (
                {"faults": {"restarts": [{"participant": 1, "at_epoch": None}]}},
                r"faults.restarts\[0\].at_epoch",
            ),
            ({"faults": {"crashes": "abc"}}, "faults.crashes must be"),
            ({"faults": {"crashes": [{"host": "h"}]}}, r"faults.crashes\[0\].*at_epoch"),
        ],
    )
    def test_a_malformed_nested_value_is_a_config_error_naming_its_path(self, case, path):
        wire = json.loads(json.dumps(case))
        with pytest.raises(ConfigError, match=path):
            ConfederationConfig.from_dict(wire).validate()

    @pytest.mark.parametrize("wire", [[], "peers", None])
    def test_a_config_that_is_not_a_mapping_is_refused(self, wire):
        # An empty list once loaded as the default config.
        with pytest.raises(ConfigError, match="must be a mapping"):
            ConfederationConfig.from_dict(wire)

    def test_an_int_stands_for_a_float(self):
        # JSON writes 1.0 as 1: an int where a float is declared loads.
        wire = {"faults": {"messages": [{"kind": "txn_data", "probability": 1}]}}
        cfg = ConfederationConfig.from_dict(wire).validate()
        assert cfg.faults.messages[0].probability == 1

    def test_a_constructed_config_is_type_checked_too(self):
        cfg = ConfederationConfig(workload=WorkloadConfig(seed="x"))
        with pytest.raises(ConfigError, match="workload.seed must be int"):
            cfg.validate()

    def test_unknown_store_backend_fails_at_open(self):
        config = ConfederationConfig(store="cassandra")
        with pytest.raises(ConfigError, match="unknown store backend"):
            Confederation(config).open()

    def test_validation_happens_at_construction(self):
        with pytest.raises(ConfigError):
            Confederation(ConfederationConfig(peers=(1, 1)))


class TestEvaluationShape:
    def test_evaluation_builds_peer_range(self):
        cfg = ConfederationConfig.evaluation(4)
        assert cfg.peers == (1, 2, 3, 4)

    def test_evaluation_forwards_overrides(self):
        cfg = ConfederationConfig.evaluation(2, store="central", rounds=9)
        assert cfg.store == "central"
        assert cfg.rounds == 9
