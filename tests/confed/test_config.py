"""ConfederationConfig: round-trip, validation, and error behaviour."""

from __future__ import annotations

import json

import pytest

from repro.confed import Confederation, ConfederationConfig
from repro.errors import ConfigError
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
