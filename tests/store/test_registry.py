"""The store driver registry: lookup, capabilities, duplicate rejection."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.store import (
    CentralUpdateStore,
    DhtUpdateStore,
    MemoryUpdateStore,
    StoreCapabilities,
    available_stores,
    create_store,
    register_store,
    store_capabilities,
    store_driver,
    unregister_store,
)
from repro.workload import curated_schema


class TestBuiltinDrivers:
    def test_builtins_registered(self):
        assert {"memory", "central", "dht"} <= set(available_stores())

    def test_create_by_name(self):
        schema = curated_schema()
        assert isinstance(create_store("memory", schema), MemoryUpdateStore)
        assert isinstance(create_store("central", schema), CentralUpdateStore)
        assert isinstance(create_store("dht", schema), DhtUpdateStore)

    def test_factory_options_forwarded(self):
        store = create_store("dht", curated_schema(), hosts=7)
        assert len(store._hosts) == 7

    def test_unknown_backend_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown store backend"):
            store_driver("cassandra")
        with pytest.raises(ConfigError, match="available"):
            create_store("cassandra", curated_schema())


class TestCapabilityFlags:
    def test_network_centric_stores_ship_context_free(self):
        for name in ("memory", "central"):
            caps = store_capabilities(name)
            assert caps.ships_context_free
            assert caps.shared_pair_memo
            assert caps.network_centric_batches

    def test_dht_flags_are_honest(self):
        # Since PR 3 the DHT derives context-free extensions at publish
        # and ships them on fetch, with the shared pair memo; since PR 5
        # it assembles fully network-centric batches over the ring too.
        caps = store_capabilities("dht")
        assert caps.ships_context_free
        assert caps.shared_pair_memo
        assert caps.network_centric_batches

    def test_dht_shipping_opt_out_downgrades_instance_flags(self):
        # ship_context_free=False restores the paper's client-compute-only
        # store; the instance's flags must honestly say so.
        store = create_store(
            "dht", curated_schema(), hosts=2, ship_context_free=False
        )
        assert not store.capabilities.ships_context_free
        assert not store.capabilities.shared_pair_memo

    def test_only_central_is_durable(self):
        assert store_capabilities("central").durable
        assert not store_capabilities("memory").durable
        assert not store_capabilities("dht").durable

    def test_central_and_durable_differ_only_in_a_default(self):
        # One sqlite store under two cost models: the durable class
        # defines no method at all, it only zeroes the JDBC overhead.
        from repro.store import DurableUpdateStore

        assert not [n for n, v in vars(DurableUpdateStore).items() if callable(v)]
        schema = curated_schema()
        assert create_store("central", schema)._call_overhead == 0.025
        assert create_store("durable", schema)._call_overhead == 0.0
        tuned = create_store("durable", schema, call_overhead_seconds=0.5)
        assert tuned._call_overhead == 0.5

    def test_the_batch_read_path_is_written_once(self):
        # One begin_reconciliation for every direct log: the logs only
        # supply storage and the accessors the shared method reads.
        from repro.store import CentralUpdateStore
        from repro.store.network_centric import DirectLogStore

        assert "begin_reconciliation" in vars(DirectLogStore)
        for log in (MemoryUpdateStore, CentralUpdateStore):
            assert "begin_reconciliation" not in vars(log)
            assert "begin_network_reconciliation" not in vars(log)

    def test_direct_log_accessors_are_abstract(self):
        from repro.store.network_centric import DirectLogStore

        for accessor in ("_nc_lookup", "_nc_advance", "_nc_candidates"):
            incomplete = type(
                "Incomplete",
                (MemoryUpdateStore,),
                {accessor: getattr(DirectLogStore, accessor)},
            )
            with pytest.raises(TypeError, match=accessor):
                incomplete(curated_schema())

    def test_instances_carry_their_flags(self):
        # The registry's flags and the class's flags are the same object
        # of truth — batch.capabilities comes from the instance.
        schema = curated_schema()
        for name in ("memory", "central", "dht"):
            store = create_store(name, schema)
            assert store.capabilities == store_capabilities(name)

    def test_unshipping_dht_batches_ship_nothing(self):
        from repro.policy import TrustPolicy

        store = create_store(
            "dht", curated_schema(), hosts=2, ship_context_free=False
        )
        store.register_participant(1, TrustPolicy().trust_all(1))
        batch = store.begin_reconciliation(1)
        assert batch.extensions is None
        assert batch.pair_cache is None


class TestCapabilityRouting:
    """The engine adopts shipped payloads via flags, not store types."""

    def _one_published_transaction(self, store):
        from repro.model import Insert
        from repro.model.transactions import Transaction, TransactionId
        from repro.policy import TrustPolicy

        store.register_participant(1, TrustPolicy().trust_all(1))
        store.register_participant(2, TrustPolicy().trust_all(1))
        transaction = Transaction(
            TransactionId(1, 0), (Insert("F", ("rat", "p1", "x"), 1),)
        )
        store.publish(1, [transaction])
        return store.begin_reconciliation(2)

    def test_declaring_stores_ship(self):
        batch = self._one_published_transaction(
            create_store("memory", curated_schema())
        )
        assert batch.extensions is not None
        assert batch.pair_cache is not None

    def test_undeclared_capability_stops_store_side_shipping(self):
        class NoShipStore(MemoryUpdateStore):
            capabilities = StoreCapabilities(
                ships_context_free=False,
                shared_pair_memo=False,
                network_centric_batches=True,
            )

        batch = self._one_published_transaction(NoShipStore(curated_schema()))
        assert batch.extensions is None
        assert batch.pair_cache is None

    def test_pair_memo_ships_independently_of_extensions(self):
        class MemoOnlyStore(MemoryUpdateStore):
            capabilities = StoreCapabilities(
                ships_context_free=False,
                shared_pair_memo=True,
                network_centric_batches=True,
            )

        batch = self._one_published_transaction(MemoOnlyStore(curated_schema()))
        assert batch.extensions is None
        assert batch.pair_cache is not None

    def test_engine_ignores_shipped_payloads_without_the_flag(self):
        from repro.core.engine import Reconciler
        from repro.core.state import ParticipantState
        from repro.instance.memory import MemoryInstance

        schema = curated_schema()
        batch = self._one_published_transaction(create_store("memory", schema))
        assert batch.extensions  # the store did ship
        # A dishonest/legacy wire: payloads present but the declared
        # capabilities deny them — the engine must recompute locally.
        batch.capabilities = StoreCapabilities(
            ships_context_free=False, shared_pair_memo=False
        )
        reconciler = Reconciler(
            schema, MemoryInstance(schema), ParticipantState(2)
        )
        result = reconciler.reconcile(batch)
        assert [str(t) for t in result.accepted] == ["X1:0"]
        assert reconciler.cache.stats.shipped == 0


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_store(
                "memory",
                lambda schema, **_: MemoryUpdateStore(schema),
                StoreCapabilities(),
            )

    def test_replace_allows_override_and_unregister_removes(self):
        try:
            register_store(
                "memory-test-double",
                lambda schema, **_: MemoryUpdateStore(schema),
                StoreCapabilities(durable=True),
            )
            assert "memory-test-double" in available_stores()
            register_store(
                "memory-test-double",
                lambda schema, **_: MemoryUpdateStore(schema),
                StoreCapabilities(),
                replace=True,
            )
            assert not store_capabilities("memory-test-double").durable
        finally:
            unregister_store("memory-test-double")
        assert "memory-test-double" not in available_stores()

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigError, match="non-empty string"):
            register_store(
                "", lambda schema, **_: MemoryUpdateStore(schema), StoreCapabilities()
            )
