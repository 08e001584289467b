"""The store registry: lookup, option checking, duplicate rejection, and
the engine routing on what a batch carries."""

from __future__ import annotations

import pytest

from repro.confed import Confederation, ConfederationConfig
from repro.core.cache import CacheStats
from repro.errors import ConfigError
from repro.store import (
    CentralUpdateStore,
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
    available_stores,
    create_store,
    register_store,
    unregister_store,
)
from repro.store.base import UpdateStore
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
        with pytest.raises(ConfigError, match="unknown store backend.*available"):
            create_store("cassandra", curated_schema())

    @pytest.mark.parametrize(
        "name, options, accepted",
        [
            ("dht", {"host": 4}, "hosts"),
            ("memory", {"path": "x.db"}, "message_latency"),
            ("central", {"call_overhead_seconds": 0.5}, "cache_size"),
        ],
    )
    def test_a_mistyped_option_is_a_config_error(self, name, options, accepted):
        # Like every other config typo: a ConfigError naming the backend
        # and what it does accept, never a raw TypeError from inside it.
        (option,) = options
        with pytest.raises(ConfigError, match=f"'{name}'.*'{option}'.*{accepted}"):
            create_store(name, curated_schema(), **options)
        config = ConfederationConfig(store=name, store_options=options, peers=(1,))
        with pytest.raises(ConfigError, match=f"'{name}'.*'{option}'"):
            Confederation(config).open()

    def test_central_and_durable_differ_only_in_a_constant(self):
        # One sqlite store under two cost models: the durable class
        # defines no method at all, it only zeroes the JDBC overhead.
        assert not [n for n, v in vars(DurableUpdateStore).items() if callable(v)]
        assert CentralUpdateStore.DEFAULT_CALL_OVERHEAD == 0.025
        assert DurableUpdateStore.DEFAULT_CALL_OVERHEAD == 0.0
        from repro.policy import TrustPolicy

        charged = {}
        for name in ("central", "durable"):
            store = create_store(name, curated_schema(), message_latency=0.0)
            store.register_participant(1, TrustPolicy())
            charged[name] = store.perf.simulated_seconds
        assert charged == {"central": 0.025, "durable": 0.0}

    def test_the_batch_read_path_is_written_once(self):
        # One begin_reconciliation for every direct log: the logs only
        # supply storage and the accessors the shared method reads.  A
        # direct log computes no batch, so it derives nothing itself.
        from repro.store.direct_log import DirectLogStore

        assert "begin_reconciliation" in vars(DirectLogStore)
        for log in (MemoryUpdateStore, CentralUpdateStore):
            assert "begin_reconciliation" not in vars(log)
            assert not hasattr(log, "begin_network_reconciliation")
            assert log(curated_schema()).derivation_stats() == CacheStats()

    def test_direct_log_accessors_are_abstract(self):
        from repro.store.direct_log import DirectLogStore

        for accessor in ("_nc_lookup", "_nc_advance", "_nc_candidates"):
            incomplete = type(
                "Incomplete",
                (MemoryUpdateStore,),
                {accessor: getattr(DirectLogStore, accessor)},
            )
            with pytest.raises(TypeError, match=accessor):
                incomplete(curated_schema())

    @pytest.mark.parametrize("method", ["begin_reconciliation", "decided_transactions"])
    def test_the_store_contract_has_no_defaults(self, method):
        # Every store serves the client-centric batch and enumerates its
        # decisions: a store without one of them cannot be built.
        incomplete = type(
            "Incomplete", (MemoryUpdateStore,), {method: getattr(UpdateStore, method)}
        )
        with pytest.raises(TypeError, match=method):
            incomplete(curated_schema())


class TestPayloadRouting:
    """Stores put payloads on the batch; the engine adopts what it finds."""

    def _one_published_transaction(self, store, begin="begin_reconciliation"):
        from repro.model import Insert
        from repro.model.transactions import Transaction, TransactionId
        from repro.policy import TrustPolicy

        store.register_participant(1, TrustPolicy().trust_all(1))
        store.register_participant(2, TrustPolicy().trust_all(1))
        transaction = Transaction(
            TransactionId(1, 0), (Insert("F", ("rat", "p1", "x"), 1),)
        )
        store.publish(1, [transaction])
        return getattr(store, begin)(2)

    @pytest.mark.parametrize("name", sorted(available_stores()))
    def test_every_store_ships_its_shared_graph(self, name):
        # A client-centric batch has one shape on every store: bodies
        # and the shared graph; the participant derives each extension.
        store = create_store(name, curated_schema())
        batch = self._one_published_transaction(store)
        assert batch.pair_cache is not None
        assert batch.extensions is None and batch.conflicts is None
        getattr(store, "close", lambda: None)()

    def test_dht_store_computed_batches_ship_both_payloads(self):
        # The controllers' extensions and the driver's shared conflict
        # graph ride on the batch a store-computed reader asks for.
        from repro.model import Insert
        from repro.model.transactions import Transaction, TransactionId
        from repro.policy import TrustPolicy

        store = create_store("dht", curated_schema(), hosts=2)
        store.register_participant(1, TrustPolicy().trust_all(1))
        store.register_participant(2, TrustPolicy().trust_all(1))
        tid = TransactionId(1, 0)
        store.publish(1, [Transaction(tid, (Insert("F", ("rat", "p1", "x"), 1),))])
        batch = store.begin_network_reconciliation(2)
        assert set(batch.extensions) == {tid}
        assert batch.pair_cache is store._shared_pairs

    @pytest.mark.parametrize("carried", [True, False])
    def test_the_engine_adopts_exactly_what_the_batch_carries(self, carried):
        from repro.core.engine import Reconciler
        from repro.core.state import ParticipantState
        from repro.instance import Instance

        schema = curated_schema()
        batch = self._one_published_transaction(
            create_store("dht", schema, hosts=2), "begin_network_reconciliation"
        )
        assert batch.extensions  # the store did ship
        if not carried:
            # A batch without payloads: the engine derives locally.
            batch.extensions = batch.conflicts = batch.pair_cache = None
        reconciler = Reconciler(
            schema, Instance(schema), ParticipantState(2)
        )
        result = reconciler.reconcile(batch)
        assert [str(t) for t in result.accepted] == ["X1:0"]
        assert (reconciler.cache.stats.shipped, reconciler.cache.stats.misses) == (
            (1, 0) if carried else (0, 1)
        )


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_store("memory", lambda schema, **_: MemoryUpdateStore(schema))

    def test_replace_allows_override_and_unregister_removes(self):
        try:
            register_store("memory-test-double", MemoryUpdateStore)
            assert "memory-test-double" in available_stores()
            register_store("memory-test-double", CentralUpdateStore, replace=True)
            assert isinstance(
                create_store("memory-test-double", curated_schema()),
                CentralUpdateStore,
            )
        finally:
            unregister_store("memory-test-double")
        assert "memory-test-double" not in available_stores()

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigError, match="non-empty string"):
            register_store("", lambda schema, **_: MemoryUpdateStore(schema))
