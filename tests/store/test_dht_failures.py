"""Failure injection for the DHT store: the paper's allocator-recovery
sketch ("its data could be reconstructed by polling for the largest epoch
present in the system")."""

from __future__ import annotations

import pytest

from repro.confed import Confederation
from repro.errors import StoreError
from repro.model import Insert
from repro.store import DhtUpdateStore


def build_system(schema, hosts=6):
    store = DhtUpdateStore(schema, hosts=hosts)
    confed = Confederation(store=store).open()
    peers = confed.add_mutually_trusting_participants([1, 2, 3])
    return store, confed, peers


class TestAllocatorRecovery:
    def test_counter_reconstructed_after_allocator_failure(self, schema):
        store, confed, (p1, p2, p3) = build_system(schema)
        # Generate some history and let everyone catch up.
        p1.execute([Insert("F", ("rat", "prot1", "immune"), 1)])
        p1.publish_and_reconcile()
        p2.publish_and_reconcile()
        p3.publish_and_reconcile()
        epochs_before = store.current_epoch()
        assert epochs_before >= 3  # one publish per participant

        victim = store.allocator_host()
        store.fail_host(victim)
        assert store.allocator_host() != victim

        recovered = store.recover_epoch_allocator(p1.id)
        assert recovered >= epochs_before
        # The counter keeps strictly increasing from the recovered value.
        p1.execute([Insert("F", ("mouse", "prot9", "defense"), 1)])
        epoch = p1.publish()
        assert epoch == recovered + 1

    def test_publishing_continues_after_recovery(self, schema):
        store, confed, (p1, p2, p3) = build_system(schema)
        p1.execute([Insert("F", ("rat", "prot1", "immune"), 1)])
        p1.publish_and_reconcile()
        p2.publish_and_reconcile()
        p3.publish_and_reconcile()

        victim = store.allocator_host()
        store.fail_host(victim)
        store.recover_epoch_allocator(p2.id)

        # A peer whose coordinator survived keeps working end to end.
        survivor = next(
            peer
            for peer in (p1, p2, p3)
            if store._owner(f"peer:{peer.id}") != victim
        )
        survivor.execute(
            [Insert("F", ("human", "protN", "transport"), survivor.id)]
        )
        result = survivor.publish_and_reconcile()
        assert result is not None
        assert survivor.instance.contains_row(
            "F", ("human", "protN", "transport")
        )

    def test_cannot_fail_unknown_or_last_host(self, schema):
        store = DhtUpdateStore(schema, hosts=2)
        with pytest.raises(StoreError):
            store.fail_host("host:99")
        store.fail_host("host:0")
        with pytest.raises(StoreError):
            store.fail_host("host:1")

    def test_ownership_routes_around_failed_host(self, schema):
        store = DhtUpdateStore(schema, hosts=4)
        key = "txn:X1:0"
        primary = store._owner(key)
        store.fail_host(primary)
        assert store._owner(key) != primary
