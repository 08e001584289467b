"""Fully network-centric DHT batches: the ring protocol behind
``begin_network_reconciliation`` (PR 5).

Decision equivalence with every other store/mode lives in
``tests/integration/test_store_equivalence.py``; these tests pin the
protocol mechanics: which messages flow, how the controllers' per-
participant extension memos are reused and retired, and how the mode
degrades when a controller has lost a record.
"""

from __future__ import annotations

from repro.cdss import Participant
from repro.model import Insert, Modify
from repro.model.transactions import TransactionId
from repro.policy import TrustPolicy
from repro.store import DhtUpdateStore
from repro.workload import curated_schema

RAT_IMMUNE = ("rat", "prot1", "immune")
RAT_RESP = ("rat", "prot1", "cell-resp")
RAT_REVISED = ("rat", "prot1", "immune-revised")


def mutual_policy(pid, ids):
    policy = TrustPolicy()
    for other in ids:
        if other != pid:
            policy.trust_participant(other, 1)
    return policy


def build(store, ids):
    return {
        pid: Participant(
            pid, store, mutual_policy(pid, ids), network_centric=True
        )
        for pid in ids
    }


def controller_memo_keys(store):
    keys = set()
    for host in store._hosts.values():
        keys |= set(host.nc_memo)
    return keys


class TestProtocol:
    def test_nc_messages_flow_and_are_priced(self):
        store = DhtUpdateStore(curated_schema(), hosts=3)
        peers = build(store, [1, 2, 3])
        peers[1].execute([Insert("F", RAT_IMMUNE, 1)])
        peers[1].publish_and_reconcile()
        bytes_before = store.network.bytes_delivered
        peers[2].publish_and_reconcile()
        kinds = store.network.kind_counts
        assert kinds.get("nc_request", 0) >= 1
        assert kinds.get("nc_data", 0) >= 1
        assert kinds.get("nc_adjacency", 0) >= 1
        # The assembled payload pays real bytes on the simulated wire.
        assert store.network.bytes_delivered > bytes_before
        assert peers[2].instance.contains_row("F", RAT_IMMUNE)

    def test_cross_controller_chain_pays_member_verdict_fetches(self):
        # Find two publishers whose first transactions land on different
        # controllers, so the dependent root's derivation must query the
        # antecedent's controller for the reconciler's verdict.
        store = DhtUpdateStore(curated_schema(), hosts=4)
        ids = list(range(1, 9))
        owner_of = {
            pid: store._owner(f"txn:{TransactionId(pid, 0)}") for pid in ids
        }
        writer = ids[0]
        editor = next(
            pid for pid in ids[1:] if owner_of[pid] != owner_of[writer]
        )
        reader = next(
            pid for pid in ids if pid not in (writer, editor)
        )
        peers = build(store, [writer, editor, reader])

        peers[writer].execute([Insert("F", RAT_IMMUNE, writer)])
        peers[writer].publish_and_reconcile()
        peers[editor].publish_and_reconcile()  # fetch + apply the insert
        peers[editor].execute([Modify("F", RAT_IMMUNE, RAT_REVISED, editor)])
        peers[editor].publish_and_reconcile()

        before = dict(store.network.kind_counts)
        result = peers[reader].publish_and_reconcile()
        kinds = store.network.kind_counts
        assert kinds.get("nc_fetch_batch", 0) > before.get(
            "nc_fetch_batch", 0
        )
        assert kinds.get("nc_member_batch", 0) > before.get(
            "nc_member_batch", 0
        )
        assert peers[reader].instance.contains_row("F", RAT_REVISED)
        assert len(result.applied) == 2  # the chain arrived whole

    def test_deferral_rounds_reuse_the_controller_memo(self):
        store = DhtUpdateStore(curated_schema(), hosts=3)
        peers = build(store, [1, 2, 3])
        peers[1].execute([Insert("F", RAT_IMMUNE, 1)])
        peers[1].publish_and_reconcile()
        peers[2].execute([Insert("F", RAT_RESP, 2)])
        peers[2].publish_and_reconcile()
        result = peers[3].publish_and_reconcile()
        assert len(result.deferred) == 2

        # Both roots' per-participant extensions are memoized at their
        # controllers, and the driver's peer-coordinator record mirrors
        # the open deferred set the store reports.
        deferred = {TransactionId(1, 0), TransactionId(2, 0)}
        assert controller_memo_keys(store) == {(3, tid) for tid in deferred}
        assert store._peers[3].deferred == deferred
        _, _, store_deferred = store.decided_transactions(3)
        assert set(store_deferred) == deferred

        # While the applied set is unchanged, re-derivation is a memo
        # hit — and since the client retains the assembled payload, the
        # controllers answer with tiny ``nc_unchanged`` digest tokens
        # instead of re-shipping bodies.  The identical extension
        # objects re-attach (the client's incremental conflict index
        # validates by identity).
        unchanged_before = store.network.kind_counts.get("nc_unchanged", 0)
        data_bytes_before = store.network.kind_bytes.get("nc_data", 0)
        first = store.begin_network_reconciliation(3)
        second = store.begin_network_reconciliation(3)
        assert set(first.extensions) == deferred
        for tid in deferred:
            assert first.extensions[tid] is second.extensions[tid]
        # Both re-ship rounds were fully delta-encoded: nc_unchanged
        # tokens flowed and not one nc_data byte travelled.
        assert (
            store.network.kind_counts.get("nc_unchanged", 0)
            > unchanged_before
        )
        assert store.network.kind_bytes.get("nc_data", 0) == data_bytes_before

    def test_full_payload_fallback_when_retention_is_gone(self):
        # A client that no longer holds the retained payload (e.g. a
        # crash-restart wiped it) sends no digest; the controller falls
        # back to the full-payload re-ship from its memo.
        store = DhtUpdateStore(curated_schema(), hosts=3)
        peers = build(store, [1, 2, 3])
        peers[1].execute([Insert("F", RAT_IMMUNE, 1)])
        peers[1].publish_and_reconcile()
        peers[2].execute([Insert("F", RAT_RESP, 2)])
        peers[2].publish_and_reconcile()
        result = peers[3].publish_and_reconcile()
        assert len(result.deferred) == 2
        deferred = {TransactionId(1, 0), TransactionId(2, 0)}

        store._peers[3].retained.clear()
        data_bytes_before = store.network.kind_bytes.get("nc_data", 0)
        batch = store.begin_network_reconciliation(3)
        assert set(batch.extensions) == deferred
        # The memoized extensions travelled again in full, as nc_data.
        assert store.network.kind_bytes.get("nc_data", 0) > data_bytes_before
        assert controller_memo_keys(store) == {(3, tid) for tid in deferred}

    def test_final_verdicts_retire_the_controller_memo(self):
        from repro.core import Resolution

        store = DhtUpdateStore(curated_schema(), hosts=3)
        peers = build(store, [1, 2, 3])
        peers[1].execute([Insert("F", RAT_IMMUNE, 1)])
        peers[1].publish_and_reconcile()
        peers[2].execute([Insert("F", RAT_RESP, 2)])
        peers[2].publish_and_reconcile()
        peers[3].publish_and_reconcile()
        assert controller_memo_keys(store)

        [group] = peers[3].open_conflicts()
        chosen = next(
            i for i, opt in enumerate(group.options)
            if opt.effect == RAT_IMMUNE
        )
        peers[3].resolve([Resolution(group.group_id, chosen)])
        # Applied/rejected verdicts reached every controller: nothing
        # left to serve participant 3, so its memo entries are gone.
        assert not {
            key for key in controller_memo_keys(store) if key[0] == 3
        }
        assert store._peers[3].deferred == set()

    def test_lost_root_degrades_like_the_client_centric_path(self):
        store = DhtUpdateStore(curated_schema(), hosts=3)
        peers = build(store, [1, 2, 3])
        peers[1].execute([Insert("F", RAT_IMMUNE, 1)])
        peers[1].publish_and_reconcile()
        peers[2].execute([Insert("F", RAT_RESP, 2)])
        peers[2].publish_and_reconcile()
        # Surgically lose one root's controller record (the state a
        # failed, un-replicated controller would leave behind).
        lost = TransactionId(1, 0)
        controller = store._hosts[store._owner(f"txn:{lost}")]
        controller.txns.pop(lost)
        result = peers[3].publish_and_reconcile()
        # The lost root silently drops out — exactly what txn_unknown
        # does client-centrically — and the surviving root decides.
        assert [str(t) for t in result.applied] == ["X2:0"]
        assert peers[3].instance.contains_row("F", RAT_RESP)
