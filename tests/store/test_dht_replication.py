"""Successor replication, crash takeover, recovery, and retries (PR 6).

The DHT store with ``replication_factor=k`` writes controller records to
the next ``k-1`` live ring successors at write time; after
``fail_host`` the takeover owner serves from its replica, and
``recover_host`` rejoins the ring and rebalances records back.  The
request transport retries unanswered protocol messages with stable
request ids, so drops and duplicates are masked up to the retry budget.
"""

from __future__ import annotations

import re

import pytest

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.core.decisions import ReconcileResult
from repro.errors import RetryExhaustedError, StoreError
from repro.model import Insert, Modify, make_transaction
from repro.net import FaultPlan, MessageFault
from repro.net.faults import FaultInjector
from repro.policy import TrustPolicy
from repro.store import DhtUpdateStore
from repro.store.dht.wire import ROLES
from repro.workload import WorkloadConfig
from tests.conftest import decision_stream


ROW_A = ("rat", "prot1", "immune")
ROW_B = ("mouse", "prot2", "defense")
ROW_A2 = ("rat", "prot1", "cell-resp")


def register_trusting_peers(store, peers=(1, 2, 3), priority=1):
    for peer in peers:
        policy = TrustPolicy()
        for other in peers:
            if other != peer:
                policy.trust_participant(other, priority)
        store.register_participant(peer, policy)


def replicated_store(schema, hosts=5, k=2, **options):
    store = DhtUpdateStore(
        schema, hosts=hosts, replication_factor=k, **options
    )
    register_trusting_peers(store)
    return store


@pytest.mark.parametrize(
    "method, host, failed, refusal",
    [
        ("fail_host", "host:9", (), "unknown host 'host:9'"),
        ("recover_host", "host:9", (), "unknown host 'host:9'"),
        ("fail_host", "host:1", ("host:0",), "cannot fail the last live host"),
        ("fail_host", "host:0", ("host:0",), "host 'host:0' is already failed"),
        ("recover_host", "host:1", (), "host 'host:1' is not failed"),
    ],
    ids=["fail-unknown", "recover-unknown", "fail-last-live", "fail-failed", "recover-live"],
)
def test_a_refused_crash_or_recovery_changes_nothing(schema, method, host, failed, refusal):
    store = DhtUpdateStore(schema, hosts=2)
    register_trusting_peers(store)
    for name in failed:
        store.fail_host(name)
    events = []
    store.hooks = HookBus()
    store.hooks.on_fault(lambda **event: events.append(event))
    store.hooks.on_recovery(lambda **event: events.append(event))
    before = (store.network.messages_delivered, set(store._ring.failed))
    with pytest.raises(StoreError, match=f"^{re.escape(refusal)}$"):
        getattr(store, method)(host)
    assert (store.network.messages_delivered, set(store._ring.failed)) == before
    assert events == []


def drop_plan(kind, times=1):
    return FaultPlan(seed=5, messages=(MessageFault(kind, "drop", times=times),))


def store_with_a_record_per_role(schema):
    """A k=2 store holding one record of every replicated role, and
    ``{role: key}``: peer 1 publishes one transaction (a ``txn``, its
    ``epoch``, the ``producer`` of its row) and peer 2 reconciles (its
    ``peer`` coordinator record)."""
    store = replicated_store(schema)
    txn = make_transaction(1, 0, [Insert("F", ROW_A, 1)])
    epoch = store.publish(1, [txn])
    store.begin_reconciliation(2)
    return store, {
        "txn": txn.tid,
        "epoch": epoch,
        "producer": ("F", ROW_A),
        "peer": 2,
    }


def primary_holder(store, role, key):
    """The one host holding ``(role, key)`` as a primary record."""
    (name,) = [
        name
        for name, host in store._hosts.items()
        if key in getattr(host, ROLES[role].table)
    ]
    return name


def replica_holders(store, role, key):
    return [
        name for name, host in store._hosts.items() if (role, key) in host.replicas
    ]


class TestConfiguration:
    def test_replication_factor_validated(self, schema):
        with pytest.raises(StoreError):
            DhtUpdateStore(schema, hosts=3, replication_factor=0)
        with pytest.raises(StoreError):
            DhtUpdateStore(schema, hosts=3, max_retries=-1)

    def test_replication_factor_exposed(self, schema):
        store = DhtUpdateStore(schema, hosts=4, replication_factor=3)
        assert store.replication_factor == 3

    def test_default_is_unreplicated(self, schema):
        store = DhtUpdateStore(schema, hosts=4)
        register_trusting_peers(store)
        store.publish(1, [make_transaction(1, 0, [Insert("F", ROW_A, 1)])])
        assert all(
            not any(role == "txn" for role, _key in host.replicas)
            for host in store._hosts.values()
        )


class TestSuccessorReplication:
    @pytest.mark.parametrize("role", sorted(ROLES))
    def test_records_reach_successors(self, schema, role):
        store, keys = store_with_a_record_per_role(schema)
        key = keys[role]
        # The primary sits at the key's ring owner, plus one successor replica.
        owner = store._owner(ROLES[role].ring_key(key))
        assert primary_holder(store, role, key) == owner
        (replica,) = replica_holders(store, role, key)
        assert replica != owner

    @pytest.mark.parametrize("role", sorted(ROLES))
    def test_takeover_owner_promotes_its_replica_on_read(self, schema, role):
        store, keys = store_with_a_record_per_role(schema)
        key = keys[role]
        (successor,) = replica_holders(store, role, key)
        store.fail_host(primary_holder(store, role, key))
        # Read every role through the protocols: peer 2's reconciliation
        # reads its peer record, peer 3's the epoch and txn records, and
        # the publish looks the producer up.
        store.begin_reconciliation(2)
        store.begin_reconciliation(3)
        store.publish(1, [make_transaction(1, 1, [Modify("F", ROW_A, ROW_A2, 1)])])
        # The successor serves the record as its primary now, and has
        # re-replicated it so the copy count recovered.
        assert primary_holder(store, role, key) == successor
        assert len(replica_holders(store, role, key)) == 1

    def test_crash_is_masked_end_to_end(self, schema):
        store = replicated_store(schema)
        txn = make_transaction(1, 0, [Insert("F", ROW_A, 1)])
        store.publish(1, [txn])
        # Crash the transaction controller; the successor's replica must
        # keep the batch protocol whole.
        store.fail_host(store._owner(f"txn:{txn.tid}"))
        batch = store.begin_reconciliation(2)
        assert [r.transaction.tid for r in batch.roots] == [txn.tid]
        store.complete_reconciliation(
            2,
            ReconcileResult(
                recno=batch.recno, accepted=[txn.tid], applied=[txn.tid]
            ),
        )
        applied, _rejected, _deferred = store.decided_transactions(2)
        assert [entry[2].tid for entry in applied] == [txn.tid]

    def test_unreplicated_crash_loses_the_record(self, schema):
        store = DhtUpdateStore(schema, hosts=5, replication_factor=1)
        register_trusting_peers(store)
        txn = make_transaction(1, 0, [Insert("F", ROW_A, 1)])
        store.publish(1, [txn])
        store.fail_host(store._owner(f"txn:{txn.tid}"))
        # k=1 has no replica to serve from: the record degrades to
        # "unknown" and the batch arrives without it.
        batch = store.begin_reconciliation(2)
        assert batch.roots == []


class TestRecoverHost:
    def test_recover_requires_a_failed_host(self, schema):
        store = replicated_store(schema)
        with pytest.raises(StoreError):
            store.recover_host("host:99")
        with pytest.raises(StoreError):
            store.recover_host("host:0")  # alive

    def test_ownership_routes_back_after_recovery(self, schema):
        store = replicated_store(schema)
        txn = make_transaction(1, 0, [Insert("F", ROW_A, 1)])
        store.publish(1, [txn])
        primary = store._owner(f"txn:{txn.tid}")
        store.fail_host(primary)
        assert store._owner(f"txn:{txn.tid}") != primary
        store.recover_host(primary)
        assert store._owner(f"txn:{txn.tid}") == primary

    @pytest.mark.parametrize("role", sorted(ROLES))
    def test_rebalance_reships_records_to_recovered_host(self, schema, role):
        store, keys = store_with_a_record_per_role(schema)
        key = keys[role]
        primary = primary_holder(store, role, key)
        store.fail_host(primary)  # wipes the primary's state
        assert key not in getattr(store._hosts[primary], ROLES[role].table)
        store.recover_host(primary)
        # The crash wiped the host; rebalance must re-ship the record,
        # and the successor goes back to holding a replica.
        assert primary_holder(store, role, key) == primary
        assert len(replica_holders(store, role, key)) == 1
        batch = store.begin_reconciliation(3)
        assert [r.transaction.tid for r in batch.roots] == [keys["txn"]]

    def test_full_cycle_preserves_reconciliation(self, schema):
        store = replicated_store(schema)
        t1 = make_transaction(1, 0, [Insert("F", ROW_A, 1)])
        store.publish(1, [t1])
        victim = store.allocator_host()
        store.fail_host(victim)
        store.recover_epoch_allocator(1)
        t2 = make_transaction(1, 1, [Insert("F", ROW_B, 1)])
        store.publish(1, [t2])
        store.recover_host(victim)
        batch = store.begin_reconciliation(2)
        assert sorted(str(r.transaction.tid) for r in batch.roots) == [
            str(t1.tid),
            str(t2.tid),
        ]

    @pytest.mark.parametrize("network_centric", ["client", "store"])
    def test_a_lost_recovery_policy_is_retried(self, network_centric):
        """Recovery re-sends the trust policies as request/reply
        exchanges.  Sent unacknowledged (as they once were), one dropped
        ``register_policy`` left the returning host without that
        participant's policy: it answered priority 0 for every root it
        controls, and the decision stream diverged with no error."""

        def run(drop):
            config = ConfederationConfig(
                store="dht",
                store_options={"hosts": 4, "replication_factor": 2},
                peers=(1, 2, 3, 4),
                reconciliation_interval=3,
                rounds=2,
                final_reconcile=True,
                network_centric=network_centric,
                workload=WorkloadConfig(transaction_size=1, seed=5),
            )
            hooks = HookBus()
            decisions = decision_stream(hooks)
            retries = []
            hooks.on_retry(lambda **event: retries.append(event))
            with Confederation(config, hooks=hooks) as confed:
                store = confed.store
                confed.run()
                store.fail_host("host:1")
                if drop:
                    store.network.injector = FaultInjector(
                        drop_plan("register_policy"), latency=store.message_latency
                    )
                store.recover_host("host:1")
                store.network.injector = None
                confed.run()
                return decisions, retries, store

        expected, no_retries, _store = run(drop=False)
        decisions, retries, store = run(drop=True)
        assert no_retries == []
        assert retries == [
            {"kind": "register_policy", "recipient": "host:1", "attempt": 1}
        ]
        assert store.retries == 1
        assert sorted(store._hosts["host:1"].policies) == [1, 2, 3, 4]
        assert decisions == expected


class TestRetryTransport:
    def test_dropped_reply_is_retried(self, schema):
        store = replicated_store(schema)
        store.network.injector = FaultInjector(
            drop_plan("txn_stored", times=2), latency=store.message_latency
        )
        txn = make_transaction(1, 0, [Insert("F", ROW_A, 1)])
        store.publish(1, [txn])
        assert store.retries >= 1
        # The store ends up with exactly one copy per holder despite the
        # duplicate deliveries of store_txn (at-most-once handlers).
        batch = store.begin_reconciliation(2)
        assert [r.transaction.tid for r in batch.roots] == [txn.tid]

    def test_duplicated_replies_are_harmless(self, schema):
        store = replicated_store(schema)
        store.network.injector = FaultInjector(
            FaultPlan(
                seed=5,
                messages=(MessageFault("begin_publishing", "duplicate"),),
            ),
            latency=store.message_latency,
        )
        epoch = store.publish(1, [make_transaction(1, 0, [Insert("F", ROW_A, 1)])])
        assert store.publish(1, []) == epoch + 1  # allocator still monotone
        assert store.network.injector.counts["duplicate"] >= 1  # not vacuous

    def test_black_hole_exhausts_the_budget(self, schema):
        store = replicated_store(schema, max_retries=2)
        store.network.injector = FaultInjector(
            drop_plan("txn_stored", times=None), latency=store.message_latency
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            store.publish(1, [make_transaction(1, 0, [Insert("F", ROW_A, 1)])])
        # Satellite: the error names the pending request precisely.
        message = str(excinfo.value)
        assert "store_txn" in message and "txn_stored" in message

    def test_retry_backoff_charges_latency(self, schema):
        store = replicated_store(schema)
        store.network.injector = FaultInjector(
            drop_plan("txn_stored", times=1), latency=store.message_latency
        )
        before = store.perf.simulated_seconds
        store.publish(1, [make_transaction(1, 0, [Insert("F", ROW_A, 1)])])
        assert store.perf.simulated_seconds > before
        assert store.retries == 1
