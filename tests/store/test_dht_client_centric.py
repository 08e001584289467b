"""The DHT's client-centric batch is the paper's distributed store:
publishing derives nothing, a batch carries bodies and no extension,
every client derives (or adopts another client's derivation from the
shared conflict graph), and a lost record degrades the batch without
moving a decision."""

from __future__ import annotations

import pytest

from repro.core.cache import CacheStats
from repro.model import Insert, Modify
from repro.model.transactions import Transaction, TransactionId
from repro.policy import TrustPolicy
from repro.store import DhtUpdateStore
from repro.store.dht import wire


def mutual_policy(pid, ids, priority=1):
    policy = TrustPolicy()
    for other in ids:
        if other != pid:
            policy.trust_participant(other, priority)
    return policy


def dht_store(schema, hosts=4, **options):
    store = DhtUpdateStore(schema, hosts=hosts, **options)
    for pid in (1, 2, 3):
        store.register_participant(pid, mutual_policy(pid, (1, 2, 3)))
    return store


def insert(pid, seq, row):
    return Transaction(TransactionId(pid, seq), (Insert("F", row, pid),))


def chain(length):
    """``length`` transactions of author 1, each revising the last."""
    rows = [("rat", "p1", f"fn-{i}") for i in range(length)]
    first = Transaction(TransactionId(1, 0), (Insert("F", rows[0], 1),))
    return [first] + [
        Transaction(TransactionId(1, i), (Modify("F", rows[i - 1], rows[i], 1),))
        for i in range(1, length)
    ]


def recorded_posts(store):
    sent = []
    post = store.network.post
    store.network.post = lambda message: (sent.append(message), post(message))
    return sent


class TestBodiesOnly:
    def test_publish_and_batch_walk_no_controller(self, schema):
        store = dht_store(schema)
        for txn in chain(2):  # an antecedent chain: still no walk
            store.publish(1, [txn])
        # Registration and Figure 6, nothing between controllers.
        assert set(store.network.kind_counts) == {
            "register_policy", "policy_registered", "request_epoch", "begin_epoch",
            "epoch_begun", "begin_publishing", "lookup_producer", "producer_is",
            "store_txn", "txn_stored", "register_producer", "producer_registered",
            "publish_ids", "epoch_finished",
        }
        for host in store._hosts.values():
            for record in host.txns.values():
                assert set(record) == {"transaction", "antecedents", "order", "decisions", "stamps"}
        sent = recorded_posts(store)
        store.begin_reconciliation(2)
        assert sent and not [m for m in sent if m.kind.startswith("nc_")]
        assert store.derivation_stats() == CacheStats()
        for host in store._hosts.values():
            assert host.derived == {} and host.member_bodies == {}

    @pytest.mark.parametrize("length", [1, 2])
    def test_each_root_travels_as_its_body(self, schema, length):
        # Where publishing once shipped a root's flattened closure, each
        # root now costs exactly its own body.
        store = dht_store(schema)
        txns = chain(length)
        for txn in txns:
            store.publish(1, [txn])
        sent = recorded_posts(store)
        batch = store.begin_reconciliation(2)
        assert [root.tid for root in batch.roots] == [txn.tid for txn in txns]
        data = sorted(
            (message for message in sent if message.kind == "txn_data"),
            key=lambda message: message.payload["transaction"].tid,
        )
        assert [(m.fragments, m.size_bytes) for m in data] == [
            (wire.payload_fragments(txn), wire.body_bytes(txn)) for txn in txns
        ]
        assert not [m for m in data if "extension" in m.payload or "context_free" in m.payload]


class TestClientDerivation:
    def test_the_client_derives_over_the_antecedent_chain(self, schema):
        from repro.cdss.participant import Participant

        store = DhtUpdateStore(schema, hosts=4)
        ids = (1, 2)
        store.register_participant(1, mutual_policy(1, ids))
        author = Participant(1, store, mutual_policy(1, ids), register=False)
        reader = Participant(2, store, mutual_policy(2, ids))
        author.execute([Insert("F", ("rat", "p1", "fn-a"), 1)])
        author.publish()
        author.execute([Modify("F", ("rat", "p1", "fn-a"), ("rat", "p1", "fn-b"), 1)])
        author.publish()
        result = reader.reconcile()
        assert sorted(map(str, result.accepted)) == ["X1:0", "X1:1"]
        assert reader.instance.contains_row("F", ("rat", "p1", "fn-b"))
        assert not reader.instance.contains_row("F", ("rat", "p1", "fn-a"))
        stats = reader.reconciler.cache.stats
        assert stats.shipped == 0 and stats.misses >= 1


class TestPartialFailure:
    def test_lost_root_degrades_to_partial_batch(self, schema):
        """A failed transaction controller loses the body; the surviving
        roots still reconcile."""
        store = dht_store(schema, hosts=self._hosts_isolating_first_txn())
        a = insert(1, 0, ("rat", "p1", "fn-a"))
        b = insert(3, 0, ("rat", "p2", "fn-b"))
        store.publish(1, [a])
        store.publish(3, [b])
        victim = store._owner(f"txn:{a.tid}")
        assert store._owner(f"txn:{b.tid}") != victim
        store.fail_host(victim)
        batch = store.begin_reconciliation(2)
        tids = [root.tid for root in batch.roots]
        assert a.tid not in tids  # lost with its controller
        assert b.tid in tids

    @staticmethod
    def _hosts_isolating_first_txn():
        """A host count whose ring layout gives ``txn:X1:0`` a controller
        that owns none of the other roles this scenario touches — so
        failing it loses exactly one transaction record."""
        from repro.net.ring import HashRing

        other_roles = (
            "epoch-allocator",
            "peer:1",
            "peer:2",
            "peer:3",
            "epoch:1",
            "epoch:2",
            "txn:X3:0",
            "value:F:('rat', 'p1', 'fn-a')",
            "value:F:('rat', 'p1', 'fn-b')",
        )
        for hosts in range(4, 24):
            ring = HashRing([f"host:{i}" for i in range(hosts)])
            victim = ring.owner("txn:X1:0")
            if all(ring.owner(role) != victim for role in other_roles):
                return hosts
        raise AssertionError("no isolating ring layout found")

    def test_a_lost_antecedent_does_not_stop_its_dependent(self, schema):
        """The antecedent's controller fails after both peers applied it;
        the dependent publishes, and a peer reconciles it over the
        surviving history."""
        from repro.cdss.participant import Participant

        store = DhtUpdateStore(schema, hosts=self._hosts_isolating_first_txn())
        ids = (1, 2, 3)
        store.register_participant(1, mutual_policy(1, ids))
        p1 = Participant(1, store, mutual_policy(1, ids), register=False)
        p2 = Participant(2, store, mutual_policy(2, ids))
        p3 = Participant(3, store, mutual_policy(3, ids))

        p1.execute([Insert("F", ("rat", "p1", "fn-a"), 1)])
        p1.publish()
        p2.reconcile()  # both peers apply the antecedent
        p3.reconcile()
        a_tid = TransactionId(1, 0)

        store.fail_host(store._owner(f"txn:{a_tid}"))
        p3.execute(
            [Modify("F", ("rat", "p1", "fn-a"), ("rat", "p1", "fn-b"), 3)]
        )
        p3.publish()
        b_tid = TransactionId(3, 0)
        result = p2.reconcile()
        assert b_tid in result.accepted
        assert p2.instance.contains_row("F", ("rat", "p1", "fn-b"))
