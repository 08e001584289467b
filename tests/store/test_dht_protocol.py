"""The DHT store's protocol tables agree with each other, and the
driver reaches the network only through the request engine.

``KINDS`` (the registry RPR009 checks literals against), ``HANDLERS``
(kind -> host handler) and ``REPLIES`` (request -> the kinds that answer
it) are three literal tables; together they must account for every kind
exactly once.

A reconcile's verdicts travel as batches: one ``record_decision`` per
owning controller, one ``decision_recorded`` back, one ``txn_decision``
delta per live successor, each priced by its entries.
"""

from __future__ import annotations

import ast
import inspect

import pytest

from repro.confed import Confederation, ConfederationConfig
from repro.core.decisions import ReconcileResult
from repro.errors import RetryExhaustedError, StoreError
from repro.model import Insert, Modify
from repro.model.transactions import Transaction, TransactionId
from repro.net import FaultPlan, HostCrash
from repro.net.simnet import DEFAULT_FRAGMENT_BYTES
from repro.policy import TrustPolicy
from repro.store import DhtUpdateStore
from repro.store.dht import driver, wire
from repro.store.dht.host import HANDLERS
from repro.store.dht.wire import KINDS, REPLIES
from repro.store.logic import batch_antecedents
from repro.workload import WorkloadConfig, curated_schema

#: What a client's inbox may hold: every kind that answers a request,
#: plus the one no request solicits (the peer coordinator's adjacency).
CLIENT_CONSUMED = {kind for row in REPLIES.values() for kind in row} | {
    "nc_adjacency"
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_has_exactly_one_row(kind):
    """A host handles it, it answers a request, or it is the one
    unsolicited client-bound kind: a kind added without a row fails here
    by name."""
    rows = [kind in HANDLERS, kind in CLIENT_CONSUMED - {"nc_adjacency"}]
    rows.append(kind == "nc_adjacency")
    assert rows.count(True) == 1, rows


def test_every_kind_is_dispatched_replied_or_client_consumed():
    # Every kind has a row (per kind, above), and the tables name no
    # undeclared kind ...
    assert set(HANDLERS) | CLIENT_CONSUMED <= KINDS
    # ... exactly once: hosts never handle what only clients receive,
    # and no kind answers two requests.
    assert not set(HANDLERS) & CLIENT_CONSUMED
    assert sum(len(row) for row in REPLIES.values()) + 1 == len(CLIENT_CONSUMED)


def test_every_request_has_a_handler():
    assert set(REPLIES) <= set(HANDLERS)


def test_unknown_kind_still_raises(schema):
    store = DhtUpdateStore(schema, hosts=2)
    store.network.send("host:0", "host:1", "no_such_kind")
    with pytest.raises(StoreError, match="no_such_kind"):
        store.network.run()


def test_the_driver_touches_the_network_only_through_the_engine():
    """``driver.py`` is protocol scripts: sending, delivering and reading
    an inbox happen in ``client.py``.  Topology calls (``add_node``,
    ``fail_node``, ``recover_node``) stay."""
    offenders = []
    for node in ast.walk(ast.parse(inspect.getsource(driver))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        callee, on = node.func.attr, node.func.value
        on_network = isinstance(on, ast.Attribute) and on.attr == "network"
        if callee == "drain" or (on_network and callee in ("send", "post", "run")):
            offenders.append(f"line {node.lineno}: .{callee}(")
    assert not offenders, offenders


# ----------------------------------------------------------------------
# Verdict batches: a reconcile's decisions travel one message per
# controller, on a ring that replicates (k = 2) over five hosts.

K = 2


class Batches:
    """Participants 1 and 2 publish eight single-insert transactions
    each; participant 3 only reconciles.  ``sent`` records every message
    posted while a ``decide`` runs."""

    def __init__(self):
        self.store = store = DhtUpdateStore(curated_schema(), hosts=5, replication_factor=K)
        self.ids = (1, 2, 3)
        for pid in self.ids:
            policy = TrustPolicy()
            for other in self.ids:
                if other != pid:
                    policy.trust_participant(other, 1)
            store.register_participant(pid, policy)
        self.published = {pid: [TransactionId(pid, n) for n in range(8)] for pid in (1, 2)}
        for pid, tids in self.published.items():
            store.publish(pid, [
                Transaction(tid, (Insert("F", ("rat", f"p{pid}-{tid.sequence}", "fn"), pid),))
                for tid in tids
            ])
        self.sent = []
        post = store.network.post
        store.network.post = lambda message: (self.sent.append(message), post(message))

    def decide(self, pid, **verdicts):
        self.sent.clear()
        self.store.complete_reconciliation(pid, ReconcileResult(recno=0, **verdicts))
        return self.sent

    def record(self, tid):
        return self.store._hosts[self.store._controller(tid)].txns[tid]

    def of(self, kind):
        return [message for message in self.sent if message.kind == kind]


def test_a_reconcile_sends_one_record_decision_per_owning_controller():
    ring = Batches()
    decided = ring.published[1] + ring.published[2][:5]
    ring.decide(3, applied=decided[:6], rejected=decided[6:9], deferred=decided[9:])
    owners = {ring.store._controller(tid) for tid in decided}
    assert len(owners) >= 2
    requests = ring.of("record_decision")
    assert sorted(message.recipient for message in requests) == sorted(owners)
    assert sorted(tid for message in requests for tid, _ in message.payload["entries"]) == sorted(
        decided
    )
    acks = ring.of("decision_recorded")
    assert len(acks) == len(owners) and ring.store.retries == 0
    # Every verdict reached its record, and its successor's copy.
    for tid in decided:
        assert ring.record(tid)["decisions"][3] in ("applied", "rejected", "deferred")
    deltas = [m for m in ring.of("replicate") if m.payload["role"] == "txn_decision"]
    assert 0 < len(deltas) <= len(owners) * (K - 1)
    shipped = sorted(tid for message in deltas for tid, _ in message.payload["state"])
    assert shipped == sorted(decided)


def test_a_batch_is_priced_by_its_entries():
    ring = Batches()
    ring.decide(3, applied=ring.published[1] + ring.published[2])
    for message in ring.of("record_decision") + ring.of("decision_recorded"):
        entries = len(message.payload["entries"])
        assert message.size_bytes == wire.HEADER_WIRE_BYTES + entries * (
            wire.TID_WIRE_BYTES + 1
        )
        assert message.fragments == max(1, -(-message.size_bytes // DEFAULT_FRAGMENT_BYTES))
    # 100 verdicts are 1,748 bytes: never one message.
    assert wire.batch_sizing(100, wire.VERDICT_ENTRY_BYTES)["fragments"] == 7


def test_a_lost_record_is_acknowledged_unretired_and_not_asked_again():
    ring = Batches()
    lost, kept = ring.published[1][0], ring.published[1][1:]
    for host in ring.store._hosts.values():
        host.txns.pop(lost, None)
        host.replicas.pop(("txn", lost), None)
    ring.decide(2, applied=[lost, *kept])
    ring.decide(3, applied=[lost, *kept])
    acked = {
        tid: retired for message in ring.of("decision_recorded")
        for tid, retired in message.payload["entries"]
    }
    assert acked[lost] is False
    assert all(acked[tid] for tid in kept)  # the last participant's final verdict
    requested = [
        tid for message in ring.of("record_decision") for tid, _ in message.payload["entries"]
    ]
    assert requested.count(lost) == 1 and ring.store.retries == 0


def test_the_unlinked_tids_are_the_all_final_rule_over_the_records():
    ring = Batches()
    first, second = ring.published[1], ring.published[2]
    unlinked = []
    discard = ring.store._shared_pairs.discard
    ring.store._shared_pairs.discard = lambda tids: (unlinked.extend(tids), discard(tids))
    for pid, verdicts in (
        (3, dict(applied=first[:4], rejected=first[4:6], deferred=first[6:] + second[:4])),
        (2, dict(applied=first[:5], rejected=first[5:7], deferred=first[7:])),
        (1, dict(applied=second)),
        (3, dict(applied=second + first[6:])),
    ):
        tids = [tid for group in verdicts.values() for tid in group]
        derived = {tid for tid in tids if ring.record(tid)["context_free"] is not None}
        unlinked.clear()
        ring.decide(pid, **verdicts)
        final = {
            tid for tid in derived
            if all(ring.record(tid)["decisions"].get(p) in ("applied", "rejected") for p in ring.ids)
        }
        assert set(unlinked) == final
    assert set(first[:7]) | set(second) == {
        tid for tid in first + second if ring.record(tid)["context_free"] is None
    }


# ----------------------------------------------------------------------
# The wire, per kind: a small store-computed schedule over a replicating
# ring that loses a host and gets it back.  A change that moves messages
# between kinds — even one whose totals net to zero — fails here.

#: ``report().kind_counts`` (fragments delivered) of :func:`pinned_run`.
PINNED_KIND_COUNTS = {
    "begin_epoch": 12, "begin_publishing": 12, "cf_data": 236, "cf_fetch": 17,
    "current_epoch": 18, "decision_recorded": 52, "epoch_begun": 12, "epoch_contents": 43,
    "epoch_finished": 12, "get_current_epoch": 18, "get_epoch_contents": 43,
    "get_last_recon": 18, "last_recon": 18, "lookup_producer": 7, "nc_adjacency": 360,
    "nc_data": 3343, "nc_fetch_batch": 56, "nc_member_batch": 56, "nc_request": 53,
    "nc_unchanged": 18, "policy_registered": 30, "producer_is": 7,
    "producer_registered": 43, "publish_ids": 12, "rebalance": 3, "recon_recorded": 18,
    "record_decision": 52, "record_recon": 18, "register_policy": 30,
    "register_producer": 134, "replicate": 1034, "request_epoch": 12, "store_txn": 428,
    "txn_stored": 36,
}

#: ``report().kind_bytes`` of the same run.
PINNED_KIND_BYTES = {
    "begin_epoch": 3072, "begin_publishing": 3072, "cf_data": 23472, "cf_fetch": 4352,
    "current_epoch": 4608, "decision_recorded": 6049, "epoch_begun": 3072,
    "epoch_contents": 11008, "epoch_finished": 3072, "get_current_epoch": 4608,
    "get_epoch_contents": 11008, "get_last_recon": 4608, "last_recon": 4608,
    "lookup_producer": 864, "nc_adjacency": 17280, "nc_data": 354984,
    "nc_fetch_batch": 4256, "nc_member_batch": 4256, "nc_request": 9936,
    "nc_unchanged": 2496, "policy_registered": 7680, "producer_is": 512,
    "producer_registered": 2064, "publish_ids": 3072, "rebalance": 768,
    "recon_recorded": 4608, "record_decision": 6049, "record_recon": 4608,
    "register_policy": 7680, "register_producer": 29456, "replicate": 153921,
    "request_epoch": 3072, "store_txn": 42816, "txn_stored": 9216,
}


def pinned_run():
    """4 hosts, 6 peers, replication 2, 2 rounds, ``host:1`` failed at
    epoch 3 and recovered at epoch 8 (``fail_host`` / ``recover_host``)."""
    config = ConfederationConfig(
        store="dht",
        store_options={"hosts": 4, "replication_factor": 2},
        peers=tuple(range(1, 7)),
        reconciliation_interval=3,
        rounds=2,
        final_reconcile=True,
        network_centric="store",
        workload=WorkloadConfig(transaction_size=2, seed=5),
        faults=FaultPlan(seed=3, crashes=(HostCrash("host:1", at_epoch=3, recover_at_epoch=8),)),
    )
    with Confederation(config) as confed:
        return confed.run()


def test_the_wire_is_pinned_per_kind():
    report = pinned_run()
    assert report.faults.injected == {"crash": 1} and report.faults.recoveries == 1
    assert report.kind_counts == PINNED_KIND_COUNTS
    assert report.kind_bytes == PINNED_KIND_BYTES


def test_a_failed_publish_marks_only_what_its_epoch_lists():
    """A batch whose second ``store_txn`` is never acknowledged fails;
    its epoch lists the first transaction alone.  That one is then
    published and refused again; the second may be published later."""
    store = DhtUpdateStore(curated_schema(), hosts=3, max_retries=1)
    trusts_1 = TrustPolicy()
    trusts_1.trust_participant(1, 1)
    store.register_participant(1, TrustPolicy())
    store.register_participant(2, trusts_1)
    stored, lost = (
        Transaction(TransactionId(1, seq), (Insert("F", (f"k{seq}", "p", "v"), 1),))
        for seq in range(2)
    )
    post = store.network.post

    def drop_lost_ack(message):
        if not (message.kind == "txn_stored" and message.payload["tid"] == lost.tid):
            post(message)

    store.network.post = drop_lost_ack
    with pytest.raises(RetryExhaustedError):
        store.publish(1, [stored, lost])
    store.network.post = post
    with pytest.raises(StoreError, match=f"transaction {stored.tid} was already published"):
        store.publish(1, [stored])
    store.publish(1, [lost])
    assert [root.tid for root in store.begin_reconciliation(2).roots] == [stored.tid, lost.tid]


def test_a_publish_batch_asks_once_for_what_it_did_not_produce():
    """Rows an earlier transaction of the batch produced resolve within
    it; the one lookup gets only the others — including a row a *later*
    transaction produces, which the earlier one consumed from outside."""
    a, b, c = (("rat", "p", f"v{n}") for n in range(3))
    steps = [Modify("F", a, b, 1), Modify("F", b, c, 1), Modify("F", c, a, 1)]
    batch = [Transaction(TransactionId(1, n), (step,)) for n, step in enumerate(steps)]
    outside = TransactionId(2, 0)
    asked = []

    def look_up(rows):
        asked.append(rows)
        return {("F", a): outside}

    antecedents, produced = batch_antecedents(batch, look_up)
    assert asked == [[("F", a)]]
    assert antecedents == [[outside], [batch[0].tid], [batch[1].tid]]
    assert produced == {("F", b): batch[0].tid, ("F", c): batch[1].tid, ("F", a): batch[2].tid}
