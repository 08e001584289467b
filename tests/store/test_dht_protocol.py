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

from repro.core.decisions import ReconcileResult
from repro.errors import StoreError
from repro.model import Insert
from repro.model.transactions import Transaction, TransactionId
from repro.net.simnet import DEFAULT_FRAGMENT_BYTES
from repro.policy import TrustPolicy
from repro.store import DhtUpdateStore
from repro.store.dht import driver, wire
from repro.store.dht.host import HANDLERS
from repro.store.dht.wire import KINDS, REPLIES
from repro.workload import curated_schema

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
    assert wire.verdicts_sizing(100)["fragments"] == 7  # 1,748 bytes: never one message


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
