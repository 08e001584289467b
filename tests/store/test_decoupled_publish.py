"""The decoupled begin/write/finish publication protocol (Section 5.2.1).

The concurrency property the paper stresses: reconciliation uses "the
latest epoch not preceded by an 'unfinished' epoch", so a slow publisher
never lets a reconciler observe a half-written history — transactions
published *after* an unfinished epoch stay invisible until it finishes.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.model import Insert, make_transaction
from repro.policy import TrustPolicy
from repro.store import (
    CentralUpdateStore,
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
)


RAT1 = ("rat", "prot1", "immune")
MOUSE2 = ("mouse", "prot2", "immune")


@pytest.fixture(params=["memory", "central", "durable", "dht"])
def store(request, schema):
    if request.param == "memory":
        yield MemoryUpdateStore(schema)
    elif request.param == "central":
        with CentralUpdateStore(schema) as central:
            yield central
    elif request.param == "durable":
        with DurableUpdateStore(schema, path=":memory:", cache_size=8) as durable:
            yield durable
    else:
        yield DhtUpdateStore(schema, hosts=4)


@pytest.fixture
def peers(store):
    for pid in (1, 2, 3):
        policy = TrustPolicy()
        for other in (1, 2, 3):
            if other != pid:
                policy.trust_participant(other, 1)
        store.register_participant(pid, policy)
    return store


class TestDecoupledPublish:
    def test_three_phase_equals_one_shot(self, peers):
        store = peers
        txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        epoch = store.begin_publish(1)
        store.write_transactions(1, epoch, [txn])
        store.finish_publish(1, epoch)
        batch = store.begin_reconciliation(2)
        assert [r.tid for r in batch.roots] == [txn.tid]

    def test_unfinished_epoch_blocks_stability(self, peers):
        store = peers
        # p1 starts publishing but does not finish.
        slow_epoch = store.begin_publish(1)
        slow_txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.write_transactions(1, slow_epoch, [slow_txn])

        # p3 publishes completely *after* p1 started.
        fast_txn = make_transaction(3, 0, [Insert("F", MOUSE2, 3)])
        store.publish(3, [fast_txn])

        # p2 reconciles: the stable epoch precedes p1's unfinished one, so
        # it must see NEITHER transaction.
        batch = store.begin_reconciliation(2)
        assert batch.recno < slow_epoch
        assert batch.roots == []

        # p1 finishes; now both epochs become visible at once.
        store.finish_publish(1, slow_epoch)
        batch = store.begin_reconciliation(2)
        assert sorted(str(r.tid) for r in batch.roots) == ["X1:0", "X3:0"]

    def test_stable_epoch_resumes_where_the_last_reconciliation_left_it(
        self, peers
    ):
        # The stable epoch is the store's, not a participant's: whoever
        # reconciles next picks the scan up from the last answer, and an
        # epoch still open behind that answer holds it there.
        store = peers
        first = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        store.publish(1, [first])
        assert store.begin_reconciliation(2).recno == 1

        slow_epoch = store.begin_publish(1)
        fast = make_transaction(3, 0, [Insert("F", MOUSE2, 3)])
        fast_epoch = store.publish(3, [fast])
        assert store.begin_reconciliation(2).recno == 1
        batch = store.begin_reconciliation(3)  # its first: same answer
        assert (batch.recno, [str(r.tid) for r in batch.roots]) == (1, ["X1:0"])

        store.finish_publish(1, slow_epoch)
        batch = store.begin_reconciliation(2)
        assert (batch.recno, [str(r.tid) for r in batch.roots]) == (
            fast_epoch, ["X3:0"],
        )
        assert store.begin_reconciliation(3).recno == fast_epoch

    def test_write_to_foreign_epoch_rejected(self, peers):
        store = peers
        epoch = store.begin_publish(1)
        txn = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        with pytest.raises(StoreError):
            store.write_transactions(2, epoch, [txn])
        store.finish_publish(1, epoch)

    def test_write_after_finish_rejected(self, peers):
        store = peers
        epoch = store.begin_publish(1)
        store.finish_publish(1, epoch)
        txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        with pytest.raises(StoreError):
            store.write_transactions(1, epoch, [txn])

    def test_double_finish_rejected(self, peers):
        store = peers
        epoch = store.begin_publish(1)
        store.finish_publish(1, epoch)
        with pytest.raises(StoreError):
            store.finish_publish(1, epoch)

    def test_incremental_writes_accumulate(self, peers):
        store = peers
        epoch = store.begin_publish(1)
        first = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        second = make_transaction(1, 1, [Insert("F", MOUSE2, 1)])
        store.write_transactions(1, epoch, [first])
        store.write_transactions(1, epoch, [second])
        store.finish_publish(1, epoch)
        batch = store.begin_reconciliation(2)
        assert [str(r.tid) for r in batch.roots] == ["X1:0", "X1:1"]
        orders = [r.order for r in batch.roots]
        assert orders == sorted(orders)


def charge_of(store, call, *args):
    """``(messages, simulated seconds)`` ``call(*args)`` charged, and what
    it returned — or the :class:`StoreError` it raised."""
    before = store.perf.snapshot()
    try:
        outcome = call(*args)
    except StoreError as refused:
        outcome = refused
    delta = store.perf.minus(before)
    return (delta.messages, delta.simulated_seconds), outcome


def one_call(store):
    """What one procedure call costs: a request, a reply and the overhead."""
    return (2, pytest.approx(2 * store.message_latency + store.DEFAULT_CALL_OVERHEAD))


@pytest.mark.parametrize("store", ["memory", "central", "durable"], indirect=True)
class TestOnePublishOneRoundTrip:
    """On a log the store reads directly, ``publish()`` is one procedure
    call: the log runs begin, write and finish itself.  Each step called
    alone, as a concurrent publisher does, stays one call of its own."""

    def test_an_empty_batch_is_one_call(self, peers):
        charge, epoch = charge_of(peers, peers.publish, 1, [])
        assert charge == one_call(peers)
        assert peers.begin_reconciliation(2).recno == epoch

    def test_a_batch_is_one_call(self, peers):
        txns = [make_transaction(1, 0, [Insert("F", RAT1, 1)]),
                make_transaction(1, 1, [Insert("F", MOUSE2, 1)])]
        charge, epoch = charge_of(peers, peers.publish, 1, txns)
        assert charge == one_call(peers)
        batch = peers.begin_reconciliation(2)
        assert (batch.recno, [str(r.tid) for r in batch.roots]) == (epoch, ["X1:0", "X1:1"])

    def test_a_refused_batch_is_one_call_and_still_finishes_its_epoch(self, peers):
        txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        peers.publish(1, [txn])
        charge, refused = charge_of(peers, peers.publish, 1, [txn])
        assert isinstance(refused, StoreError) and "already published" in str(refused)
        assert charge == one_call(peers)
        epoch = peers.current_epoch()
        assert peers.begin_reconciliation(2).recno == epoch == 2

    def test_each_step_alone_is_one_call(self, peers):
        charge, epoch = charge_of(peers, peers.begin_publish, 1)
        assert charge == one_call(peers)
        txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        charge, _ = charge_of(peers, peers.write_transactions, 1, epoch, [txn])
        assert charge == one_call(peers)
        charge, _ = charge_of(peers, peers.finish_publish, 1, epoch)
        assert charge == one_call(peers)
        assert charge_of(peers, peers.publish, 3, [])[0] == one_call(peers)


@pytest.mark.parametrize("store", ["dht"], indirect=True)
def test_a_dht_publish_is_its_figure_6_protocol(peers):
    """The DHT has no log to run the steps on: its publish stays the
    multi-host protocol, message for message."""
    txns = [make_transaction(1, 0, [Insert("F", RAT1, 1)]),
            make_transaction(1, 1, [Insert("F", MOUSE2, 1)])]
    charges = [charge_of(peers, peers.publish, 1, txns)[0][0],
               charge_of(peers, peers.publish, 2, [])[0][0]]
    assert charges == [14, 6]  # the Figure 6 messages of a 4-host ring
