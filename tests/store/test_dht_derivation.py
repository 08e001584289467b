"""The transaction controllers' closure-keyed derivation table (PR 18).

An update extension is a pure function of its root and member closure,
so a controller derives it once per closure — not once per participant
per round.  Three layers of evidence:

* property tests: over generated antecedent DAGs and applied subsets the
  table's answer is field-for-field a fresh ``compute_update_extension``;
* protocol tests on a 3-host ring with hand-driven ``record_decision``s:
  which messages flow and how often a controller actually derives;
* one seeded ratchet on a 16-peer run.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.core.decisions import ReconcileResult
from repro.core.extensions import (
    TransactionGraph,
    antecedent_closure,
    compute_update_extension,
)
from repro.errors import FlattenError
from repro.model import Insert, Modify
from repro.model.transactions import Transaction, TransactionId
from repro.net.faults import FaultPlan, HostCrash
from repro.net.ring import HashRing
from repro.policy import TrustPolicy
from repro.store import DhtUpdateStore
from repro.store.dht import controllers, nc, wire
from repro.store.dht.host import _HostNode, _RingView
from repro.store.logic import compute_antecedents
from repro.workload import WorkloadConfig, curated_schema
from tests.conftest import decision_stream
from tests.property.strategies import PROP_SCHEMA, valid_update_sequences


def lone_host(schema=PROP_SCHEMA) -> _HostNode:
    return _HostNode("host:0", schema, _RingView(HashRing(["host:0"])), 1)


def record_of(body: wire.Body) -> dict:
    """A controller record around a body (what ``_derivation`` is handed)."""
    transaction, antecedents, order = body
    return {
        "transaction": transaction,
        "antecedents": antecedents,
        "order": order,
        "decisions": {},
        "context_free": None,
    }


@st.composite
def published_histories(draw):
    """A valid update sequence cut into transactions, with the
    antecedent edges a store would compute at publish: tid -> body."""
    _initial, updates = draw(valid_update_sequences(max_length=10))
    bodies, producers = {}, {}
    position = 0
    while position < len(updates):
        size = draw(st.integers(min_value=1, max_value=2))
        tid = TransactionId(1, len(bodies))
        transaction = Transaction(tid, tuple(updates[position:position + size]))
        position += size
        antecedents = tuple(compute_antecedents(producers.get, transaction))
        for update in transaction.updates:
            if update.written_row() is not None:
                producers[(update.relation, update.written_row())] = tid
        bodies[tid] = (transaction, antecedents, len(bodies))
    return bodies


def fresh_answer(bodies, root_tid, priority, applied):
    """What the client itself would compute over the whole history."""
    graph = TransactionGraph()
    for body in bodies.values():
        graph.add(*body)
    try:
        return compute_update_extension(
            PROP_SCHEMA, graph, wire.root(record_of(bodies[root_tid]), priority), applied
        )
    except FlattenError:
        return None


def closure_of(bodies, root_tid, applied):
    """The member closure a controller's walk ends on."""
    members = antecedent_closure(lambda tid: bodies[tid][1], [root_tid], applied)
    return {tid: bodies[tid] for tid in members}


class TestTableAnswersLikeAFreshDerivation:
    @settings(max_examples=150, deadline=None)
    @given(
        bodies=published_histories(),
        data=st.data(),
        priority=st.integers(min_value=1, max_value=3),
    )
    def test_field_for_field(self, bodies, data, priority):
        assume(bodies)
        host = lone_host()
        tids = sorted(bodies)
        root_tid = data.draw(st.sampled_from(tids))
        others = [tid for tid in tids if tid != root_tid]
        for _ in range(3):  # three participants, one table
            applied = set(data.draw(st.sets(st.sampled_from(others)))) if others else set()
            closure = closure_of(bodies, root_tid, applied)
            misses = host.derive_stats.misses
            known = frozenset(closure) in host.derived.get(root_tid, {})
            row = controllers._derivation(host, record_of(bodies[root_tid]), closure)
            assert host.derive_stats.misses == misses + (0 if known else 1)
            extension, digest = row.at(priority)
            fresh = fresh_answer(bodies, root_tid, priority, applied)
            if fresh is None:
                assert (extension, digest) == (None, None)
                continue
            assert extension.root == fresh.root
            assert extension.members == fresh.members
            assert extension.operations == fresh.operations  # order included
            assert extension.touched == fresh.touched
            assert extension.priority == fresh.priority == priority
            assert digest == wire.extension_digest(fresh)
            pool = {
                repr(update)
                for member in fresh.members
                for update in bodies[member][0].updates
            }
            assert row.cost == wire.encoded_extension_cost(fresh, pool)
            assert [body[0].tid for body in row.bodies] == list(fresh.members)

    def test_same_priority_same_object_other_priority_other_digest(self):
        host = lone_host()
        tid = TransactionId(1, 0)
        body = (Transaction(tid, (Insert("R", (1, 1), 1),)), (), 0)
        row = controllers._derivation(host, record_of(body), {tid: body})
        again = controllers._derivation(host, record_of(body), {tid: body})
        assert again is row
        assert (host.derive_stats.misses, host.derive_stats.revalidations) == (1, 1)
        low, low_digest = row.at(1)
        assert row.at(1) == (low, low_digest) and row.at(1)[0] is low
        high, high_digest = row.at(2)
        assert high is not low and high_digest != low_digest
        assert (low.priority, high.priority) == (1, 2)
        assert low.operations == high.operations == row.extension.operations

    def test_a_closure_that_does_not_flatten_is_none_every_time(self):
        host = lone_host()
        first, second = TransactionId(1, 0), TransactionId(2, 0)
        bodies = {
            first: (Transaction(first, (Insert("R", (1, 1), 1),)), (), 0),
            # A second insert of the same key on top of the first.
            second: (Transaction(second, (Insert("R", (1, 2), 2),)), (first,), 1),
        }
        assert fresh_answer(bodies, second, 1, set()) is None
        for _ in range(2):
            row = controllers._derivation(host, record_of(bodies[second]), bodies)
            assert row.extension is None and row.at(1) == (None, None)
        assert host.derive_stats.misses == 1

        # Staged, such a root ships its bodies and nothing else — every
        # time, never a digest token.
        for expected_size in (
            # first delivery: the header and both bodies; then the header.
            wire.HEADER_WIRE_BYTES + sum(wire.body_bytes(b[0]) for b in bodies.values()),
            wire.HEADER_WIRE_BYTES,
        ):
            batch = {
                "participant": 3, "entries": {}, "unchanged": {},
                "fragments": 0, "size": wire.HEADER_WIRE_BYTES,
            }
            nc._stage(host, batch, record_of(bodies[second]), 1, row, None)
            entry = batch["entries"][second]
            assert batch["unchanged"] == {} and batch["size"] == expected_size
            assert (entry["extension"], entry["digest"]) == (None, None)
            assert entry["members"] == [bodies[first]]


# ----------------------------------------------------------------------
# Protocol: a 3-host ring, decisions recorded by hand.

ROW = ("rat", "prot1", "immune")
REVISED = ("rat", "prot1", "immune-revised")
OTHER = ("mouse", "prot2", "cell-resp")


def mutual_policy(pid, ids):
    policy = TrustPolicy()
    for other in ids:
        if other != pid:
            policy.trust_participant(other, 1)
    return policy


class Ring:
    """Writer publishes A (an insert) and C (an unrelated insert);
    editor applies A and publishes B (a modify of A's row) on another
    controller; the reader's verdicts are recorded by hand."""

    def __init__(self, **options):
        self.store = store = DhtUpdateStore(curated_schema(), hosts=3, **options)
        ids = list(range(1, 9))
        owner = {pid: store._owner(wire.txn_key(TransactionId(pid, 0))) for pid in ids}
        self.writer = ids[0]
        self.editor = next(pid for pid in ids[1:] if owner[pid] != owner[self.writer])
        self.reader = next(pid for pid in ids if pid not in (self.writer, self.editor))
        self.ids = (self.writer, self.editor, self.reader)
        for pid in self.ids:
            store.register_participant(pid, mutual_policy(pid, self.ids))
        self.a = TransactionId(self.writer, 0)
        self.c = TransactionId(self.writer, 1)
        self.b = TransactionId(self.editor, 0)
        store.publish(self.writer, [Transaction(self.a, (Insert("F", ROW, self.writer),))])
        store.publish(self.writer, [Transaction(self.c, (Insert("F", OTHER, self.writer),))])
        self.decide(self.editor, applied=[self.a, self.c])
        store.publish(
            self.editor, [Transaction(self.b, (Modify("F", ROW, REVISED, self.editor),))]
        )
        self.decide(self.writer, applied=[self.b])

    def decide(self, pid, **verdicts):
        self.store.complete_reconciliation(pid, ReconcileResult(recno=0, **verdicts))

    def round(self):
        """One store-computed batch for the reader: ``(batch, deltas of
        the message kinds, delta of the derivation counters)``."""
        kinds = dict(self.store.network.kind_counts)
        stats = self.store.derivation_stats()
        batch = self.store.begin_network_reconciliation(self.reader)
        delta = {
            kind: count - kinds.get(kind, 0)
            for kind, count in self.store.network.kind_counts.items()
            if count != kinds.get(kind, 0)
        }
        return batch, delta, self.store.derivation_stats().minus(stats)

    def rows(self, tid):
        return [host.derived[tid] for host in self.store._hosts.values() if tid in host.derived]


class TestProtocol:
    def deferred_ring(self, **options):
        ring = Ring(**options)
        batch, delta, stats = ring.round()
        assert set(batch.extensions) == {ring.a, ring.b, ring.c}
        assert batch.extensions[ring.b].members == (ring.a, ring.b)
        # B's controller asked A's for the reader's verdict; all three
        # closures are the full ones, seeded at publish: no derivation.
        assert delta["nc_fetch_batch"] == delta["nc_member_batch"] == 1
        assert (stats.misses, stats.revalidations, stats.hits) == (0, 3, 0)
        ring.decide(ring.reader, deferred=[ring.a, ring.b, ring.c])
        return ring, batch

    def test_publish_seeds_the_table(self):
        ring = Ring()
        stats = ring.store.derivation_stats()
        assert (stats.misses, stats.shipped) == (3, 3)
        (rows,) = ring.rows(ring.b)
        assert list(rows) == [frozenset({ring.a, ring.b})]
        controller = ring.store._hosts[ring.store._owner(wire.txn_key(ring.b))]
        seeded = rows[frozenset({ring.a, ring.b})]
        assert seeded.extension is controller.txns[ring.b]["context_free"]

    def test_version_equal_and_digest_echoed_is_a_token_and_no_walk(self):
        ring, first = self.deferred_ring()
        batch, delta, stats = ring.round()
        assert delta["nc_unchanged"] == 2  # one token message per controller
        assert "nc_fetch_batch" not in delta and "nc_data" not in delta
        assert (stats.misses, stats.revalidations, stats.hits) == (0, 0, 3)
        for tid in (ring.a, ring.b, ring.c):
            assert batch.extensions[tid] is first.extensions[tid]

    def test_version_moved_but_closure_untouched_walks_and_derives_nothing(self):
        ring, first = self.deferred_ring()
        ring.decide(ring.reader, applied=[ring.c])  # disjoint from A, B
        batch, delta, stats = ring.round()
        # The verdicts are refetched exactly as before ...
        assert delta["nc_fetch_batch"] == delta["nc_member_batch"] == 1
        # ... the walk ends on the same closures, and the table answers.
        assert delta["nc_unchanged"] == 2 and "nc_data" not in delta
        assert (stats.misses, stats.revalidations, stats.hits) == (0, 2, 0)
        assert batch.extensions[ring.b] is first.extensions[ring.b]

    def test_an_applied_member_is_one_fresh_derivation(self):
        ring, first = self.deferred_ring()
        ring.decide(ring.reader, applied=[ring.a])
        batch, delta, stats = ring.round()
        assert delta["nc_fetch_batch"] == 1
        assert delta["nc_data"] == delta["nc_unchanged"] == 1
        # B now stops at A: a closure no one derived yet.  C's did not move.
        assert (stats.misses, stats.revalidations, stats.hits) == (1, 1, 0)
        fresh = batch.extensions[ring.b]
        assert fresh.members == (ring.b,)
        assert fresh is not first.extensions[ring.b]
        retained = ring.store._peers[ring.reader].retained
        assert retained[ring.b]["digest"] == wire.extension_digest(fresh)
        assert retained[ring.b]["digest"] != wire.extension_digest(first.extensions[ring.b])
        (rows,) = ring.rows(ring.b)
        assert set(rows) == {frozenset({ring.a, ring.b}), frozenset({ring.b})}

    def test_a_client_that_dropped_its_payload_is_reshipped_from_the_table(self):
        ring, first = self.deferred_ring()
        ring.store._peers[ring.reader].retained.clear()
        data_bytes = ring.store.network.kind_bytes["nc_data"]
        batch, delta, stats = ring.round()
        assert delta["nc_data"] == 3 and "nc_unchanged" not in delta
        assert "nc_fetch_batch" not in delta
        assert (stats.misses, stats.revalidations, stats.hits) == (0, 0, 3)
        # Bodies are cached client-side; the extensions travel again.
        assert ring.store.network.kind_bytes["nc_data"] > data_bytes
        assert batch.extensions[ring.b] is first.extensions[ring.b]

    def test_without_context_free_shipping_the_first_walk_derives(self):
        ring = Ring(ship_context_free=False)
        assert ring.store.derivation_stats().misses == 0
        _batch, _delta, stats = ring.round()
        assert (stats.misses, stats.shipped) == (3, 0)
        ring.decide(ring.reader, deferred=[ring.a, ring.b, ring.c])
        ring.decide(ring.reader, applied=[ring.c])
        _batch, _delta, stats = ring.round()
        assert (stats.misses, stats.revalidations) == (0, 2)
        # Retirement does not depend on a record's ``context_free``.
        ring.decide(ring.reader, applied=[ring.a, ring.b])
        assert ring.rows(ring.a) == ring.rows(ring.b) == ring.rows(ring.c) == []

    def test_the_last_final_verdict_empties_the_table_of_the_root(self):
        ring, _first = self.deferred_ring()
        ring.decide(ring.reader, applied=[ring.a])
        ring.round()
        assert len(ring.rows(ring.b)[0]) == 2
        ring.decide(ring.writer, applied=[ring.c])
        ring.decide(ring.reader, applied=[ring.c], rejected=[ring.b])
        assert ring.rows(ring.a) == ring.rows(ring.b) == ring.rows(ring.c) == []
        for host in ring.store._hosts.values():
            assert host.nc_memo == {}

    def test_a_crash_empties_the_hosts_table(self):
        ring, _first = self.deferred_ring(replication_factor=2)
        name = ring.store._owner(wire.txn_key(ring.b))
        host = ring.store._hosts[name]
        assert host.derived and host.nc_memo and host.priorities
        ring.store.fail_host(name)
        ring.store.recover_host(name)
        assert host.derived == {} and host.nc_memo == {} and host.priorities == {}
        assert host.derive_stats.misses == 0
        # The promoted replica serves bodies and verdicts; the walk
        # derives B's extension afresh and the decision is the same one.
        batch, _delta, stats = ring.round()
        assert batch.extensions[ring.b].members == (ring.a, ring.b)
        assert stats.misses >= 1

    def test_stats_ride_on_the_report(self):
        config = ConfederationConfig(
            store="dht", store_options={"hosts": 3}, peers=(1, 2, 3),
            network_centric="store", reconciliation_interval=2, rounds=2,
            workload=WorkloadConfig(transaction_size=1, seed=5),
        )
        with Confederation.from_config(config) as confed:
            report = confed.run()
            assert report.store_cache_stats == confed.store.derivation_stats()
            assert report.store_cache_stats.shipped == report.transactions_published


# ----------------------------------------------------------------------
# Seeded runs through the front door.


def run(peers, hosts, rounds, faults=None, replication_factor=1):
    """A seeded store-computed run: ``(decision stream, report)``."""
    config = ConfederationConfig(
        store="dht",
        store_options={"hosts": hosts, "replication_factor": replication_factor},
        peers=tuple(range(1, peers + 1)),
        network_centric="store",
        reconciliation_interval=2,
        rounds=rounds,
        final_reconcile=True,
        faults=faults,
        workload=WorkloadConfig(transaction_size=2, seed=73),
    )
    hooks = HookBus()
    decisions = decision_stream(hooks)
    with Confederation.from_config(config, hooks=hooks) as confed:
        return decisions, confed.run()


def test_a_crashed_and_recovered_host_changes_no_decision():
    crash = FaultPlan(
        seed=6, crashes=(HostCrash("host:1", at_epoch=6, recover_at_epoch=14),)
    )
    calm, _report = run(6, 3, 3, replication_factor=2)
    stormy, report = run(6, 3, 3, faults=crash, replication_factor=2)
    assert report.faults.total_injected == 1 and report.faults.recoveries == 1
    assert stormy == calm and {d[3] for d in calm} >= {"accept", "defer"}


def test_derivations_are_bounded_by_distinct_closures(monkeypatch):
    """16 peers x 8 hosts x 4 rounds, store-computed, seed 73: a
    controller derives at most once per distinct (root, closure) a walk
    ends on, plus once per published transaction (the seed row).

    The count repeats exactly.  Parent (762be4f): 2,657 walks finished,
    each one a derivation, plus 128 at publish = 2,785 ``_derive`` runs.
    Now: 237 — the 128 at publish and one for each of the 109 partial
    closures a walk ended on — for the same 2,657 walks, 65,909 messages
    and 7,783,432 bytes.
    """
    pairs, derivation = set(), nc._derivation

    def recording(host, held, bodies):
        pairs.add((held["transaction"].tid, frozenset(bodies)))
        return derivation(host, held, bodies)

    monkeypatch.setattr(nc, "_derivation", recording)
    _decisions, report = run(16, 8, 4)
    stats = report.store_cache_stats
    assert report.transactions_published == stats.shipped == 128
    assert stats.misses <= len(pairs) + report.transactions_published
    assert stats.misses + stats.revalidations - stats.shipped == 2657
    assert (stats.misses, len(pairs), stats.hits) == (237, 237, 27)
