"""Tests for the participant lifecycle over a real update store."""

from __future__ import annotations

import pytest

from repro.cdss.participant import Participant
from repro.confed import Confederation, ConfederationConfig
from repro.core import Resolution
from repro.errors import ConfigError, ConstraintViolation, StoreError
from repro.model import Insert, Modify, make_transaction
from repro.net.clock import LatencyClock
from repro.policy import TrustPolicy
from repro.store import MemoryUpdateStore, available_stores, create_store
from repro.workload import WorkloadConfig, curated_schema


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")
RAT1_DEFENSE = ("rat", "prot1", "defense")
MOUSE2 = ("mouse", "prot2", "immune")


@pytest.fixture
def confed(schema):
    return Confederation(store=MemoryUpdateStore(schema)).open()


class TestLocalEditing:
    def test_execute_applies_locally_and_queues(self, confed):
        [p1] = confed.add_mutually_trusting_participants([1])
        txn = p1.execute([Insert("F", RAT1, 1)])
        assert p1.instance.contains_row("F", RAT1)
        assert p1.unpublished == (txn,)
        assert txn.tid.participant == 1

    def test_execute_constraint_violation_rolls_back(self, confed):
        [p1] = confed.add_mutually_trusting_participants([1])
        p1.execute([Insert("F", RAT1, 1)])
        with pytest.raises(ConstraintViolation):
            p1.execute([Insert("F", RAT1_IMMUNE, 1)])
        assert len(p1.unpublished) == 1

    def test_sequence_numbers_increase(self, confed):
        [p1] = confed.add_mutually_trusting_participants([1])
        t0 = p1.execute([Insert("F", RAT1, 1)])
        t1 = p1.execute([Modify("F", RAT1, RAT1_IMMUNE, 1)])
        assert t1.tid.sequence == t0.tid.sequence + 1


class TestPublishReconcile:
    def test_two_peer_sync(self, confed):
        p1, p2 = confed.add_mutually_trusting_participants([1, 2])
        p1.execute([Insert("F", RAT1, 1)])
        p1.publish_and_reconcile()
        result = p2.publish_and_reconcile()
        assert len(result.accepted) == 1
        assert p2.instance.contains_row("F", RAT1)
        assert confed.state_ratio() == 1.0

    def test_publish_clears_queue(self, confed):
        [p1] = confed.add_mutually_trusting_participants([1])
        p1.execute([Insert("F", RAT1, 1)])
        p1.publish()
        assert p1.unpublished == ()

    def test_chain_across_peers(self, confed):
        p1, p2, p3 = confed.add_mutually_trusting_participants([1, 2, 3])
        p1.execute([Insert("F", RAT1, 1)])
        p1.publish_and_reconcile()
        p2.publish_and_reconcile()  # p2 imports the insert
        p2.execute([Modify("F", RAT1, RAT1_IMMUNE, 2)])
        p2.publish_and_reconcile()
        p3.publish_and_reconcile()  # p3 imports the whole chain
        assert p3.instance.contains_row("F", RAT1_IMMUNE)
        assert not p3.instance.contains_row("F", RAT1)

    def test_divergence_with_equal_trust(self, confed):
        p1, p2, p3 = confed.add_mutually_trusting_participants([1, 2, 3])
        p1.execute([Insert("F", RAT1_IMMUNE, 1)])
        p1.publish_and_reconcile()
        p2.execute([Insert("F", RAT1_RESP, 2)])
        p2.publish_and_reconcile()
        # p2 rejected p1's version (incompatible with its own state);
        # both instances keep their own rows: tolerated disagreement.
        assert p1.instance.contains_row("F", RAT1_IMMUNE)
        assert p2.instance.contains_row("F", RAT1_RESP)
        assert confed.state_ratio() > 1.0
        # p3 sees both, trusts both equally: defers.
        result = p3.publish_and_reconcile()
        assert len(result.deferred) == 2
        assert len(p3.open_conflicts()) == 1

    def test_timings_recorded(self, confed):
        p1, p2 = confed.add_mutually_trusting_participants([1, 2])
        p1.execute([Insert("F", RAT1, 1)])
        p1.publish_and_reconcile()
        p2.publish_and_reconcile()
        assert len(p2.timings) == 1
        timing = p2.timings[0]
        assert timing.store_seconds > 0  # includes simulated latency
        assert timing.local_seconds > 0
        assert timing.store_messages > 0
        assert timing.total_seconds == pytest.approx(
            timing.store_seconds + timing.local_seconds
        )
        assert p2.total_store_seconds() == timing.store_seconds
        assert p2.total_local_seconds() == timing.local_seconds


@pytest.mark.parametrize("store", sorted(available_stores()))
def test_every_charged_message_is_in_one_store_phase(store, monkeypatch):
    """One thread drives a confederation, so the perf delta a store phase
    takes is its call's charge alone: over a whole run and a restore, on
    either schedule, the deltas ``_store_call`` measured add up to all
    the store charged.  A call made around it (a stashed bound method, a
    ``getattr``-built call) leaves a shortfall.  The run ends with a
    resolve of an open conflict group, whose report is a store call too."""
    deltas = []
    measured = Participant._store_call

    def recording(self, method, *args):
        result = measured(self, method, *args)
        deltas.append(result[1])
        return result

    monkeypatch.setattr(Participant, "_store_call", recording)
    for mode in ("serial", "async"):
        deltas.clear()
        config = ConfederationConfig(
            store=store, peers=(1, 2, 3, 4), reconciliation_interval=3, rounds=2,
            final_reconcile=True, schedule_mode=mode,
            workload=WorkloadConfig(transaction_size=2, seed=1),
        )
        with Confederation(config) as confed:
            confed.run()
            resolvable = [p for p in confed.participants if p.open_conflicts()]
            assert resolvable
            for participant in resolvable:
                group = participant.open_conflicts()[0]
                participant.resolve([Resolution(group.group_id, 0)])
            confed.restore()
            perf = confed.store.perf
            assert sum(delta.messages for delta in deltas) == perf.messages > 0
            assert sum(delta.simulated_seconds for delta in deltas) == pytest.approx(
                perf.simulated_seconds
            )


#: Every store method a participant calls: registration, publication and
#: its recovery read, reconciliation, and the three reads of a rebuild.
PARTICIPANT_STORE_METHODS = (
    "register_participant", "publish", "unpublished", "reconciliation_batch",
    "complete_reconciliation", "decided_transactions", "closure_entries",
    "last_reconciliation_epoch",
)


@pytest.mark.parametrize("store", sorted(available_stores()))
def test_every_store_call_a_participant_makes_is_a_store_phase(store, monkeypatch):
    """Where a store charges nothing for a call (no store charges
    ``unpublished`` or a rebuild's reads), a call made around
    ``_store_call`` leaves no shortfall to see.  So here every method a
    participant calls charges one message, and one publish is refused
    after its charge: over a run, a resolve, that refused publish and a
    restore, the store phases still measure every message charged."""
    deltas = []
    measured = Participant._store_call

    def recording(self, method, *args):
        before = self.store.perf.snapshot()
        try:
            result = measured(self, method, *args)
        except StoreError:
            deltas.append(self.store.perf.minus(before))
            raise
        deltas.append(result[1])
        return result

    def metered(instance, name, refused):
        call = getattr(instance, name)

        def charging(*args):
            instance.perf.charge(1, 0.0)
            if name == "publish" and refused:
                refused.pop()
                raise StoreError("publish refused after its round trip")
            return call(*args)

        setattr(instance, name, charging)

    monkeypatch.setattr(Participant, "_store_call", recording)
    for mode in ("serial", "async"):
        deltas.clear()
        config = ConfederationConfig(
            store=store, peers=(1, 2, 3, 4), reconciliation_interval=3, rounds=2,
            final_reconcile=True, schedule_mode=mode,
            workload=WorkloadConfig(transaction_size=2, seed=1),
        )
        instance = create_store(store, curated_schema())
        refused = []
        for name in PARTICIPANT_STORE_METHODS:
            metered(instance, name, refused)
        with Confederation(config, store=instance) as confed:
            confed.run()
            for participant in [p for p in confed.participants if p.open_conflicts()]:
                group = participant.open_conflicts()[0]
                participant.resolve([Resolution(group.group_id, 0)])
            p1 = confed.participant(1)
            p1.execute([Insert("F", ("newt", "prot9", "immune"), 1)])
            refused.append(True)
            with pytest.raises(StoreError, match="refused after its round trip"):
                p1.publish()
            assert len(p1.unpublished) == 1
            confed.restore()
            assert sum(delta.messages for delta in deltas) == instance.perf.messages > 0
        getattr(instance, "close", lambda: None)()


def test_a_store_call_that_raises_still_pays_what_it_charged(schema):
    """A refused call still made its round trip: the store phase pays the
    latency it charged (and the async clock accrues it as this
    participant's debt) whether or not the call returns."""

    class RecordingClock(LatencyClock):
        paid = 0.0

        def pay(self, seconds: float) -> None:
            self.paid += seconds

    store = MemoryUpdateStore(schema, message_latency=0.001, real_latency=True)
    p1 = Participant(1, store, TrustPolicy().trust_all(1))
    Participant(2, store, TrustPolicy().trust_all(1))
    store.clock = clock = RecordingClock()
    before = store.perf.snapshot()
    with pytest.raises(StoreError, match="cannot publish"):
        p1._store_call(store.publish, 1, [make_transaction(2, 0, [Insert("F", RAT1, 2)])])
    charged = store.perf.minus(before).simulated_seconds
    assert charged > 0
    assert clock.paid == pytest.approx(charged)


class TestResolutionThroughParticipant:
    def test_resolve_reports_to_store(self, confed):
        p1, p2, p3 = confed.add_mutually_trusting_participants([1, 2, 3])
        p1.execute([Insert("F", RAT1_IMMUNE, 1)])
        p1.publish_and_reconcile()
        p2.execute([Insert("F", RAT1_RESP, 2)])
        p2.publish_and_reconcile()
        p3.publish_and_reconcile()
        [group] = p3.open_conflicts()
        immune_index = next(
            i
            for i, opt in enumerate(group.options)
            if opt.effect == RAT1_IMMUNE
        )
        result = p3.resolve(
            [Resolution(group_id=group.group_id, chosen_option=immune_index)]
        )
        assert p3.instance.contains_row("F", RAT1_IMMUNE)
        assert len(result.accepted) == 1
        assert len(result.rejected) == 1
        assert p3.open_conflicts() == []

        # The store knows: nothing is redelivered on the next reconcile.
        p1.execute([Insert("F", MOUSE2, 1)])
        p1.publish_and_reconcile()
        result2 = p3.publish_and_reconcile()
        assert [str(t) for t in result2.accepted] == ["X1:1"]


class TestOpenFrontier:
    """A participant's graph is its open frontier: an entry leaves when
    its transaction is applied, and nothing decided afterwards misses it."""

    def test_own_delta_is_not_traced_without_a_foreign_root(self, confed):
        from repro.model.flatten import trace_runs

        p1, _p2 = confed.add_mutually_trusting_participants([1, 2])
        p1.execute([Insert("F", RAT1, 1)])
        p1.execute([Insert("F", MOUSE2, 1)])
        before = trace_runs()
        result = p1.publish_and_reconcile()
        assert result.decisions == {}
        assert trace_runs() == before  # the parent flattened the delta: +1

    def test_graph_is_empty_after_accept_only_epochs(self, confed):
        publisher, consumer = confed.add_mutually_trusting_participants([1, 2])
        for epoch in range(5):
            for serial in range(8):
                row = ("rat", f"p{epoch}-{serial}", "immune")
                publisher.execute([Insert("F", row, 1)])
            publisher.publish_and_reconcile()
            assert len(consumer.publish_and_reconcile().accepted) == 8
            # The parent kept every one: 8, 16, ... 40.
            assert len(consumer.state.graph) == 0
        assert len(publisher.state.graph) == 0

    def test_tracked_objects_retained_per_transaction(self, confed):
        """The ratchet on what one accepted transaction leaves on the heap
        for the collector to walk, inputs not counted: 2,048 single-insert
        transactions retained 10,455 GC-tracked objects before PR 17 (5.1
        each: the ``Transaction``, its id, its updates tuple, the store's
        ``_PublishedTransaction`` and each update's ``(schema, keys)``
        memo tuple) and retain 8,208 now (4.0: the log entry is one tuple,
        the memo two slots).

        Counted at the collector's fixed point.  CPython untracks a tuple
        whose contents are untracked only on a pass that has already
        untracked the contents, so after a *single* ``gc.collect()`` the
        count depends on which tuples it visits first: 8,191 at 486ffa3
        and 8,453 once a replica stores each update's memoized key tuple
        rather than a fresh one — the same heap, which a second pass
        reads as 8,208 on both commits, alone or in suite order."""
        import gc

        def tracked() -> int:
            counts = []
            while len(counts) < 2 or counts[-1] != counts[-2]:
                assert len(counts) < 8, "the collector did not settle"
                gc.collect()
                counts.append(len(gc.get_objects()))
            return counts[-1]

        publisher, consumer = confed.add_mutually_trusting_participants([1, 2])
        batches = [
            [[Insert("F", ("rat", f"p{epoch}-{serial}", "immune"), 1)]
             for serial in range(256)]
            for epoch in range(9)
        ]

        def run(batch):
            for updates in batch:
                publisher.execute(updates)
            publisher.publish()
            assert len(consumer.reconcile().accepted) == len(batch)

        run(batches[0])  # lazy set-up is not retention
        before = tracked()
        for batch in batches[1:]:
            run(batch)
        retained = tracked() - before
        assert retained <= 4.1 * 2048

    def chain_on_rat1(self, confed, rival: bool):
        """p3's view of ``X1:0 = +RAT1`` revised two ways — ``X1:1`` to
        immune, ``X4:0`` to defense — and, with ``rival``, of p2's
        competing insert ``X2:0`` published in between."""
        p1, p2, p3, p4 = confed.add_mutually_trusting_participants([1, 2, 3, 4])
        p1.execute([Insert("F", RAT1, 1)])
        p1.publish_and_reconcile()
        p4.publish_and_reconcile()
        if rival:
            p2.execute([Insert("F", RAT1_RESP, 2)])
            p2.publish_and_reconcile()
            assert len(p3.publish_and_reconcile().deferred) == 2
        p1.execute([Modify("F", RAT1, RAT1_IMMUNE, 1)])
        p1.publish_and_reconcile()
        p4.execute([Modify("F", RAT1, RAT1_DEFENSE, 4)])
        p4.publish_and_reconcile()
        return p2, p3

    @staticmethod
    def deferred_members(participant):
        """Each deferred root's transaction extension, as the engine's
        extension cache holds it after a reconciliation."""
        return {
            str(tid): list(map(str, extension.members))
            for tid, (_version, extension) in sorted(
                participant.reconciler.cache._entries.items()
            )
        }

    @staticmethod
    def in_graph(participant):
        state = participant.state
        decided = state.applied | state.rejected | set(state.deferred)
        assert len(state.graph) == sum(tid in state.graph for tid in decided)
        return sorted(str(tid) for tid in decided if tid in state.graph)

    @staticmethod
    def choose(participant, kind, effect):
        [group] = [g for g in participant.open_conflicts() if g.group_id[0] == kind]
        [index] = [i for i, o in enumerate(group.options) if o.effect == effect]
        return participant.resolve([Resolution(group.group_id, index)])

    def test_deferred_chain_applied_with_its_antecedent_by_a_resolution(
        self, confed
    ):
        _p2, p3 = self.chain_on_rat1(confed, rival=True)
        result = p3.publish_and_reconcile()  # both revisions: dirty key
        assert sorted(map(str, result.deferred)) == [
            "X1:0", "X1:1", "X2:0", "X4:0",
        ]
        assert self.deferred_members(p3) == {
            "X1:0": ["X1:0"],
            "X2:0": ["X2:0"],
            "X1:1": ["X1:0", "X1:1"],
            "X4:0": ["X1:0", "X4:0"],
        }

        # Epochs later the user picks the immune revision: its antecedent
        # is applied with it, the rival and the other revision rejected.
        result = self.choose(p3, "insert/insert", RAT1_IMMUNE)
        assert list(map(str, result.accepted)) == ["X1:0", "X1:1"]
        assert list(map(str, result.applied)) == ["X1:0", "X1:1"]
        assert sorted(map(str, result.rejected)) == ["X2:0", "X4:0"]
        assert p3.instance.snapshot()["F"] == {("rat", "prot1"): RAT1_IMMUNE}
        assert p3.open_conflicts() == []
        # Rejected closures stay (a later root may name one); applied left.
        assert self.in_graph(p3) == ["X2:0", "X4:0"]

    def test_deferred_chain_outlives_its_applied_antecedent(self, confed):
        p2, p3 = self.chain_on_rat1(confed, rival=False)
        result = p3.publish_and_reconcile()
        assert list(map(str, result.accepted)) == ["X1:0"]
        assert sorted(map(str, result.deferred)) == ["X1:1", "X4:0"]
        # The chain was X1:0 + revision when CheckState saw it; with X1:0
        # applied (and gone from the graph) soft state recomputed it.
        assert self.deferred_members(p3) == {"X1:1": ["X1:1"], "X4:0": ["X4:0"]}
        assert self.in_graph(p3) == ["X1:1", "X4:0"]

        p2.execute([Insert("F", MOUSE2, 2)])
        p2.publish_and_reconcile()
        later = p3.publish_and_reconcile()  # a later epoch: still deferred
        assert list(map(str, later.accepted)) == ["X2:0"]
        assert sorted(map(str, later.deferred)) == ["X1:1", "X4:0"]

        result = self.choose(p3, "replace/replace", RAT1_DEFENSE)
        assert list(map(str, result.accepted)) == ["X4:0"]
        assert list(map(str, result.rejected)) == ["X1:1"]
        assert p3.instance.snapshot()["F"] == {
            ("rat", "prot1"): RAT1_DEFENSE,
            ("mouse", "prot2"): MOUSE2,
        }
        assert self.in_graph(p3) == ["X1:1"]


class TestCDSS:
    def test_duplicate_participant_rejected(self, confed):
        # A duplicate id is a caller error (ConfigError), not a store
        # fault (StoreError).
        confed.add_participant(1, TrustPolicy())
        with pytest.raises(ConfigError):
            confed.add_participant(1, TrustPolicy())

    def test_lookup_and_len(self, confed):
        confed.add_mutually_trusting_participants([1, 2, 3])
        assert len(confed) == 3
        assert confed.participant(2).id == 2
        with pytest.raises(ConfigError):
            confed.participant(9)

    def test_participants_ordered_by_id(self, confed):
        confed.add_mutually_trusting_participants([3, 1, 2])
        assert [p.id for p in confed.participants] == [1, 2, 3]

    def test_schema_property(self, confed, schema):
        assert confed.schema is schema
