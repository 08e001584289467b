"""Tests for the participant lifecycle over a real update store."""

from __future__ import annotations

import pytest

from repro.confed import Confederation
from repro.errors import ConfigError, ConstraintViolation
from repro.model import Insert, Modify
from repro.policy import TrustPolicy
from repro.store import MemoryUpdateStore


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")
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


class TestResolutionThroughParticipant:
    def test_resolve_reports_to_store(self, confed):
        from repro.core import Resolution

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
