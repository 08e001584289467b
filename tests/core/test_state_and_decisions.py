"""Unit tests for participant state bookkeeping and result records."""

from __future__ import annotations


from repro.core import Decision, ParticipantState, ReconcileResult
from repro.core.extensions import RelevantTransaction
from repro.model import Insert, TransactionId, make_transaction


def root(participant, seq, order):
    txn = make_transaction(
        participant, seq, [Insert("F", ("rat", f"p{seq}", "fn"), participant)]
    )
    return RelevantTransaction(txn, priority=1, order=order)


class TestParticipantState:
    def test_initial_state_is_empty(self):
        state = ParticipantState(7)
        assert state.participant == 7
        assert not state.applied and not state.rejected
        assert state.deferred == {}
        assert state.dirty_keys == set()
        assert state.last_recno == 0

    def test_record_applied_supersedes_everything(self):
        state = ParticipantState(1)
        tid = TransactionId(2, 0)
        state.record_rejected([tid])
        state.record_applied([tid])
        assert tid in state.applied
        assert tid not in state.rejected
        assert state.is_decided(tid)

    def test_record_deferred_and_reconsider(self):
        state = ParticipantState(1)
        entry = root(2, 0, order=5)
        state.record_deferred(entry)
        assert state.is_deferred(entry.tid)
        assert state.deferred_roots() == [entry]
        state.record_applied([entry.tid])
        assert not state.is_deferred(entry.tid)

    def test_deferred_roots_sorted_by_order(self):
        state = ParticipantState(1)
        late = root(2, 1, order=9)
        early = root(3, 0, order=2)
        state.record_deferred(late)
        state.record_deferred(early)
        assert [r.order for r in state.deferred_roots()] == [2, 9]

    def test_replace_soft_state(self):
        state = ParticipantState(1)
        state.replace_soft_state({("F", ("k",))}, {})
        assert state.dirty_keys == {("F", ("k",))}
        state.replace_soft_state(set(), {})
        assert state.dirty_keys == set()

    def test_rejection_leaves_deferred(self):
        state = ParticipantState(1)
        entry = root(2, 0, order=1)
        state.record_deferred(entry)
        state.record_rejected([entry.tid])
        assert not state.is_deferred(entry.tid)
        assert entry.tid in state.rejected


class TestDecision:
    def test_str_values(self):
        assert str(Decision.ACCEPT) == "accept"
        assert str(Decision.REJECT) == "reject"
        assert str(Decision.DEFER) == "defer"


class TestReconcileResult:
    def test_decided_counts_final_verdicts(self):
        result = ReconcileResult(recno=1)
        result.accepted = [TransactionId(1, 0)]
        result.rejected = [TransactionId(2, 0), TransactionId(2, 1)]
        result.deferred = [TransactionId(3, 0)]
        assert result.decided == 3

    def test_summary_mentions_all_counts(self):
        result = ReconcileResult(recno=9)
        text = result.summary()
        assert "recno=9" in text
        assert "accepted=0" in text
        assert "deferred=0" in text
