"""Engine tests: the scenarios of Figures 1-2 and Section 4.2, run directly
against ``Reconciler`` with hand-built batches."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Decision, ParticipantState, Reconciler
from repro.core.extensions import RelevantTransaction
from repro.instance import Instance
from repro.model import Delete, Insert, Modify, make_transaction
from repro.model.flatten import trace_runs

from tests.core.helpers import GraphBuilder, derive_extension
from tests.reference.mirror import examples
from tests.reference.oracle import Peer


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")
MOUSE2 = ("mouse", "prot2", "immune")
MOUSE2_RESP = ("mouse", "prot2", "cell-resp")
MOUSE3_RESP = ("mouse", "prot3", "cell-resp")


def make_reconciler(schema, participant):
    instance = Instance(schema)
    state = ParticipantState(participant)
    return Reconciler(schema, instance, state), instance, state


class TestSimpleAcceptance:
    def test_accepts_single_trusted_insert(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        txn = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        builder.add(txn)
        result = reconciler.reconcile(builder.batch(1, [(txn, 1)]))
        assert result.accepted == [txn.tid]
        assert instance.contains_row("F", MOUSE2)
        assert state.applied == {txn.tid}
        assert result.updates_applied == 1

    def test_chain_applied_through_extension(self, schema):
        # Accepting a modify transitively applies its untrusted antecedent.
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        x31 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(x30)
        builder.add(x31, antecedents=[x30.tid])
        # Only x31 is delivered as trusted; x30 rides along in its extension.
        result = reconciler.reconcile(builder.batch(1, [(x31, 1)]))
        assert result.accepted == [x31.tid]
        assert set(result.applied) == {x30.tid, x31.tid}
        assert instance.contains_row("F", RAT1_IMMUNE)
        assert state.applied == {x30.tid, x31.tid}

    def test_accepted_chain_is_flattened_once(self, schema):
        # With no member applied by an earlier root of the run, what is
        # applied *is* the extension CheckState examined: one trace, where
        # the parent flattened the same footprint again to apply it.
        reconciler, instance, _state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        x31 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(x30)
        builder.add(x31, antecedents=[x30.tid])
        before = trace_runs()
        result = reconciler.reconcile(builder.batch(1, [(x31, 1)]))
        assert trace_runs() == before + 1
        assert result.updates_applied == 1
        assert instance.snapshot()["F"] == {("rat", "prot1"): RAT1_IMMUNE}

    def test_incremental_reconciliation_applies_only_residual(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        builder.add(x30)
        reconciler.reconcile(builder.batch(1, [(x30, 1)]))
        assert instance.contains_row("F", RAT1)

        x31 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(x31, antecedents=[x30.tid])
        result = reconciler.reconcile(builder.batch(2, [(x31, 1)]))
        assert result.accepted == [x31.tid]
        assert instance.contains_row("F", RAT1_IMMUNE)
        assert not instance.contains_row("F", RAT1)

    def test_untrusted_root_is_not_delivered_model(self, schema):
        # The store only delivers trusted roots; an empty batch is a no-op.
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        result = reconciler.reconcile(builder.batch(1, []))
        assert result.accepted == []
        assert result.summary().startswith("recno=1")


class TestRejection:
    def test_incompatible_with_instance_rejected(self, schema):
        reconciler, instance, state = make_reconciler(schema, 2)
        instance.apply(Insert("F", RAT1_RESP, 2))
        builder = GraphBuilder()
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        builder.add(x30)
        result = reconciler.reconcile(builder.batch(1, [(x30, 1)]))
        assert result.rejected == [x30.tid]
        assert state.rejected == {x30.tid}
        assert instance.contains_row("F", RAT1_RESP)

    def test_dependent_of_rejected_is_rejected(self, schema):
        reconciler, instance, state = make_reconciler(schema, 2)
        instance.apply(Insert("F", RAT1_RESP, 2))
        builder = GraphBuilder()
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        builder.add(x30)
        reconciler.reconcile(builder.batch(1, [(x30, 1)]))

        x31 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(x31, antecedents=[x30.tid])
        result = reconciler.reconcile(builder.batch(2, [(x31, 1)]))
        assert result.rejected == [x31.tid]

    def test_own_delta_conflict_rejected(self, schema):
        # CheckState line 7: the participant prefers its own version even
        # when the instance test alone would admit the remote update.
        reconciler, instance, state = make_reconciler(schema, 2)
        # Own delta this epoch deleted the rat tuple.
        own_delete = Delete("F", RAT1, 2)
        builder = GraphBuilder()
        remote = make_transaction(3, 0, [Insert("F", RAT1_IMMUNE, 3)])
        builder.add(remote)
        result = reconciler.reconcile(
            builder.batch(1, [(remote, 1)]), own_updates=[own_delete]
        )
        assert result.rejected == [remote.tid]

    def test_higher_priority_accept_rejects_lower(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        high = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        low = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        builder.add(high)
        builder.add(low)
        result = reconciler.reconcile(builder.batch(1, [(high, 5), (low, 1)]))
        assert result.accepted == [high.tid]
        assert result.rejected == [low.tid]
        assert instance.contains_row("F", RAT1_IMMUNE)

    def test_conflict_with_rejected_does_not_block(self, schema):
        # A transaction conflicting only with an already-rejected one is
        # accepted (DoGroup removes rejected members from the group).
        reconciler, instance, state = make_reconciler(schema, 1)
        instance.apply(Insert("F", ("rat", "prot9", "x"), 1))
        builder = GraphBuilder()
        # bad is incompatible with the instance; good conflicts with bad.
        bad = make_transaction(3, 0, [Insert("F", ("rat", "prot9", "y"), 3)])
        good = make_transaction(2, 0, [Insert("F", ("rat", "prot9", "x"), 2)])
        builder.add(bad)
        builder.add(good)
        result = reconciler.reconcile(builder.batch(1, [(bad, 1), (good, 1)]))
        assert bad.tid in result.rejected
        assert good.tid in result.accepted  # idempotent re-insert


class TestDeferral:
    def test_equal_priority_conflict_defers_both(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        left = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        right = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        builder.add(left)
        builder.add(right)
        result = reconciler.reconcile(builder.batch(1, [(left, 1), (right, 1)]))
        assert set(result.deferred) == {left.tid, right.tid}
        assert result.accepted == []
        assert instance.count("F") == 0
        assert state.dirty_keys == {("F", ("rat", "prot1"))}
        assert len(state.conflict_groups) == 1

    def test_new_transaction_touching_dirty_key_deferred(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        left = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        right = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        builder.add(left)
        builder.add(right)
        reconciler.reconcile(builder.batch(1, [(left, 1), (right, 1)]))

        # A third, non-conflicting-with-anything insert of the same key
        # arrives later; the dirty-value rule defers it.
        late = make_transaction(4, 0, [Insert("F", RAT1_IMMUNE, 4)])
        builder.add(late)
        result = reconciler.reconcile(builder.batch(2, [(late, 1)]))
        assert late.tid in result.deferred

    def test_conflict_with_higher_priority_deferred_defers(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        # Two high-priority transactions conflict -> both deferred.
        high_a = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        high_b = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        # A lower-priority transaction conflicting with them must defer,
        # not reject: the user may reject both high ones later.
        low = make_transaction(4, 0, [Insert("F", RAT1, 4)])
        builder.add(high_a)
        builder.add(high_b)
        builder.add(low)
        result = reconciler.reconcile(
            builder.batch(1, [(high_a, 5), (high_b, 5), (low, 1)])
        )
        assert set(result.deferred) == {high_a.tid, high_b.tid, low.tid}

    def test_deferred_reconsidered_and_accepted_after_competitor_gone(
        self, schema
    ):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        left = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        right = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        builder.add(left)
        builder.add(right)
        reconciler.reconcile(builder.batch(1, [(left, 1), (right, 1)]))
        # Simulate resolution rejecting `right` out-of-band, then re-run.
        state.record_rejected([right.tid])
        result = reconciler.reconcile(builder.batch(2, []))
        assert result.accepted == [left.tid]
        assert instance.contains_row("F", RAT1_IMMUNE)
        assert state.dirty_keys == set()
        assert state.conflict_groups == {}


class TestFigure2:
    """The full worked example of Figures 1-2, at the engine level."""

    def test_four_epochs(self, schema):
        # Transactions as published.
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        x31 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        x20 = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        x21 = make_transaction(2, 1, [Insert("F", RAT1_RESP, 2)])

        builder = GraphBuilder()
        builder.add(x30)
        builder.add(x31, antecedents=[x30.tid])
        builder.add(x20)
        builder.add(x21)

        # Epoch 1: p3 publishes and reconciles; own updates only.
        recon3, inst3, state3 = make_reconciler(schema, 3)
        inst3.apply_all([u for u in x30.updates] + [u for u in x31.updates])
        state3.record_applied([x30.tid, x31.tid])
        state3.graph.merge(builder.graph)
        result = recon3.reconcile(builder.batch(1, []))
        assert inst3.snapshot()["F"] == {("rat", "prot1"): RAT1_IMMUNE}

        # Epoch 2: p2 publishes its two inserts, then reconciles seeing
        # p3's transactions (trusted at priority 1).
        recon2, inst2, state2 = make_reconciler(schema, 2)
        inst2.apply_all([u for u in x20.updates] + [u for u in x21.updates])
        state2.record_applied([x20.tid, x21.tid])
        result = recon2.reconcile(
            builder.batch(2, [(x30, 1), (x31, 1)]),
            own_updates=list(x20.updates) + list(x21.updates),
        )
        assert set(result.rejected) == {x30.tid, x31.tid}
        assert inst2.snapshot()["F"] == {
            ("mouse", "prot2"): MOUSE2,
            ("rat", "prot1"): RAT1_RESP,
        }

        # Epoch 3: p3 reconciles again, sees p2's transactions.
        result = recon3.reconcile(builder.batch(3, [(x20, 1), (x21, 1)]))
        assert result.accepted == [x20.tid]
        assert result.rejected == [x21.tid]
        assert inst3.snapshot()["F"] == {
            ("mouse", "prot2"): MOUSE2,
            ("rat", "prot1"): RAT1_IMMUNE,
        }

        # Epoch 4: p1 reconciles, trusting everyone equally.
        recon1, inst1, state1 = make_reconciler(schema, 1)
        result = recon1.reconcile(
            builder.batch(4, [(x30, 1), (x31, 1), (x20, 1), (x21, 1)])
        )
        assert result.accepted == [x20.tid]
        assert set(result.deferred) == {x30.tid, x31.tid, x21.tid}
        assert inst1.snapshot()["F"] == {("mouse", "prot2"): MOUSE2}

        # The deferral produced a single insert/insert conflict group at
        # the rat key, with three options (cell-metab, immune, cell-resp).
        groups = state1.open_conflicts()
        assert len(groups) == 1
        group = groups[0]
        assert group.key == ("F", ("rat", "prot1"))
        assert len(group.options) == 3


class TestSection42LeastInteraction:
    def test_revised_conflict_no_longer_blocks(self, schema):
        # Section 4.2: p3 inserted (mouse, prot2, cell-resp) then fixed it
        # to prot3; X2:0's insert of (mouse, prot2, immune) must be
        # accepted because the flattened own-delta no longer collides.
        recon3, inst3, state3 = make_reconciler(schema, 3)
        x32 = make_transaction(3, 2, [Insert("F", MOUSE2_RESP, 3)])
        x33 = make_transaction(
            3, 3, [Modify("F", MOUSE2_RESP, MOUSE3_RESP, 3)]
        )
        inst3.apply_all(list(x32.updates) + list(x33.updates))
        state3.record_applied([x32.tid, x33.tid])

        builder = GraphBuilder()
        builder.add(x32)
        builder.add(x33, antecedents=[x32.tid])
        x20 = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        builder.add(x20)

        result = recon3.reconcile(
            builder.batch(1, [(x20, 1)]),
            own_updates=list(x32.updates) + list(x33.updates),
        )
        assert result.accepted == [x20.tid]
        assert inst3.contains_row("F", MOUSE2)
        assert inst3.contains_row("F", MOUSE3_RESP)

    def test_applied_is_the_operative_verdict(self, schema):
        # X2:0 is deferred as a proposal (it collides with X4:0 at equal
        # priority), but X2:1's flattened extension revised that insert
        # away, so accepting X2:1 applies X2:0 as its member: the record
        # of the run says applied, and no deferral or rejection of X2:0
        # is kept.
        reconciler, _instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        x20 = make_transaction(2, 0, [Insert("F", RAT1, 2)])
        x21 = make_transaction(2, 1, [Modify("F", RAT1, MOUSE3_RESP, 2)])
        x40 = make_transaction(4, 0, [Insert("F", RAT1_IMMUNE, 4)])
        builder.add(x20)
        builder.add(x21, antecedents=[x20.tid])
        builder.add(x40)
        result = reconciler.reconcile(
            builder.batch(1, [(x20, 1), (x21, 1), (x40, 1)])
        )
        assert result.decisions[x20.tid] is Decision.DEFER
        assert set(result.applied) == {x20.tid, x21.tid}
        assert result.deferred == [x40.tid]
        assert x20.tid not in state.deferred
        assert x20.tid not in state.rejected


class TestMonotonicity:
    def test_applied_transactions_never_roll_back(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        first = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        builder.add(first)
        reconciler.reconcile(builder.batch(1, [(first, 1)]))
        assert instance.contains_row("F", RAT1_IMMUNE)

        # A conflicting insert arrives later, even at higher priority: the
        # applied update is not rolled back; the newcomer is rejected as
        # incompatible with the instance.
        later = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        builder.add(later)
        result = reconciler.reconcile(builder.batch(2, [(later, 9)]))
        assert result.rejected == [later.tid]
        assert instance.contains_row("F", RAT1_IMMUNE)

    def test_replacement_of_applied_state_is_allowed(self, schema):
        # Monotonicity forbids rollback, not forward revision: a trusted
        # modify whose antecedent is already applied goes through.
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        first = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        builder.add(first)
        reconciler.reconcile(builder.batch(1, [(first, 1)]))

        revision = make_transaction(
            3, 0, [Modify("F", RAT1_IMMUNE, RAT1_RESP, 3)]
        )
        builder.add(revision, antecedents=[first.tid])
        result = reconciler.reconcile(builder.batch(2, [(revision, 1)]))
        assert result.accepted == [revision.tid]
        assert instance.contains_row("F", RAT1_RESP)


class TestOwnDeltaOnDemand:
    """CheckState line 7's operand — the flattened own delta — is traced
    by the first root that reaches that test, at most once, and not at
    all when none does; every decision is what flattening it up front
    gave."""

    #: Two deletions the participant made this epoch (two updates: a
    #: single one is its own net effect and is never traced).
    OWN = [Delete("F", RAT1, 1), Delete("F", MOUSE2, 1)]

    @staticmethod
    def traces(run):
        before = trace_runs()
        result = run()
        return trace_runs() - before, result

    def test_roots_decided_before_line_7_do_not_trace(self, schema):
        def run(own_updates):
            reconciler, _instance, state = make_reconciler(schema, 1)
            builder = GraphBuilder()
            bad = make_transaction(3, 0, [Insert("F", RAT1, 3)])
            child = make_transaction(3, 1, [Modify("F", RAT1, RAT1_RESP, 3)])
            dirty = make_transaction(2, 0, [Insert("F", MOUSE3_RESP, 2)])
            builder.add(bad)
            builder.add(child, antecedents=[bad.tid])
            builder.add(dirty)
            state.graph.merge(builder.graph)
            state.record_rejected([bad.tid])
            state.replace_soft_state({("F", ("mouse", "prot3"))}, dict)
            batch = builder.batch(1, [(child, 1), (dirty, 1)])
            traced, result = self.traces(
                lambda: reconciler.reconcile(batch, own_updates=own_updates)
            )
            assert result.decisions == {
                child.tid: Decision.REJECT,  # a member is rejected
                dirty.tid: Decision.DEFER,  # touches a dirty key
            }
            return traced

        # (The child's own two-update footprint is traced either way.)
        assert run(self.OWN) == run([])

    def test_second_root_reaches_line_7_first_and_traces_once(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        state.replace_soft_state({("F", ("mouse", "prot3"))}, dict)
        builder = GraphBuilder()
        dirty = make_transaction(2, 0, [Insert("F", MOUSE3_RESP, 2)])
        clash = make_transaction(3, 0, [Insert("F", RAT1_IMMUNE, 3)])
        clash_too = make_transaction(4, 0, [Insert("F", MOUSE2_RESP, 4)])
        free = make_transaction(5, 0, [Insert("F", ("rat", "prot7", "x"), 5)])
        for txn in (dirty, clash, clash_too, free):
            builder.add(txn)
        batch = builder.batch(
            1, [(dirty, 1), (clash, 1), (clash_too, 1), (free, 1)]
        )
        traced, result = self.traces(
            lambda: reconciler.reconcile(batch, own_updates=self.OWN)
        )
        assert traced == 1
        assert result.decisions == {
            dirty.tid: Decision.DEFER,
            clash.tid: Decision.REJECT,  # fits the instance; own delta wins
            clash_too.tid: Decision.REJECT,
            free.tid: Decision.ACCEPT,
        }
        assert instance.snapshot()["F"] == {("rat", "prot7"): free.updates[0].row}

    def test_roots_missing_every_raw_own_key_do_not_trace(self, schema):
        # Two roots reach line 7, but neither touches a key an own update
        # does: the flattened delta could not meet them, so it is never
        # traced (the parent traced it for the first: +1).
        reconciler, instance, _state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        first = make_transaction(2, 0, [Insert("F", MOUSE3_RESP, 2)])
        second = make_transaction(3, 0, [Insert("F", ("rat", "prot7", "x"), 3)])
        for txn in (first, second):
            builder.add(txn)
        batch = builder.batch(1, [(first, 1), (second, 1)])
        traced, result = self.traces(
            lambda: reconciler.reconcile(batch, own_updates=self.OWN)
        )
        assert traced == 0
        assert result.decisions == {
            first.tid: Decision.ACCEPT,
            second.tid: Decision.ACCEPT,
        }
        assert len(instance.snapshot()["F"]) == 2


class TestFootprintCompiledOnce:
    """An extension's instance footprint is a function of its operations:
    compiled by whoever checks the object first, for everyone holding it
    and for every re-priced copy.  The parent commit re-derived it inside
    every ``can_apply_set`` / ``apply_set``: once per participant per
    check."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Who compiled: ``"extension"`` (the memo) or ``"raw"`` (the
        instance, handed an update list)."""
        import repro.core.extensions as extensions_module
        import repro.instance.base as base_module

        calls = []
        compile_footprint = base_module.compile_footprint

        def counting(label):
            def compile_and_count(schema, updates):
                calls.append(label)
                return compile_footprint(schema, updates)

            return compile_and_count

        monkeypatch.setattr(extensions_module, "compile_footprint", counting("extension"))
        monkeypatch.setattr(base_module, "compile_footprint", counting("raw"))
        return calls

    def test_one_shipped_extension_three_participants(self, schema, compiled):
        builder = GraphBuilder()
        txn = make_transaction(9, 0, [Insert("F", RAT1, 9), Insert("F", MOUSE2, 9)])
        builder.add(txn)
        [root] = builder.batch(1, [(txn, 1)]).roots
        shipped = derive_extension(schema, builder.graph, root, set())
        instances = []
        for participant, priority in ((1, 1), (2, 1), (3, 2)):
            reconciler, instance, _state = make_reconciler(schema, participant)
            batch = builder.batch(1, [(txn, priority)])
            batch.extensions = {txn.tid: shipped}
            result = reconciler.reconcile(batch)
            assert result.accepted == [txn.tid]
            assert result.cache_stats.shipped == 1
            instances.append(instance)
        # Checked three times and applied three times, the third time at
        # priority 2: compiled once.
        assert compiled == ["extension"]
        assert instances[0] == instances[1] == instances[2]
        assert instances[0].count("F") == 2

    def test_the_residual_path_compiles_its_own(self, schema, compiled):
        reconciler, instance, _state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        x31 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(x30)
        builder.add(x31, antecedents=[x30.tid])
        result = reconciler.reconcile(builder.batch(1, [(x30, 1), (x31, 1)]))
        assert result.accepted == [x30.tid, x31.tid]
        # Each extension once for CheckState (x30's again to apply it:
        # memoized); x31 applies without its applied member x30 — a fresh
        # flatten, handed over raw.
        assert compiled == ["extension", "extension", "raw"]
        assert instance.snapshot()["F"] == {("rat", "prot1"): RAT1_IMMUNE}


class TestWithheldRoots:
    """FindConflicts is handed the roots CheckState did not reject: no
    later step reads a rejected root's edges, so it is never bucketed or
    compared — while a root CheckState *deferred* still is."""

    @staticmethod
    def sets_indexed(reconciler):
        """Record the root sets the reconciler's index is brought to: once
        per reconcile, by FindConflicts (UpdateSoftState only discards)."""
        index, seen = reconciler._conflict_index, []
        update = index.update

        def recording(schema, graph, extensions, shared=None):
            seen.append(set(extensions))
            return update(schema, graph, extensions, shared)

        index.update = recording
        return seen

    def test_a_rejected_root_is_never_compared(self, schema):
        reconciler, instance, _state = make_reconciler(schema, 1)
        instance.apply(Insert("F", ("rat", "prot9", "x"), 1))
        builder = GraphBuilder()
        # ``bad`` does not fit the instance; it is ``good``'s only partner.
        bad = make_transaction(3, 0, [Insert("F", ("rat", "prot9", "y"), 3)])
        good = make_transaction(2, 0, [Insert("F", ("rat", "prot9", "x"), 2)])
        builder.add(bad)
        builder.add(good)
        seen = self.sets_indexed(reconciler)
        result = reconciler.reconcile(builder.batch(1, [(bad, 1), (good, 1)]))
        assert result.decisions == {bad.tid: Decision.REJECT, good.tid: Decision.ACCEPT}
        assert seen == [{good.tid}]
        assert len(reconciler._conflict_index) == 0  # ``good`` was decided
        stats = reconciler.cache.stats
        assert (stats.pair_hits, stats.pair_misses) == (0, 0)

    def test_a_deferred_root_now_rejected_leaves_at_the_first_update(self, schema):
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        left = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        right = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        builder.add(left)
        builder.add(right)
        reconciler.reconcile(builder.batch(1, [(left, 1), (right, 1)]))
        assert set(state.deferred) == {left.tid, right.tid}
        compared = reconciler.cache.stats.pair_misses
        # The participant settles the key itself: neither fits any more.
        instance.apply(Insert("F", RAT1, 1))
        seen = self.sets_indexed(reconciler)
        result = reconciler.reconcile(builder.batch(2, []))
        assert set(result.rejected) == {left.tid, right.tid}
        assert seen == [set()]
        assert len(reconciler._conflict_index) == 0
        assert reconciler.cache.stats.pair_misses == compared
        assert state.conflict_groups == {} and state.dirty_keys == set()

    def test_a_root_deferred_by_checkstate_still_stands(self, schema):
        # ``late`` touches a dirty key (CheckState: DEFER) and a clean
        # one, where lower-priority ``low`` conflicts with it: ``low``
        # must wait for ``late`` — which it can only see in the index.
        reconciler, instance, state = make_reconciler(schema, 1)
        builder = GraphBuilder()
        left = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        right = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        builder.add(left)
        builder.add(right)
        reconciler.reconcile(builder.batch(1, [(left, 1), (right, 1)]))
        late = make_transaction(
            4, 0, [Insert("F", RAT1_IMMUNE, 4), Insert("F", MOUSE2, 4)]
        )
        low = make_transaction(5, 0, [Insert("F", MOUSE2_RESP, 5)])
        builder.add(late)
        builder.add(low)
        result = reconciler.reconcile(builder.batch(2, [(late, 5), (low, 1)]))
        assert result.decisions[late.tid] is Decision.DEFER
        assert result.decisions[low.tid] is Decision.DEFER
        assert instance.count("F") == 0
        assert ("insert/insert", ("F", ("mouse", "prot2"))) in state.conflict_groups

    def test_do_group_defers_the_end_naming_a_one_sided_edge(self, schema):
        # Figure 5's lines 13-17 as the oracle states them: a survivor
        # whose own adjacency names a survivor is deferred.  Every
        # producer writes both ends, so only a hand-built adjacency
        # tells the two ends apart.
        reconciler, _instance, _state = make_reconciler(schema, 1)
        first, second, third = (
            make_transaction(origin, 0, [Insert("F", MOUSE2, origin)]).tid
            for origin in (2, 3, 4)
        )
        decision = dict.fromkeys((first, second, third), Decision.ACCEPT)
        # A hand-built adjacency naming the edge at one end only.
        reconciler._do_group([first, second, third], set(), {first: {second}}, decision)
        assert decision == {
            first: Decision.DEFER,
            second: Decision.ACCEPT,
            third: Decision.ACCEPT,
        }


@st.composite
def do_group_inputs(draw):
    """Roots over one to three priority levels, each with a CheckState
    pre-verdict, and an adjacency among them: both ends of every edge,
    or only the ends drawn."""
    count = draw(st.integers(1, 8))
    levels = draw(st.integers(1, 3))
    priorities = draw(st.lists(st.integers(1, levels), min_size=count, max_size=count))
    verdicts = draw(st.lists(st.sampled_from(Decision), min_size=count, max_size=count))
    ends = draw(
        st.sets(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)).filter(
                lambda edge: edge[0] != edge[1]
            )
        )
    )
    if draw(st.booleans()):  # symmetric, as every producer writes it
        ends |= {(b, a) for a, b in ends}
    return priorities, verdicts, ends


@settings(
    max_examples=examples(200),
    deadline=None,
    # ``schema`` is read, never written: no example sees another's.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(do_group_inputs())
def test_do_groups_decides_as_the_oracle_does(schema, inputs):
    """``DoGroup`` verdict for verdict against the reference oracle's,
    which shares no code with the engine — symmetric or not."""
    priorities, verdicts, ends = inputs
    reconciler, _instance, _state = make_reconciler(schema, 1)
    roots = [
        RelevantTransaction(
            make_transaction(origin, 0, [Insert("F", MOUSE2, origin)]), priority, origin
        )
        for origin, priority in enumerate(priorities, start=2)
    ]
    tids = [root.tid for root in roots]
    adjacency = {tid: set() for tid in tids}
    for a, b in ends:
        adjacency[tids[a]].add(tids[b])
    decision = dict(zip(tids, verdicts))
    expected = {tid: verdict.value for tid, verdict in decision.items()}
    # The engine reads only the roots with an edge, as an index keeps them.
    reconciler._do_groups(
        roots, {tid: near for tid, near in adjacency.items() if near}, decision
    )
    # (The oracle's DoGroup reads nothing of its peer.)
    Peer.do_groups(None, dict(zip(tids, priorities)), adjacency, expected)
    assert {tid: verdict.value for tid, verdict in decision.items()} == expected
