"""Tests for user-driven conflict resolution."""

from __future__ import annotations

import copy

import pytest

from repro.core import (
    ParticipantState,
    ReconciliationBatch,
    Reconciler,
    RelevantTransaction,
    Resolution,
    resolve_conflicts,
)
from repro.core.resolution import pending_resolutions
from repro.errors import ResolutionError
from repro.instance import Instance
from repro.model import Insert, Modify, make_transaction

from tests.core.helpers import GraphBuilder


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")


def deferred_figure2_tail(schema):
    """p1's epoch-4 state from Figure 2: three deferred rat transactions."""
    instance = Instance(schema)
    state = ParticipantState(1)
    reconciler = Reconciler(schema, instance, state)
    builder = GraphBuilder()
    x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
    x31 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
    x21 = make_transaction(2, 1, [Insert("F", RAT1_RESP, 2)])
    builder.add(x30)
    builder.add(x31, antecedents=[x30.tid])
    builder.add(x21)
    reconciler.reconcile(builder.batch(1, [(x30, 1), (x31, 1), (x21, 1)]))
    return reconciler, instance, state, (x30, x31, x21)


class TestResolveConflicts:
    def test_choosing_an_option_applies_it_and_rejects_losers(self, schema):
        reconciler, instance, state, (x30, x31, x21) = deferred_figure2_tail(
            schema
        )
        groups = state.open_conflicts()
        assert len(groups) == 1
        group = groups[0]
        # Find the option whose effect is the immune row (x31's chain).
        immune_index = next(
            i for i, opt in enumerate(group.options) if opt.effect == RAT1_IMMUNE
        )
        result = resolve_conflicts(
            reconciler,
            [Resolution(group_id=group.group_id, chosen_option=immune_index)],
        )
        assert x31.tid in result.accepted
        assert instance.contains_row("F", RAT1_IMMUNE)
        # x21 was rejected; x30 is x31's antecedent, applied, not rejected.
        assert x21.tid in state.rejected
        assert x30.tid in state.applied
        assert x30.tid not in state.rejected
        assert state.deferred == {}
        assert state.conflict_groups == {}
        assert state.dirty_keys == set()

    def test_choosing_the_antecedent_option_rejects_dependent(self, schema):
        reconciler, instance, state, (x30, x31, x21) = deferred_figure2_tail(
            schema
        )
        group = state.open_conflicts()[0]
        metab_index = next(
            i for i, opt in enumerate(group.options) if opt.effect == RAT1
        )
        result = resolve_conflicts(
            reconciler,
            [Resolution(group_id=group.group_id, chosen_option=metab_index)],
        )
        assert x30.tid in result.accepted
        assert instance.contains_row("F", RAT1)
        # x31 depends on a state the user overrode; it was in a losing
        # option, so it is rejected.
        assert x31.tid in state.rejected
        assert x21.tid in state.rejected

    def test_rejecting_every_option(self, schema):
        reconciler, instance, state, (x30, x31, x21) = deferred_figure2_tail(
            schema
        )
        group = state.open_conflicts()[0]
        resolve_conflicts(
            reconciler,
            [Resolution(group_id=group.group_id, chosen_option=None)],
        )
        assert instance.count("F") == 0
        assert {x30.tid, x31.tid, x21.tid} <= state.rejected
        assert state.deferred == {}

    def test_unknown_group_raises(self, schema):
        reconciler, instance, state, _txns = deferred_figure2_tail(schema)
        with pytest.raises(ResolutionError):
            resolve_conflicts(
                reconciler,
                [Resolution(group_id=("insert/insert", ("F", ("no",))), chosen_option=0)],
            )

    def test_bad_option_index_raises(self, schema):
        reconciler, instance, state, _txns = deferred_figure2_tail(schema)
        group = state.open_conflicts()[0]
        with pytest.raises(ResolutionError):
            resolve_conflicts(
                reconciler,
                [Resolution(group_id=group.group_id, chosen_option=99)],
            )

    def test_pending_resolutions_describe_groups(self, schema):
        reconciler, instance, state, _txns = deferred_figure2_tail(schema)
        descriptions = pending_resolutions(reconciler)
        assert len(descriptions) == 1
        assert "rat" in descriptions[0]

    def test_dirty_keys_released_after_resolution(self, schema):
        reconciler, instance, state, (x30, x31, x21) = deferred_figure2_tail(
            schema
        )
        assert state.dirty_keys == {("F", ("rat", "prot1"))}
        group = state.open_conflicts()[0]
        resolve_conflicts(
            reconciler, [Resolution(group_id=group.group_id, chosen_option=None)]
        )
        assert state.dirty_keys == set()

        # A new transaction on the formerly dirty key now goes through.
        builder = GraphBuilder()
        state.graph.merge(builder.graph)
        late = make_transaction(4, 0, [Insert("F", RAT1_IMMUNE, 4)])
        order = len(state.graph)
        state.graph.add((late, (), order + 100))
        batch = ReconciliationBatch(
            recno=3,
            roots=[RelevantTransaction(late, priority=1, order=order + 100)],
            graph=state.graph,
        )
        result = reconciler.reconcile(batch)
        assert result.accepted == [late.tid]


class TestGroupsOutliveTheEpoch:
    """A conflict group no pair moved at is the same object epoch after
    epoch (the index hands it back instead of rebuilding it), so nothing
    that is handed one may write to it: resolution only reads."""

    def test_an_untouched_group_is_reused_and_resolution_leaves_it_as_it_was(
        self, schema
    ):
        reconciler, _instance, state, _txns = deferred_figure2_tail(schema)
        left = make_transaction(4, 0, [Insert("F", ("mouse", "prot2", "immune"), 4)])
        right = make_transaction(5, 0, [Insert("F", ("mouse", "prot2", "resp"), 5)])
        roots = []
        for order, txn in enumerate((left, right), start=100):
            state.graph.add((txn, (), order))
            roots.append(RelevantTransaction(txn, priority=1, order=order))
        rat, mouse = (
            ("insert/insert", ("F", ("rat", "prot1"))),
            ("insert/insert", ("F", ("mouse", "prot2"))),
        )
        rat_group = state.conflict_groups[rat]
        reconciler.reconcile(ReconciliationBatch(recno=2, roots=roots, graph=state.graph))
        assert set(state.conflict_groups) == {rat, mouse}
        assert state.conflict_groups[rat] is rat_group  # nothing moved there
        mouse_group = state.conflict_groups[mouse]
        before = copy.deepcopy((rat_group, mouse_group))
        resolve_conflicts(reconciler, [Resolution(group_id=rat, chosen_option=None)])
        assert set(state.conflict_groups) == {mouse}
        assert state.conflict_groups[mouse] is mouse_group
        assert (rat_group, mouse_group) == before
