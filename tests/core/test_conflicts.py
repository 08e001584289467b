"""Direct unit tests for conflict detection, groups, and options."""

from __future__ import annotations


from repro.core import RelevantTransaction, classify_conflict
from repro.core.conflicts import (
    build_conflict_groups,
    direct_conflict_points,
    directly_conflict,
    find_conflicts,
)
from repro.core.extensions import compute_update_extension
from repro.model import Delete, Insert, Modify, make_transaction

from tests.core.helpers import GraphBuilder
from tests.reference.oracle import PAPER, Oracle


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")
MOUSE2 = ("mouse", "prot2", "immune")
MOUSE2_RESP = ("mouse", "prot2", "cell-resp")
MOUSE2_METAB = ("mouse", "prot2", "cell-metab")
FLY3 = ("fruitfly", "prot3", "transport")
FLY3_RESP = ("fruitfly", "prot3", "cell-resp")


def extension_of(schema, builder, txn, priority=1, applied=()):
    root = RelevantTransaction(
        txn, priority=priority, order=builder.graph.order_of(txn.tid)
    )
    return compute_update_extension(
        schema, builder.graph, root, set(applied)
    )


class TestClassifyConflict:
    def test_insert_insert(self):
        left = Insert("F", RAT1, 1)
        right = Insert("F", RAT1_IMMUNE, 2)
        assert classify_conflict(left, right) == "insert/insert"

    def test_delete_vs_replace_sorted(self):
        deletion = Delete("F", RAT1, 1)
        replacement = Modify("F", RAT1, RAT1_IMMUNE, 2)
        assert classify_conflict(deletion, replacement) == "delete/replace"
        assert classify_conflict(replacement, deletion) == "delete/replace"

    def test_replace_replace(self):
        left = Modify("F", RAT1, RAT1_IMMUNE, 1)
        right = Modify("F", RAT1, RAT1_RESP, 2)
        assert classify_conflict(left, right) == "replace/replace"


class TestDirectConflicts:
    def test_disjoint_extensions_compared_flat(self, schema):
        builder = GraphBuilder()
        a = make_transaction(1, 0, [Insert("F", RAT1_IMMUNE, 1)])
        b = make_transaction(2, 0, [Insert("F", RAT1_RESP, 2)])
        builder.add(a)
        builder.add(b)
        ext_a = extension_of(schema, builder, a)
        ext_b = extension_of(schema, builder, b)
        assert directly_conflict(schema, builder.graph, ext_a, ext_b)
        points = direct_conflict_points(schema, builder.graph, ext_a, ext_b)
        assert points == [("insert/insert", ("F", ("rat", "prot1")))]

    def test_shared_members_excluded(self, schema):
        # Both extensions share the base insert; their *differences*
        # (two replacements of the same row) are what conflict.
        builder = GraphBuilder()
        base = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        builder.add(base)
        left = make_transaction(2, 0, [Modify("F", RAT1, RAT1_IMMUNE, 2)])
        right = make_transaction(3, 0, [Modify("F", RAT1, RAT1_RESP, 3)])
        builder.add(left, antecedents=[base.tid])
        builder.add(right, antecedents=[base.tid])
        ext_left = extension_of(schema, builder, left)
        ext_right = extension_of(schema, builder, right)
        points = direct_conflict_points(
            schema, builder.graph, ext_left, ext_right
        )
        assert points == [("replace/replace", ("F", ("rat", "prot1")))]

    def test_identical_extensions_do_not_conflict(self, schema):
        builder = GraphBuilder()
        base = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        builder.add(base)
        ext = extension_of(schema, builder, base)
        assert not directly_conflict(schema, builder.graph, ext, ext)

    def test_least_interaction_through_shared_chain(self, schema):
        # left revises the shared base's row; right extends left's result:
        # the shared prefix must not self-conflict.
        builder = GraphBuilder()
        base = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        revise = make_transaction(2, 0, [Modify("F", RAT1, RAT1_IMMUNE, 2)])
        extend = make_transaction(
            3, 0, [Modify("F", RAT1_IMMUNE, RAT1_RESP, 3)]
        )
        builder.add(base)
        builder.add(revise, antecedents=[base.tid])
        builder.add(extend, antecedents=[revise.tid])
        ext_revise = extension_of(schema, builder, revise)
        ext_extend = extension_of(schema, builder, extend)
        # extend subsumes revise entirely; nothing unshared conflicts.
        assert ext_extend.subsumes(ext_revise)
        assert not directly_conflict(
            schema, builder.graph, ext_revise, ext_extend
        )

    def test_shared_member_inside_a_chain(self, schema):
        # Shrunk from WorkloadConfig(transaction_size=2, seed=5) on four
        # peers.  `revise` consumes a row value an already-applied
        # transaction of another peer re-produced, so value-based
        # provenance gives it no edge to `base`; `back` reaches `base`
        # through the mouse row.  Removing the shared `revise` leaves
        # [insert RAT1 ..., replace RAT1_IMMUNE -> RAT1]: a residual that
        # does not flatten on its own (FlattenError before the fix).
        builder = GraphBuilder()
        base = make_transaction(
            1, 0, [Insert("F", RAT1, 1), Insert("F", MOUSE2, 1)]
        )
        revise = make_transaction(
            1, 1, [Modify("F", RAT1, RAT1_IMMUNE, 1), Insert("F", FLY3, 1)]
        )
        back = make_transaction(
            1, 2,
            [Modify("F", RAT1_IMMUNE, RAT1, 1), Modify("F", MOUSE2, MOUSE2_RESP, 1)],
        )
        aside = make_transaction(1, 3, [Modify("F", FLY3, FLY3_RESP, 1)])
        clash = make_transaction(
            1, 4, [Delete("F", FLY3, 1), Insert("F", MOUSE2_METAB, 1)]
        )
        builder.add(base)
        builder.add(revise)
        builder.add(back, antecedents=[revise.tid, base.tid])
        builder.add(aside, antecedents=[revise.tid])
        builder.add(clash, antecedents=[revise.tid])
        ext_back = extension_of(schema, builder, back)
        assert ext_back.members == (base.tid, revise.tid, back.tid)
        ext_aside = extension_of(schema, builder, aside)
        assert direct_conflict_points(
            schema, builder.graph, ext_back, ext_aside
        ) == []
        # The unflattened side is still compared: a real clash is seen.
        ext_clash = extension_of(schema, builder, clash)
        assert ("insert/insert", ("F", ("mouse", "prot2"))) in (
            direct_conflict_points(schema, builder.graph, ext_back, ext_clash)
        )
        analysis = find_conflicts(
            schema,
            builder.graph,
            {e.root: e for e in (ext_back, ext_aside, ext_clash)},
        )
        assert analysis.adjacency[back.tid] == {clash.tid}


class TestFindConflicts:
    def test_adjacency_is_symmetric(self, schema):
        builder = GraphBuilder()
        a = make_transaction(1, 0, [Insert("F", RAT1_IMMUNE, 1)])
        b = make_transaction(2, 0, [Insert("F", RAT1_RESP, 2)])
        c = make_transaction(3, 0, [Insert("F", MOUSE2, 3)])
        for txn in (a, b, c):
            builder.add(txn)
        extensions = {
            txn.tid: extension_of(schema, builder, txn) for txn in (a, b, c)
        }
        conflicts = find_conflicts(schema, builder.graph, extensions).adjacency
        assert conflicts[a.tid] == {b.tid}
        assert conflicts[b.tid] == {a.tid}
        assert conflicts[c.tid] == set()

    def test_subsumed_pairs_skipped(self, schema):
        builder = GraphBuilder()
        base = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        revision = make_transaction(1, 1, [Modify("F", RAT1, RAT1_IMMUNE, 1)])
        builder.add(base)
        builder.add(revision, antecedents=[base.tid])
        extensions = {
            base.tid: extension_of(schema, builder, base),
            revision.tid: extension_of(schema, builder, revision),
        }
        conflicts = find_conflicts(schema, builder.graph, extensions).adjacency
        assert conflicts[base.tid] == set()
        assert conflicts[revision.tid] == set()


    def test_single_update_pair_conflicts_where_both_touch(self, schema):
        # The single-update fast path, reached from a from-scratch call:
        # a replacement that moves its row touches two keys, and the
        # pair conflicts only at the one the insertion touches too.
        builder = GraphBuilder()
        seed = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        move = make_transaction(1, 1, [Modify("F", RAT1, MOUSE2, 1)])
        rival = make_transaction(2, 0, [Insert("F", MOUSE2_RESP, 2)])
        builder.add(seed)
        builder.add(move, antecedents=[seed.tid])
        builder.add(rival)
        ext_move = extension_of(schema, builder, move, applied=[seed.tid])
        ext_rival = extension_of(schema, builder, rival)
        assert len(ext_move.key_index(schema)) == 2
        expected = direct_conflict_points(schema, builder.graph, ext_move, ext_rival)
        assert expected == [("insert/replace", ("F", ("mouse", "prot2")))]
        for first, second in ((ext_move, ext_rival), (ext_rival, ext_move)):
            analysis = find_conflicts(
                schema, builder.graph, {first.root: first, second.root: second}
            )
            assert analysis.adjacency == {move.tid: {rival.tid}, rival.tid: {move.tid}}
            assert analysis.points == {(move.tid, rival.tid): tuple(expected)}

    def test_key_cancelled_over_a_shared_antecedent_is_no_candidate(self, schema):
        # A known gap, found by the index's property test and present in
        # every scanner this repo has had: candidates are drawn from the
        # *flattened* footprints' keys, so a key one chain cancels above
        # a shared antecedent (insert, then delete) never meets the other
        # chain's use of the same row — although Definition 4, which
        # removes the shared antecedent first, makes the pair a conflict
        # (the reference oracle's all-pairs FindConflicts says so).  The
        # engine accepts both and the second application falls back to
        # REJECT.  Flip this test when candidates are drawn from
        # ``touched``; that moves decisions.
        builder = GraphBuilder()
        base = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        drop = make_transaction(2, 0, [Insert("F", MOUSE2, 2), Delete("F", RAT1, 2)])
        edit = make_transaction(3, 0, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        builder.add(base)
        builder.add(drop, antecedents=[base.tid])
        builder.add(edit, antecedents=[base.tid])
        extensions = {
            txn.tid: extension_of(schema, builder, txn) for txn in (base, drop, edit)
        }
        assert directly_conflict(
            schema, builder.graph, extensions[drop.tid], extensions[edit.tid]
        )
        paper, engine = Oracle(schema, deviations=PAPER), Oracle(schema)
        for oracle in (paper, engine):
            for txn in (base, drop, edit):
                oracle.publish(txn.tid, txn.updates, antecedents=builder.graph.antecedents_of(txn.tid))
        reference, today = (
            oracle.find_conflicts(
                {txn.tid: oracle.extension(txn.tid, 1, set()) for txn in (base, drop, edit)}
            )
            for oracle in (paper, engine)
        )
        assert reference == {(drop.tid, edit.tid): {("delete/replace", ("F", ("rat", "prot1")))}}
        assert today == {}  # the oracle's ``flattened_key_candidates`` predicate
        analysis = find_conflicts(schema, builder.graph, extensions)
        assert analysis.adjacency[drop.tid] == set()
        # Once the shared antecedent is applied the same pair is found.
        alone = {
            txn.tid: extension_of(schema, builder, txn, applied=[base.tid])
            for txn in (drop, edit)
        }
        assert find_conflicts(schema, builder.graph, alone).adjacency[drop.tid] == {
            edit.tid
        }


class TestConflictGroups:
    def test_same_effect_transactions_share_an_option(self, schema):
        builder = GraphBuilder()
        a = make_transaction(1, 0, [Insert("F", RAT1_IMMUNE, 1)])
        b = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])  # agrees with a
        c = make_transaction(3, 0, [Insert("F", RAT1_RESP, 3)])
        for txn in (a, b, c):
            builder.add(txn)
        deferred = {
            txn.tid: extension_of(schema, builder, txn) for txn in (a, b, c)
        }
        groups = build_conflict_groups(schema, builder.graph, deferred)
        assert len(groups) == 1
        [group] = groups.values()
        assert group.key == ("F", ("rat", "prot1"))
        effects = {opt.effect: set(opt.transactions) for opt in group.options}
        assert effects[RAT1_IMMUNE] == {a.tid, b.tid}
        assert effects[RAT1_RESP] == {c.tid}

    def test_group_describe_lists_options(self, schema):
        builder = GraphBuilder()
        a = make_transaction(1, 0, [Insert("F", RAT1_IMMUNE, 1)])
        b = make_transaction(2, 0, [Insert("F", RAT1_RESP, 2)])
        builder.add(a)
        builder.add(b)
        deferred = {
            txn.tid: extension_of(schema, builder, txn) for txn in (a, b)
        }
        groups = build_conflict_groups(schema, builder.graph, deferred)
        [group] = groups.values()
        text = group.describe()
        assert "[0]" in text and "[1]" in text
        assert "X1:0" in text and "X2:0" in text
        assert group.group_id == (group.kind, group.key)
        assert set(group.transactions()) == {a.tid, b.tid}

    def test_deletes_of_different_versions_stay_separate_options(self, schema):
        """Deletions of *different row versions* of one key are mutually
        conflicting (only one antecedent exists), so collapsing them into
        a single shared option would leave a "conflict group" with no
        alternatives.  They must partition into one option each — found
        by Hypothesis (test_conflict_groups_offer_choices, seed 567)."""
        builder = GraphBuilder()
        base = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        builder.add(base)
        del_a = make_transaction(2, 0, [Delete("F", RAT1, 2)])
        del_b = make_transaction(3, 0, [Delete("F", RAT1_IMMUNE, 3)])
        builder.add(del_a, antecedents=[base.tid])
        builder.add(del_b, antecedents=[base.tid])
        applied = {base.tid}
        deferred = {
            txn.tid: extension_of(schema, builder, txn, applied=applied)
            for txn in (del_a, del_b)
        }
        groups = build_conflict_groups(schema, builder.graph, deferred)
        [group] = groups.values()
        assert group.kind == "delete/delete"
        assert len(group.options) == 2
        assert all(opt.effect is None for opt in group.options)
        assert {opt.transactions for opt in group.options} == {
            (del_a.tid,),
            (del_b.tid,),
        }

    def test_delete_option_effect_is_none(self, schema):
        builder = GraphBuilder()
        base = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        builder.add(base)
        deleter = make_transaction(2, 0, [Delete("F", RAT1, 2)])
        replacer = make_transaction(3, 0, [Modify("F", RAT1, RAT1_RESP, 3)])
        builder.add(deleter, antecedents=[base.tid])
        builder.add(replacer, antecedents=[base.tid])
        applied = {base.tid}
        deferred = {
            deleter.tid: extension_of(schema, builder, deleter, applied=applied),
            replacer.tid: extension_of(
                schema, builder, replacer, applied=applied
            ),
        }
        groups = build_conflict_groups(schema, builder.graph, deferred)
        [group] = groups.values()
        effects = {opt.effect for opt in group.options}
        assert None in effects  # the deletion option
        assert RAT1_RESP in effects
        delete_option = next(
            opt for opt in group.options if opt.effect is None
        )
        assert "delete" in delete_option.describe()
