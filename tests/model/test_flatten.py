"""Unit tests for update-sequence flattening (Section 4.2)."""

from __future__ import annotations

import importlib

import pytest

from repro.errors import FlattenError
from repro.model import Delete, Insert, Modify, flatten, make_transaction
from repro.model.flatten import flatten_transactions, keys_touched


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")
MOUSE2 = ("mouse", "prot2", "cell-resp")
MOUSE3 = ("mouse", "prot3", "cell-resp")


class TestFlattenBasics:
    def test_empty_sequence(self, schema):
        assert flatten(schema, []) == []

    def test_single_insert_passthrough(self, schema):
        assert flatten(schema, [Insert("F", RAT1, 3)]) == [Insert("F", RAT1, 3)]

    def test_single_delete_passthrough(self, schema):
        assert flatten(schema, [Delete("F", RAT1, 3)]) == [Delete("F", RAT1, 3)]

    def test_single_modify_passthrough(self, schema):
        mod = Modify("F", RAT1, RAT1_IMMUNE, 3)
        assert flatten(schema, [mod]) == [mod]

    def test_insert_then_modify_becomes_insert(self, schema):
        # The paper's X3:0 followed by X3:1 (Figure 2, epoch 1).
        result = flatten(
            schema,
            [Insert("F", RAT1, 3), Modify("F", RAT1, RAT1_IMMUNE, 3)],
        )
        assert result == [Insert("F", RAT1_IMMUNE, 3)]

    def test_papers_key_changing_example(self, schema):
        # X3:2 then X3:3 from Section 4.2: +F(mouse, prot2, cell-resp) then
        # (mouse, prot2, cell-resp) -> (mouse, prot3, cell-resp) flattens
        # to the single insert of the final row.
        result = flatten(
            schema,
            [Insert("F", MOUSE2, 3), Modify("F", MOUSE2, MOUSE3, 3)],
        )
        assert result == [Insert("F", MOUSE3, 3)]

    def test_insert_then_delete_cancels(self, schema):
        result = flatten(schema, [Insert("F", RAT1, 3), Delete("F", RAT1, 3)])
        assert result == []

    def test_modify_chain_composes(self, schema):
        result = flatten(
            schema,
            [
                Modify("F", RAT1, RAT1_IMMUNE, 3),
                Modify("F", RAT1_IMMUNE, RAT1_RESP, 3),
            ],
        )
        assert result == [Modify("F", RAT1, RAT1_RESP, 3)]

    def test_modify_then_revert_cancels(self, schema):
        # Least interaction: a revised-away modification leaves no net
        # effect, so it cannot conflict with anyone.
        result = flatten(
            schema,
            [
                Modify("F", RAT1, RAT1_IMMUNE, 3),
                Modify("F", RAT1_IMMUNE, RAT1, 3),
            ],
        )
        assert result == []

    def test_modify_then_delete_becomes_delete_of_original(self, schema):
        result = flatten(
            schema,
            [Modify("F", RAT1, RAT1_IMMUNE, 3), Delete("F", RAT1_IMMUNE, 3)],
        )
        assert result == [Delete("F", RAT1, 3)]

    def test_delete_then_insert_merges_to_modify(self, schema):
        result = flatten(
            schema,
            [Delete("F", RAT1, 3), Insert("F", RAT1_IMMUNE, 3)],
        )
        assert result == [Modify("F", RAT1, RAT1_IMMUNE, 3)]

    def test_delete_then_reinsert_same_row_cancels(self, schema):
        result = flatten(schema, [Delete("F", RAT1, 3), Insert("F", RAT1, 3)])
        assert result == []

    def test_independent_updates_pass_through(self, schema):
        ins1 = Insert("F", RAT1, 3)
        ins2 = Insert("F", MOUSE2, 3)
        result = flatten(schema, [ins1, ins2])
        assert sorted(map(str, result)) == sorted(map(str, [ins1, ins2]))

    def test_key_changing_modify_then_back(self, schema):
        result = flatten(
            schema,
            [Modify("F", RAT1, MOUSE2, 3), Modify("F", MOUSE2, RAT1, 3)],
        )
        assert result == []

    def test_key_changing_chain_composes(self, schema):
        result = flatten(
            schema,
            [Modify("F", RAT1, MOUSE2, 3), Modify("F", MOUSE2, MOUSE3, 3)],
        )
        assert result == [Modify("F", RAT1, MOUSE3, 3)]

    def test_at_most_one_update_per_key(self, schema):
        sequence = [
            Insert("F", RAT1, 3),
            Modify("F", RAT1, RAT1_IMMUNE, 3),
            Delete("F", RAT1_IMMUNE, 3),
            Insert("F", RAT1_RESP, 3),
        ]
        result = flatten(schema, sequence)
        assert result == [Insert("F", RAT1_RESP, 3)]


class TestFlattenValidation:
    def test_delete_of_wrong_row_in_chain_rejected(self, schema):
        with pytest.raises(FlattenError):
            flatten(schema, [Insert("F", RAT1, 3), Delete("F", RAT1_IMMUNE, 3)])

    def test_double_insert_same_key_rejected(self, schema):
        with pytest.raises(FlattenError):
            flatten(schema, [Insert("F", RAT1, 3), Insert("F", RAT1_IMMUNE, 3)])

    def test_modify_source_mismatch_rejected(self, schema):
        with pytest.raises(FlattenError):
            flatten(
                schema,
                [Insert("F", RAT1, 3), Modify("F", RAT1_IMMUNE, RAT1_RESP, 3)],
            )


class TestFlattenTransactions:
    def test_across_transaction_boundaries(self, schema):
        txn0 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        txn1 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        assert flatten_transactions(schema, [txn0, txn1]) == [
            Insert("F", RAT1_IMMUNE, 3)
        ]


class TestKeysTouched:
    def test_keys_touched_includes_intermediate_keys(self, schema):
        touched = keys_touched(
            schema,
            [Modify("F", RAT1, MOUSE2, 3), Modify("F", MOUSE2, MOUSE3, 3)],
        )
        assert touched == {
            ("F", ("rat", "prot1")),
            ("F", ("mouse", "prot2")),
            ("F", ("mouse", "prot3")),
        }


class TestFlattenOnce:
    """The single-pass FlattenResult view (one trace for both views)."""

    def test_matches_the_two_views(self, schema):
        from repro.model.flatten import flatten_once

        sequence = [
            Insert("F", RAT1, 3),
            Modify("F", RAT1, RAT1_IMMUNE, 3),
            Insert("F", MOUSE2, 3),
            Delete("F", MOUSE2, 3),
        ]
        result = flatten_once(schema, sequence)
        assert list(result.operations) == flatten(schema, sequence)
        assert result.keys_touched == keys_touched(schema, sequence)

    def test_single_trace(self, schema):
        from repro.model.flatten import flatten_once, trace_runs

        sequence = [Insert("F", RAT1, 3), Modify("F", RAT1, RAT1_IMMUNE, 3)]
        before = trace_runs()
        flatten_once(schema, sequence)
        assert trace_runs() == before + 1

    def test_single_update_sequences_skip_the_trace(self, schema):
        from repro.model.flatten import flatten_once, trace_runs

        before = trace_runs()
        result = flatten_once(schema, [Insert("F", RAT1, 3)])
        empty = flatten_once(schema, [])
        assert trace_runs() == before  # fast path: no tracer at all
        assert list(result.operations) == [Insert("F", RAT1, 3)]
        assert result.keys_touched == {("F", ("rat", "prot1"))}
        assert empty.operations == ()

    def test_cyclic_rename_chain(self, schema):
        """Two rows swap keys through a temporary key: the net effect is
        the two replacements, and the temporary key still shows up in
        keys_touched (dirty-value deferral cares about it)."""
        from repro.model.flatten import flatten_once

        a = ("rat", "prot1", "fn-a")
        b = ("rat", "prot2", "fn-b")
        a_at_tmp = ("rat", "tmp", "fn-a")
        a_at_2 = ("rat", "prot2", "fn-a")
        b_at_1 = ("rat", "prot1", "fn-b")
        sequence = [
            Modify("F", a, a_at_tmp, 3),
            Modify("F", b, b_at_1, 3),
            Modify("F", a_at_tmp, a_at_2, 3),
        ]
        result = flatten_once(schema, sequence)
        assert set(result.operations) == {
            Modify("F", a, a_at_2, 3),
            Modify("F", b, b_at_1, 3),
        }
        assert ("F", ("rat", "tmp")) in result.keys_touched

    def test_full_cycle_rename_flattens_to_nothing(self, schema):
        """A rename cycle that returns every row home nets out empty, but
        every key it passed through is still reported as touched."""
        from repro.model.flatten import flatten_once

        a = ("rat", "prot1", "fn-a")
        a_tmp = ("rat", "tmp", "fn-a")
        sequence = [
            Modify("F", a, a_tmp, 3),
            Modify("F", a_tmp, a, 3),
        ]
        result = flatten_once(schema, sequence)
        assert list(result.operations) == []
        assert result.keys_touched == {
            ("F", ("rat", "prot1")),
            ("F", ("rat", "tmp")),
        }


class TestMinimiseWorklist:
    """The order `_minimise` visits keys in — first in, first out, a key
    already waiting not queued again — decides the order of its output;
    both examples fail on a worklist that visits in any other order."""

    @staticmethod
    def row(key, value):
        return ("rat", key, value)

    @staticmethod
    def minimise(schema, updates):
        """``_minimise`` over ``updates``, each with the keys it consumes
        and produces a row at, as the trace hands them over."""
        from repro.model.flatten import _minimise

        def key(row):
            return None if row is None else ("F", schema.relation("F").key_of(row))

        nets = [(u, key(u.read_row()), key(u.written_row())) for u in updates]
        return [net[0] for net in _minimise(nets)]

    def test_key_enqueued_again_while_waiting_keeps_its_place(self, schema):
        row = self.row
        nets = [
            Delete("F", row("k1", "a"), 3),
            Modify("F", row("k2", "x"), row("k1", "a"), 3),
            Insert("F", row("k2", "y"), 3),
            Delete("F", row("k3", "p"), 3),
            Insert("F", row("k3", "q"), 3),
        ]
        # Visiting k1 cancels the first pair into Delete(k2, x), whose key
        # is still waiting behind k1 and ahead of k3: k2 composes first.
        assert self.minimise(schema, nets) == [
            Modify("F", row("k2", "x"), row("k2", "y"), 3),
            Modify("F", row("k3", "p"), row("k3", "q"), 3),
        ]

    def test_key_enqueued_again_after_its_visit_goes_to_the_back(self, schema):
        row = self.row
        nets = [
            Insert("F", row("k1", "a"), 3),
            Delete("F", row("k3", "c"), 3),
            Modify("F", row("k1", "z"), row("k3", "c"), 3),
            Delete("F", row("k4", "p"), 3),
            Insert("F", row("k4", "q"), 3),
        ]
        # k1 is visited first and has nothing to compose; visiting k3
        # leaves Delete(k1, z), so k1 is queued again — behind k4.
        assert self.minimise(schema, nets) == [
            Modify("F", row("k4", "p"), row("k4", "q"), 3),
            Modify("F", row("k1", "z"), row("k1", "a"), 3),
        ]


class TestOnePass:
    """What the one trace hands back without building it again."""

    def test_a_one_update_chain_is_the_input_object(self, schema):
        insert = Insert("F", RAT1, 3)
        delete = Delete("F", MOUSE2, 3)
        modify = Modify("F", MOUSE3, ("mouse", "prot3", "immune"), 3)
        result = flatten(schema, [insert, delete, modify])
        assert {id(update) for update in result} == {
            id(insert), id(delete), id(modify)
        }

    @pytest.mark.parametrize("repeat", [True, False], ids=["same", "equal"])
    def test_two_deletions_of_one_row_are_two_nets(self, schema, repeat):
        # Value-based antecedents can put two chains consuming one row in
        # one closure; a sequence may even repeat the update object.  It
        # never stands for both nets.
        first = Delete("F", RAT1, 3)
        second = first if repeat else Delete("F", RAT1, 3)
        result = flatten(schema, [first, second])
        assert result == [first, first]
        assert result[0] is not result[1]

    def test_no_reader_meeting_a_writer_skips_the_worklist(self, schema, monkeypatch):
        # (``repro.model.flatten`` the attribute is the function.)
        module = importlib.import_module("repro.model.flatten")
        calls = []
        real = module._minimise
        monkeypatch.setattr(
            module, "_minimise", lambda nets: calls.append(len(nets)) or real(nets)
        )
        # A same-key replacement reads and writes one key: no meeting.
        flatten(schema, [Modify("F", RAT1, RAT1_IMMUNE, 3), Insert("F", MOUSE2, 3)])
        assert calls == []
        result = flatten(schema, [Delete("F", RAT1, 3), Insert("F", RAT1_IMMUNE, 3)])
        assert calls == [2]
        assert result == [Modify("F", RAT1, RAT1_IMMUNE, 3)]

    @pytest.mark.parametrize(
        "sequence, message",
        [
            (
                [Insert("F", RAT1, 3), Delete("F", RAT1_IMMUNE, 3)],
                "sequence consumes row ('rat', 'prot1', 'immune') under key "
                "('F', ('rat', 'prot1')), but the chain leaves "
                "('rat', 'prot1', 'cell-metab') there",
            ),
            (
                [Insert("F", RAT1, 3), Modify("F", MOUSE2, RAT1_IMMUNE, 3)],
                "sequence writes ('rat', 'prot1', 'immune') under key "
                "('F', ('rat', 'prot1')) while another chain still holds that key",
            ),
        ],
        ids=["consume", "overwrite"],
    )
    def test_an_inconsistent_sequence_names_the_update(self, schema, sequence, message):
        with pytest.raises(FlattenError) as raised:
            flatten(schema, sequence)
        assert str(raised.value) == message
