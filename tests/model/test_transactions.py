"""Unit tests for transaction ids and transaction construction."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.errors import UpdateError
from repro.model import (
    Delete,
    Insert,
    Modify,
    Transaction,
    TransactionId,
    make_transaction,
)


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
MOUSE2 = ("mouse", "prot2", "immune")


class TestTransactionId:
    def test_ordering_by_participant_then_sequence(self):
        assert TransactionId(1, 5) < TransactionId(2, 0)
        assert TransactionId(1, 0) < TransactionId(1, 1)

    def test_str_matches_paper_notation(self):
        assert str(TransactionId(3, 1)) == "X3:1"

    def test_hashable(self):
        ids = {TransactionId(1, 0), TransactionId(1, 0), TransactionId(1, 1)}
        assert len(ids) == 2

    @pytest.mark.parametrize("pair", [(1, 0), (3, 7), (32, 65535), (0, -1)])
    def test_hashes_as_the_pair_it_is(self, pair):
        # The sentence that licensed making the id a tuple type: its
        # hash was always *defined* as the pair's, so no set or dict in
        # the system changed iteration order.
        assert hash(TransactionId(*pair)) == hash(pair)
        # The one new fact: an id now equals the plain pair.
        assert TransactionId(*pair) == pair
        assert {TransactionId(*pair): "id"}[pair] == "id"

    def test_identity_arithmetic_never_enters_the_interpreter(self):
        # No Python-level dunder may creep back onto the hottest key
        # type in the engine (tests/core/test_call_budget.py counts it).
        for dunder in ("__hash__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(TransactionId, dunder) is getattr(tuple, dunder), dunder
        assert not {"__getstate__", "__setstate__", "__post_init__"} & set(vars(TransactionId))

    def test_order_is_lexicographic_on_every_pair(self):
        pairs = [(p, s) for p in (0, 1, 2, 10) for s in (0, 1, 9, 10)]
        ids = [TransactionId(*pair) for pair in pairs]
        assert sorted(ids, reverse=True) == [TransactionId(*p) for p in sorted(pairs, reverse=True)]
        assert max(ids) == TransactionId(10, 10) and min(ids) == TransactionId(0, 0)

    def test_pickle_and_copy_round_trip(self):
        tid = TransactionId(3, 41)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(tid, protocol))
            assert type(back) is TransactionId and back == tid
            assert (back.participant, back.sequence) == (3, 41)
            assert hash(back) == hash(tid) and str(back) == "X3:41"
        for clone in (copy.copy(tid), copy.deepcopy(tid), copy.deepcopy([tid])[0]):
            assert type(clone) is TransactionId and clone == tid

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            TransactionId(1, 0).sequence = 5


class TestTransaction:
    def test_construction_and_iteration(self):
        txn = make_transaction(3, 0, [Insert("F", RAT1, 3)])
        assert txn.origin == 3
        assert len(txn) == 1
        assert list(txn) == [Insert("F", RAT1, 3)]

    def test_empty_transaction_rejected(self):
        with pytest.raises(UpdateError):
            Transaction(TransactionId(3, 0), ())

    def test_origin_mismatch_rejected(self):
        with pytest.raises(UpdateError):
            make_transaction(3, 0, [Insert("F", RAT1, 2)])

    def test_keys_touched_deduplicates(self, schema):
        txn = make_transaction(
            3,
            0,
            [Insert("F", RAT1, 3), Modify("F", RAT1, RAT1_IMMUNE, 3)],
        )
        assert txn.keys_touched(schema) == (("F", ("rat", "prot1")),)

    def test_keys_touched_covers_all_updates(self, schema):
        txn = make_transaction(
            3,
            0,
            [Insert("F", RAT1, 3), Insert("F", MOUSE2, 3)],
        )
        assert set(txn.keys_touched(schema)) == {
            ("F", ("rat", "prot1")),
            ("F", ("mouse", "prot2")),
        }

    def test_str_form(self):
        txn = make_transaction(3, 1, [Delete("F", RAT1, 3)])
        assert str(txn).startswith("X3:1{")
