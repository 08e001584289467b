"""Tests for append-only reconciliation (Definition 2)."""

from __future__ import annotations

import pytest

from repro.core import reconcile_append_only
from repro.errors import UpdateError
from repro.instance import Instance
from repro.model import Delete, Insert, make_transaction


RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")
MOUSE2 = ("mouse", "prot2", "immune")


class TestAppendOnly:
    def test_non_insert_rejected_by_contract(self, schema):
        instance = Instance(schema)
        bad = make_transaction(1, 0, [Delete("F", RAT1_IMMUNE, 1)])
        with pytest.raises(UpdateError):
            reconcile_append_only(schema, instance, [(bad, 1)])

    def test_non_conflicting_inserts_accepted(self, schema):
        instance = Instance(schema)
        a = make_transaction(1, 0, [Insert("F", RAT1_IMMUNE, 1)])
        b = make_transaction(2, 0, [Insert("F", MOUSE2, 2)])
        result = reconcile_append_only(schema, instance, [(a, 1), (b, 1)])
        assert set(result.accepted) == {a.tid, b.tid}
        assert instance.count("F") == 2

    def test_untrusted_rejected(self, schema):
        instance = Instance(schema)
        a = make_transaction(1, 0, [Insert("F", RAT1_IMMUNE, 1)])
        result = reconcile_append_only(schema, instance, [(a, 0)])
        assert result.rejected == [a.tid]
        assert instance.count("F") == 0

    def test_equal_priority_conflict_rejects_both(self, schema):
        instance = Instance(schema)
        a = make_transaction(1, 0, [Insert("F", RAT1_IMMUNE, 1)])
        b = make_transaction(2, 0, [Insert("F", RAT1_RESP, 2)])
        result = reconcile_append_only(schema, instance, [(a, 1), (b, 1)])
        assert set(result.rejected) == {a.tid, b.tid}
        assert instance.count("F") == 0

    def test_higher_priority_wins_conflict(self, schema):
        instance = Instance(schema)
        a = make_transaction(1, 0, [Insert("F", RAT1_IMMUNE, 1)])
        b = make_transaction(2, 0, [Insert("F", RAT1_RESP, 2)])
        result = reconcile_append_only(schema, instance, [(a, 5), (b, 1)])
        assert result.accepted == [a.tid]
        assert result.rejected == [b.tid]
        assert instance.contains_row("F", RAT1_IMMUNE)

    def test_conflict_with_prior_state_rejected(self, schema):
        instance = Instance(schema)
        instance.apply(Insert("F", RAT1_IMMUNE, 1))
        b = make_transaction(2, 0, [Insert("F", RAT1_RESP, 2)])
        result = reconcile_append_only(schema, instance, [(b, 9)])
        assert result.rejected == [b.tid]

    def test_duplicate_insert_of_existing_row_accepted(self, schema):
        instance = Instance(schema)
        instance.apply(Insert("F", RAT1_IMMUNE, 1))
        b = make_transaction(2, 0, [Insert("F", RAT1_IMMUNE, 2)])
        result = reconcile_append_only(schema, instance, [(b, 1)])
        assert result.accepted == [b.tid]
        assert instance.count("F") == 1
