"""Unit tests for the materialised local instance: lookups, update
sequences and sets, integrity constraints, copies and equality."""

from __future__ import annotations

import pytest

from repro.errors import ConstraintViolation, SchemaError
from repro.instance import Instance
from repro.instance.base import compile_footprint
from repro.model import Delete, Insert, Modify


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
MOUSE2 = ("mouse", "prot2", "immune")


@pytest.fixture
def instance(schema):
    return Instance(schema)


@pytest.fixture
def xref_instance(xref_schema):
    return Instance(xref_schema)


class TestBasicOperations:
    def test_starts_empty(self, instance):
        assert instance.count("F") == 0
        assert list(instance.rows("F")) == []

    def test_insert_and_get(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        assert instance.get("F", ("rat", "prot1")) == RAT1
        assert instance.count("F") == 1
        assert instance.contains_row("F", RAT1)

    def test_get_missing_returns_none(self, instance):
        assert instance.get("F", ("no", "such")) is None

    def test_delete(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        instance.apply(Delete("F", RAT1, 3))
        assert instance.get("F", ("rat", "prot1")) is None
        assert instance.count("F") == 0

    def test_modify_same_key(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        instance.apply(Modify("F", RAT1, RAT1_IMMUNE, 3))
        assert instance.get("F", ("rat", "prot1")) == RAT1_IMMUNE

    def test_modify_key_changing(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        instance.apply(Modify("F", RAT1, MOUSE2, 3))
        assert instance.get("F", ("rat", "prot1")) is None
        assert instance.get("F", ("mouse", "prot2")) == MOUSE2

    def test_snapshot(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        instance.apply(Insert("F", MOUSE2, 2))
        snap = instance.snapshot()
        assert snap["F"] == {
            ("rat", "prot1"): RAT1,
            ("mouse", "prot2"): MOUSE2,
        }

    def test_all_keys(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        assert instance.all_keys() == [("F", ("rat", "prot1"))]

    def test_rows_yields_every_row_once(self, instance):
        instance.apply_all([Insert("F", RAT1, 3), Insert("F", MOUSE2, 2)])
        assert sorted(instance.rows("F")) == sorted([RAT1, MOUSE2])

    def test_count_follows_a_key_changing_modify(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        instance.apply(Modify("F", RAT1, MOUSE2, 3))
        assert instance.count("F") == 1

    def test_contains_row_is_false_for_another_row_at_the_key(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        assert not instance.contains_row("F", RAT1_IMMUNE)

    def test_an_unknown_relation_is_refused(self, instance):
        with pytest.raises(KeyError):
            instance.get("Nope", ("a",))
        with pytest.raises(SchemaError):
            instance.apply(Insert("Nope", ("a",), 3))


class TestConstraints:
    def test_conflicting_insert_rejected(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        with pytest.raises(ConstraintViolation):
            instance.apply(Insert("F", RAT1_IMMUNE, 2))

    def test_idempotent_reinsert_allowed(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        instance.apply(Insert("F", RAT1, 2))
        assert instance.count("F") == 1

    def test_delete_of_absent_row_rejected(self, instance):
        with pytest.raises(ConstraintViolation):
            instance.apply(Delete("F", RAT1, 3))

    def test_delete_of_stale_row_rejected(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        with pytest.raises(ConstraintViolation):
            instance.apply(Delete("F", RAT1_IMMUNE, 2))

    def test_modify_of_absent_row_rejected(self, instance):
        with pytest.raises(ConstraintViolation):
            instance.apply(Modify("F", RAT1, RAT1_IMMUNE, 3))

    def test_key_changing_modify_onto_occupied_key_rejected(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        instance.apply(Insert("F", MOUSE2, 3))
        with pytest.raises(ConstraintViolation):
            instance.apply(Modify("F", RAT1, ("mouse", "prot2", "other"), 3))

    def test_foreign_key_enforced(self, xref_instance):
        with pytest.raises(ConstraintViolation):
            xref_instance.apply(Insert("Xref", ("rat", "prot1", "db", "a1"), 3))
        xref_instance.apply(Insert("F", RAT1, 3))
        xref_instance.apply(Insert("Xref", ("rat", "prot1", "db", "a1"), 3))
        assert xref_instance.count("Xref") == 1

    def test_foreign_key_satisfied_within_sequence(self, xref_instance):
        # The referenced F row arrives in the same sequence, earlier.
        xref_instance.apply_all(
            [
                Insert("F", RAT1, 3),
                Insert("Xref", ("rat", "prot1", "db", "a1"), 3),
            ]
        )
        assert xref_instance.count("Xref") == 1


class TestSequenceApplication:
    def test_can_apply_all_is_pure(self, instance):
        updates = [Insert("F", RAT1, 3), Modify("F", RAT1, RAT1_IMMUNE, 3)]
        assert instance.can_apply_all(updates)
        assert instance.count("F") == 0  # unchanged

    def test_can_apply_all_detects_late_failure(self, instance):
        updates = [Insert("F", RAT1, 3), Delete("F", RAT1_IMMUNE, 3)]
        assert not instance.can_apply_all(updates)

    def test_apply_all_is_atomic_in_effect(self, instance):
        updates = [Insert("F", RAT1, 3), Delete("F", RAT1_IMMUNE, 3)]
        with pytest.raises(ConstraintViolation):
            instance.apply_all(updates)
        assert instance.count("F") == 0  # nothing was applied

    def test_apply_all_sequence_with_internal_dependency(self, instance):
        instance.apply_all(
            [Insert("F", RAT1, 3), Modify("F", RAT1, RAT1_IMMUNE, 3)]
        )
        assert instance.get("F", ("rat", "prot1")) == RAT1_IMMUNE

    def test_can_apply_single(self, instance):
        assert instance.can_apply(Insert("F", RAT1, 3))
        assert not instance.can_apply(Delete("F", RAT1, 3))


class TestCopyAndEquality:
    def test_copy_is_independent(self, schema):
        original = Instance(schema)
        original.apply(Insert("F", RAT1, 3))
        clone = original.copy()
        assert clone == original and clone.schema is original.schema
        clone.apply(Delete("F", RAT1, 3))
        assert original.count("F") == 1
        assert clone.count("F") == 0
        assert original != clone

    def test_equality(self, schema):
        left = Instance(schema)
        right = Instance(schema)
        assert left == right
        left.apply(Insert("F", RAT1, 3))
        assert left != right
        # Only an instance compares equal, not its snapshot.
        assert left != left.snapshot() and left != object()

    def test_an_instance_is_unhashable(self, instance):
        # Mutable, and equal by content: it must not key a dict.
        with pytest.raises(TypeError):
            hash(instance)


class TestMutationCount:
    """``mutation_count`` moves once per successful mutating call and
    never otherwise: callers memoize ``can_apply_set`` verdicts on it."""

    def test_one_bump_per_applied_sequence(self, instance):
        instance.apply_all([Insert("F", RAT1, 3), Insert("F", MOUSE2, 3)])
        instance.apply(Delete("F", MOUSE2, 3))
        assert instance.mutation_count == 2

    def test_one_bump_per_applied_set(self, instance):
        instance.apply_set([Insert("F", RAT1, 3), Insert("F", MOUSE2, 3)])
        assert instance.mutation_count == 1

    def test_empty_calls_do_not_bump(self, instance):
        instance.apply_all([])
        instance.apply_set([])
        assert instance.mutation_count == 0

    def test_checks_do_not_bump(self, instance):
        update = Insert("F", RAT1, 3)
        assert instance.can_apply(update)
        assert instance.can_apply_all([update])
        assert instance.can_apply_set([update])
        assert instance.mutation_count == 0

    def test_a_refused_call_neither_bumps_nor_changes_state(self, instance):
        instance.apply(Insert("F", RAT1, 3))
        before = instance.snapshot()
        with pytest.raises(ConstraintViolation):
            instance.apply(Delete("F", RAT1_IMMUNE, 3))
        with pytest.raises(ConstraintViolation):
            instance.apply_set([Insert("F", MOUSE2, 3), Delete("F", RAT1_IMMUNE, 3)])
        assert instance.mutation_count == 1
        assert instance.snapshot() == before


class TestSetApplication:
    """An update set is tested by probing its compiled footprint: what
    the set itself decides costs no ``get``."""

    CHILDREN = [
        Insert("Xref", ("rat", "prot1", "db", f"a{serial}"), 3) for serial in range(7)
    ]

    @staticmethod
    def probes(instance, monkeypatch):
        probed = []
        get = instance.get
        monkeypatch.setattr(
            instance, "get", lambda *key: probed.append(key) or get(*key)
        )
        return probed

    def test_a_shared_parent_is_probed_once(self, xref_instance, monkeypatch):
        xref_instance.apply(Insert("F", RAT1, 3))
        probed = self.probes(xref_instance, monkeypatch)
        assert xref_instance.can_apply_set(self.CHILDREN)
        # Seven landing slots and one parent; the parent commit probed
        # the parent once per child: 14.
        assert len(probed) == 8
        assert probed.count(("F", ("rat", "prot1"))) == 1
        xref_instance.apply_set(self.CHILDREN)
        assert xref_instance.count("Xref") == 7

    def test_a_parent_the_set_writes_is_not_probed_for(
        self, xref_instance, monkeypatch
    ):
        probed = self.probes(xref_instance, monkeypatch)
        assert xref_instance.can_apply_set([Insert("F", RAT1, 3), *self.CHILDREN])
        assert len(probed) == 8
        assert probed.count(("F", ("rat", "prot1"))) == 1  # its own landing slot
        # A parent replaced in place answers the reference the same way.
        xref_instance.apply_set([Insert("F", RAT1, 3)])
        del probed[:]
        revised = [Modify("F", RAT1, RAT1_IMMUNE, 3), *self.CHILDREN]
        assert xref_instance.can_apply_set(revised)
        assert len(probed) == 8
        assert probed.count(("F", ("rat", "prot1"))) == 1  # the consumed row

    def test_a_cyclic_rename_applies_as_a_set_but_not_as_a_sequence(self, instance):
        # Consume everything, then produce everything: the two rows may
        # trade keys within one set; in order, the first lands on the second.
        mouse1 = ("mouse", "prot1", "cell-metab")
        instance.apply_all([Insert("F", RAT1, 3), Insert("F", mouse1, 3)])
        swap = [
            Modify("F", RAT1, ("mouse", "prot1", "immune"), 3),
            Modify("F", mouse1, ("rat", "prot1", "immune"), 3),
        ]
        assert not instance.can_apply_all(swap)
        instance.apply_set(swap)
        assert instance.get("F", ("rat", "prot1")) == ("rat", "prot1", "immune")
        assert instance.get("F", ("mouse", "prot1")) == ("mouse", "prot1", "immune")

    def test_one_compiled_footprint_serves_every_state(self, schema):
        # A footprint depends on the updates and the schema alone.
        footprint = compile_footprint(schema, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
        empty, holding = Instance(schema), Instance(schema)
        holding.apply(Insert("F", RAT1, 3))
        assert not empty.can_apply_set(footprint)
        holding.apply_set(footprint)
        assert holding.get("F", ("rat", "prot1")) == RAT1_IMMUNE
        assert not holding.can_apply_set(footprint)
