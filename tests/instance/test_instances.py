"""Unit tests for materialised instances (memory and sqlite variants).

Both implementations must satisfy the identical contract, so every test in
this module runs against both via the ``instance`` parametrised fixture.
"""

from __future__ import annotations

import pytest

from repro.errors import ConstraintViolation
from repro.instance import MemoryInstance, SqliteInstance
from repro.model import Delete, Insert, Modify


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
MOUSE2 = ("mouse", "prot2", "immune")


@pytest.fixture(params=["memory", "sqlite"])
def instance(request, schema):
    if request.param == "memory":
        yield MemoryInstance(schema)
    else:
        with SqliteInstance(schema) as inst:
            yield inst


@pytest.fixture(params=["memory", "sqlite"])
def xref_instance(request, xref_schema):
    if request.param == "memory":
        yield MemoryInstance(xref_schema)
    else:
        with SqliteInstance(xref_schema) as inst:
            yield inst


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


class TestMemorySpecific:
    def test_copy_is_independent(self, schema):
        original = MemoryInstance(schema)
        original.apply(Insert("F", RAT1, 3))
        clone = original.copy()
        clone.apply(Delete("F", RAT1, 3))
        assert original.count("F") == 1
        assert clone.count("F") == 0
        assert original != clone

    def test_equality(self, schema):
        left = MemoryInstance(schema)
        right = MemoryInstance(schema)
        assert left == right
        left.apply(Insert("F", RAT1, 3))
        assert left != right


class TestSqliteSpecific:
    def test_values_round_trip(self, schema, tmp_path):
        path = str(tmp_path / "inst.db")
        with SqliteInstance(schema, path) as inst:
            inst.apply(Insert("F", ("rat", 42, ("nested", 1.5)), 3))
        with SqliteInstance(schema, path) as inst:
            assert inst.get("F", ("rat", 42)) == ("rat", 42, ("nested", 1.5))

    def test_invalid_relation_name_rejected(self):
        from repro.instance.sqlite_instance import _table_name

        with pytest.raises(ValueError):
            _table_name("evil; DROP TABLE")


class TestSetApplication:
    """An update set is tested by probing its compiled footprint: what
    the set itself decides costs no ``get`` (a ``SELECT`` on sqlite)."""

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
