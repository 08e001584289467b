"""A compiled footprint decides exactly what the uncompiled check decided.

``Instance._check_set`` used to re-derive keys, row validity and
foreign-key targets from the updates on every call; it now probes a
:class:`~repro.instance.base.Footprint` compiled once.  The body it had
before is kept here as the oracle: over generated update sets — valid and
not — against generated states, the verdict, the final state, the mutation
count and the class of whatever is raised must be the oracle's, through a
compiled footprint and through a raw list.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintViolation, SchemaError
from repro.instance.base import Instance, compile_footprint
from repro.model import Delete, Insert, Modify, Update
from repro.workload.generator import curated_schema

SCHEMA = curated_schema()


# ----------------------------------------------------------------------
# The oracle: ``_check_set`` / ``apply_set`` as they stood at 486ffa3.


def oracle_check_set(instance: Instance, updates: Sequence[Update]) -> None:
    schema = instance.schema
    overlay: Dict[Tuple, Optional[Tuple]] = {}

    def effective(relation, key):
        qualified = (relation, key)
        if qualified in overlay:
            return overlay[qualified]
        return instance.get(relation, key)

    for update in updates:
        read = update.read_row()
        if read is None:
            continue
        rel = schema.relation(update.relation)
        key = (update.relation, rel.key_of(read))
        if key in overlay:
            raise ConstraintViolation(f"update set consumes key {key} twice")
        existing = instance.get(update.relation, rel.key_of(read))
        if existing != read:
            raise ConstraintViolation(f"{update} consumes {read!r}: {existing!r}")
        overlay[key] = None
    for update in updates:
        written = update.written_row()
        if written is None:
            continue
        rel = schema.relation(update.relation)
        rel.validate_row(written)
        key = (update.relation, rel.key_of(written))
        target = effective(update.relation, rel.key_of(written))
        if target is not None and target != written:
            raise ConstraintViolation(f"{update} writes over {target!r}")
        overlay[key] = written
    for update in updates:
        written = update.written_row()
        if written is None:
            continue
        rel = schema.relation(update.relation)
        for fk in schema.foreign_keys_from(update.relation):
            referenced = tuple(rel.value_of(written, a) for a in fk.source_attributes)
            if effective(fk.target_relation, referenced) is None:
                raise ConstraintViolation(f"{written!r} references absent {referenced!r}")


def oracle_apply_set(instance: Instance, updates: Sequence[Update]) -> None:
    oracle_check_set(instance, updates)
    schema = instance.schema
    for update in updates:
        read = update.read_row()
        if read is not None:
            key = schema.relation(update.relation).key_of(read)
            instance._data[update.relation].pop(key, None)
    for update in updates:
        written = update.written_row()
        if written is not None:
            key = schema.relation(update.relation).key_of(written)
            instance._data[update.relation][key] = written
    if updates:
        instance.mutation_count += 1


def oracle_can_apply_set(instance: Instance, updates: Sequence[Update]) -> bool:
    try:
        oracle_check_set(instance, updates)
    except ConstraintViolation:
        return False
    return True


# ----------------------------------------------------------------------
# Generated states and update sets over small pools, so that rows meet.

_F_KEYS = [(o, p) for o in ("rat", "mouse") for p in ("p1", "p2")]
_FUNCTIONS = ("immune", "metab")
_F_ROWS = st.builds(lambda k, f: (*k, f), st.sampled_from(_F_KEYS), st.sampled_from(_FUNCTIONS))
_X_ROWS = st.builds(
    lambda k, acc: (*k, "db", acc), st.sampled_from(_F_KEYS), st.sampled_from(("a1", "a2"))
)
#: Rows no relation admits: short, long, wrongly typed.
_BAD_F = st.sampled_from([("rat", "p1"), ("rat", "p1", "immune", "extra"), ("rat", "p1", 5)])
_BAD_X = st.sampled_from([("rat", "p1", "db"), ("rat", "p1", "db", 7)])


_STATES = st.tuples(
    st.dictionaries(st.sampled_from(_F_KEYS), st.sampled_from(_FUNCTIONS), max_size=4),
    st.sets(_X_ROWS, max_size=4),
)


def _update_sets(state):
    """Lists of updates that mostly consume what ``state`` holds and
    mostly write valid rows — so that whole sets fit often enough."""
    functions, xrefs = state
    held_f = [(*key, function) for key, function in functions.items()]
    old_f = st.one_of(st.sampled_from(held_f), _F_ROWS) if held_f else _F_ROWS
    old_x = st.one_of(st.sampled_from(sorted(xrefs)), _X_ROWS) if xrefs else _X_ROWS
    new_f = st.one_of(_F_ROWS, _F_ROWS, _F_ROWS, _BAD_F)
    new_x = st.one_of(_X_ROWS, _X_ROWS, _X_ROWS, _BAD_X)

    def modify(relation, old_rows, new_rows):
        pairs = st.tuples(old_rows, new_rows).filter(lambda pair: pair[0] != pair[1])
        return pairs.map(lambda pair: Modify(relation, *pair, 1))

    return st.lists(
        st.one_of(
            st.builds(Insert, st.just("F"), new_f, st.just(1)),
            st.builds(Insert, st.just("Xref"), new_x, st.just(1)),
            st.builds(Delete, st.just("F"), st.one_of(old_f, old_f, _BAD_F), st.just(1)),
            st.builds(Delete, st.just("Xref"), st.one_of(old_x, old_x, _BAD_X), st.just(1)),
            modify("F", st.one_of(old_f, old_f, old_f, _BAD_F), new_f),
            modify("Xref", old_x, new_x),
        ),
        min_size=1,
        max_size=5,
    )


_CASES = _STATES.flatmap(lambda state: st.tuples(st.just(state), _update_sets(state)))


def materialise(state) -> Instance:
    instance = Instance(SCHEMA)
    functions, xrefs = state
    for key, function in functions.items():
        instance._data["F"][key] = (*key, function)
    for row in sorted(xrefs):
        instance._data["Xref"][row] = row
    return instance


def outcome(call, *args):
    """What a call did: its value, or the class it raised."""
    try:
        return call(*args)
    except (ConstraintViolation, SchemaError) as exc:
        return type(exc)


def check(compiled: bool, state, updates) -> None:
    def operand():
        return compile_footprint(SCHEMA, updates) if compiled else list(updates)

    expected, actual = materialise(state), materialise(state)
    before = expected.snapshot()

    verdict = outcome(oracle_can_apply_set, expected, updates)
    assert outcome(actual.can_apply_set, operand()) == verdict
    assert actual.snapshot() == before and actual.mutation_count == 0

    applied = outcome(oracle_apply_set, expected, updates)
    assert outcome(actual.apply_set, operand()) == applied
    assert (applied is None) == (verdict is True)
    assert actual.snapshot() == expected.snapshot()
    assert actual.mutation_count == expected.mutation_count


both_paths = pytest.mark.parametrize("compiled", [True, False], ids=["footprint", "raw"])


@both_paths
@settings(max_examples=150, deadline=None)
@given(case=_CASES)
def test_footprint_matches_the_uncompiled_check(compiled, case):
    check(compiled, *case)


RAT, MOUSE = ("rat", "p1", "immune"), ("mouse", "p1", "immune")
ABSENT = ("mouse", "p2", "immune")
XREF = ("rat", "p1", "db", "a1")
EMPTY = ({}, set())
BOTH = ({("rat", "p1"): "immune", ("mouse", "p1"): "immune"}, set())
PARENT_AND_CHILD = ({("rat", "p1"): "immune"}, {XREF})

#: The shapes the generator should reach, each pinned by name.
SCENARIOS = {
    "insert with child": (EMPTY, [Insert("F", RAT, 1), Insert("Xref", XREF, 1)]),
    "child of a held parent": (BOTH, [Insert("Xref", XREF, 1)]),
    "child of a missing parent": (EMPTY, [Insert("Xref", XREF, 1)]),
    "parent deleted by the set": (BOTH, [Delete("F", RAT, 1), Insert("Xref", XREF, 1)]),
    "parent renamed away by the set": (
        BOTH,
        [Modify("F", RAT, ("rat", "p2", "immune"), 1), Insert("Xref", XREF, 1)],
    ),
    "parent replaced in place by the set": (
        BOTH,
        [Modify("F", RAT, ("rat", "p1", "metab"), 1), Insert("Xref", XREF, 1)],
    ),
    "cyclic rename": (
        BOTH,
        [
            Modify("F", RAT, ("mouse", "p1", "metab"), 1),
            Modify("F", MOUSE, ("rat", "p1", "metab"), 1),
        ],
    ),
    "key consumed twice": (BOTH, [Delete("F", RAT, 1), Modify("F", RAT, ABSENT, 1)]),
    "two rows onto one key": (
        EMPTY,
        [Insert("F", RAT, 1), Insert("F", ("rat", "p1", "metab"), 1)],
    ),
    "one row onto one key twice": (EMPTY, [Insert("F", RAT, 1), Insert("F", RAT, 1)]),
    "delete of a held row": (BOTH, [Delete("F", RAT, 1)]),
    "delete of an absent row": (EMPTY, [Delete("F", RAT, 1)]),
    "insert restating a held row": (BOTH, [Insert("F", RAT, 1)]),
    "rename onto a free key": (BOTH, [Modify("F", RAT, ABSENT, 1)]),
    "rename onto a held key": (BOTH, [Modify("F", RAT, ("mouse", "p1", "metab"), 1)]),
    "two children of a missing parent": (
        EMPTY,
        [Insert("Xref", XREF, 1), Insert("Xref", ("rat", "p1", "db", "a2"), 1)],
    ),
    "child deleted with its parent": (
        PARENT_AND_CHILD,
        [Delete("Xref", XREF, 1), Delete("F", RAT, 1)],
    ),
    # Only written rows are checked for their references.
    "parent deleted under a held child": (PARENT_AND_CHILD, [Delete("F", RAT, 1)]),
    # An invalid row first or last, a constraint violation before or after.
    "short row, then a stale delete": (
        EMPTY,
        [Insert("F", ("rat", "p1"), 1), Delete("F", MOUSE, 1)],
    ),
    "overwrite, then a mistyped row": (
        BOTH,
        [Insert("F", ("mouse", "p1", "metab"), 1), Insert("F", ("rat", "p2", 5), 1)],
    ),
    "short replacement, then a stale delete": (
        BOTH,
        [Modify("F", RAT, ("rat", "p1"), 1), Delete("F", ABSENT, 1)],
    ),
    "short consumed row, then a stale delete": (
        BOTH,
        [Delete("F", ("rat",), 1), Delete("F", ABSENT, 1)],
    ),
    "stale delete, then a short consumed row": (
        BOTH,
        [Delete("F", ABSENT, 1), Delete("F", ("rat",), 1)],
    ),
    "orphaned child, then a mistyped row": (
        BOTH,
        [Delete("F", RAT, 1), Insert("Xref", XREF, 1), Insert("F", ("rat", "p2", 5), 1)],
    ),
    "mistyped row, then a double consume": (
        BOTH,
        [Insert("F", ("rat", "p2", 5), 1), Delete("F", RAT, 1), Modify("F", RAT, ABSENT, 1)],
    ),
}


@both_paths
@pytest.mark.parametrize("name", SCENARIOS)
def test_named_scenarios_match_the_uncompiled_check(compiled, name):
    check(compiled, *SCENARIOS[name])
