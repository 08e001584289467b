"""Property-based tests for the conflict predicate and instance semantics."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instance import Instance
from repro.model import Insert, updates_conflict

from tests.property.strategies import (
    PROP_SCHEMA,
    single_updates,
    valid_update_sequences,
)


@given(single_updates(), single_updates())
@settings(max_examples=300)
def test_conflict_predicate_is_symmetric(left, right):
    assert updates_conflict(PROP_SCHEMA, left, right) == updates_conflict(
        PROP_SCHEMA, right, left
    )


@given(single_updates())
@settings(max_examples=100)
def test_update_never_conflicts_with_itself(update):
    assert not updates_conflict(PROP_SCHEMA, update, update)


@given(single_updates(), single_updates())
@settings(max_examples=300)
def test_conflicts_require_a_shared_key(left, right):
    left_keys = set(left.keys_touched(PROP_SCHEMA))
    right_keys = set(right.keys_touched(PROP_SCHEMA))
    if not (left_keys & right_keys):
        assert not updates_conflict(PROP_SCHEMA, left, right)


@given(single_updates(), single_updates())
@settings(max_examples=300)
def test_conflicting_writes_cannot_both_apply(left, right):
    """Two *write* updates that conflict must never both be applicable to
    any single instance state (soundness of the conflict predicate for
    insert/insert and write/write collisions)."""
    if not updates_conflict(PROP_SCHEMA, left, right):
        return
    if left.written_row() is None or right.written_row() is None:
        return
    if left.read_row() is not None or right.read_row() is not None:
        return
    # Both are pure inserts that conflict: same key, different rows.
    instance = Instance(PROP_SCHEMA)
    assert not instance.can_apply_all([left, right])


@given(valid_update_sequences())
@settings(max_examples=150)
def test_can_apply_all_agrees_with_apply_all(case):
    initial, updates = case
    probe = Instance(PROP_SCHEMA)
    for row in initial.values():
        probe.apply(Insert("R", row, 0))
    assert probe.can_apply_all(updates)
    probe.apply_all(updates)  # must not raise


@given(valid_update_sequences(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_apply_all_failure_leaves_instance_unchanged(case, rng):
    """Atomicity: if a sequence cannot fully apply, nothing applies.

    The sequence was valid against ``initial``; dropping one of the
    pre-existing rows it depends on usually breaks it partway through.
    """
    initial, updates = case
    if not initial:
        return
    dropped = rng.choice(sorted(initial))
    instance = Instance(PROP_SCHEMA)
    for key, row in initial.items():
        if key != dropped:
            instance.apply(Insert("R", row, 0))
    before = instance.snapshot()
    if instance.can_apply_all(updates):
        instance.apply_all(updates)  # still fine without the dropped row
        return
    try:
        instance.apply_all(updates)
        raised = False
    except Exception:
        raised = True
    assert raised
    assert instance.snapshot() == before
