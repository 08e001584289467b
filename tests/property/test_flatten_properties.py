"""Property-based tests for update-sequence flattening.

The defining property of ``flatten`` (Section 4.2): applying the
flattened set to any instance in the sequence's starting state produces
the same final state as applying the original sequence — with all
intermediate steps removed.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.instance import Instance
from repro.model import Insert, flatten
from repro.model.flatten import keys_read, keys_touched

from tests.property.strategies import PROP_SCHEMA, valid_update_sequences


def materialise(initial):
    instance = Instance(PROP_SCHEMA)
    for row in initial.values():
        instance.apply(Insert("R", row, 0))
    return instance


@given(valid_update_sequences())
@settings(max_examples=200)
def test_flatten_preserves_final_state(case):
    initial, updates = case
    direct = materialise(initial)
    direct.apply_all(updates)

    flattened = materialise(initial)
    flattened.apply_set(flatten(PROP_SCHEMA, updates))

    assert direct.snapshot() == flattened.snapshot()


@given(valid_update_sequences())
@settings(max_examples=200)
def test_flatten_output_is_minimised(case):
    """No composable reader/writer pair survives minimisation: a key never
    has both a plain Delete and a plain Insert, and never loses and
    regains the identical row."""
    _initial, updates = case
    flattened = flatten(PROP_SCHEMA, updates)
    readers = {}
    writers = {}
    for update in flattened:
        read = update.read_row()
        if read is not None:
            readers[PROP_SCHEMA.relation("R").key_of(read)] = update
        written = update.written_row()
        if written is not None:
            writers[PROP_SCHEMA.relation("R").key_of(written)] = update
    for key, reader in readers.items():
        writer = writers.get(key)
        if writer is None or writer is reader:
            continue
        assert reader.read_row() != writer.written_row(), (
            "identical consume/produce pair should have been composed away"
        )
        from repro.model import Delete, Insert

        assert not (
            isinstance(reader, Delete) and isinstance(writer, Insert)
        ), "Delete+Insert on one key should have merged into a Modify"


@given(valid_update_sequences())
@settings(max_examples=200)
def test_flatten_has_one_reader_and_one_writer_per_key(case):
    _initial, updates = case
    read_keys = set()
    written_keys = set()
    rel = PROP_SCHEMA.relation("R")
    for update in flatten(PROP_SCHEMA, updates):
        read = update.read_row()
        if read is not None:
            key = rel.key_of(read)
            assert key not in read_keys, f"key {key} consumed twice"
            read_keys.add(key)
        written = update.written_row()
        if written is not None:
            key = rel.key_of(written)
            assert key not in written_keys, f"key {key} written twice"
            written_keys.add(key)


@given(valid_update_sequences())
@settings(max_examples=200)
def test_flatten_never_grows_the_sequence(case):
    _initial, updates = case
    assert len(flatten(PROP_SCHEMA, updates)) <= max(len(updates), 0)


@given(valid_update_sequences())
@settings(max_examples=200)
def test_flattened_keys_are_a_subset_of_touched_keys(case):
    _initial, updates = case
    touched = keys_touched(PROP_SCHEMA, updates)
    for update in flatten(PROP_SCHEMA, updates):
        for key in update.keys_touched(PROP_SCHEMA):
            assert key in touched


@given(valid_update_sequences())
@settings(max_examples=200)
def test_keys_read_only_reports_preexisting_state(case):
    initial, updates = case
    initial_keys = {("R", (key,)) for key in initial}
    for key in keys_read(PROP_SCHEMA, updates):
        assert key in initial_keys, (
            "a valid sequence can only consume pre-existing rows it was "
            "given; anything else is a chain-tracking bug"
        )


@given(valid_update_sequences())
@settings(max_examples=100)
def test_flatten_of_noop_roundtrip_is_empty(case):
    initial, updates = case
    # Applying a sequence and then its exact inverse flattens to nothing.
    inverse = []
    for update in reversed(updates):
        inverse.append(_invert(update))
    assert flatten(PROP_SCHEMA, list(updates) + inverse) == []


def _invert(update):
    from repro.model import Delete, Insert, Modify

    if isinstance(update, Insert):
        return Delete("R", update.row, update.origin)
    if isinstance(update, Delete):
        return Insert("R", update.row, update.origin)
    return Modify("R", update.new_row, update.old_row, update.origin)


# ----------------------------------------------------------------------
# Single-pass flattening (FlattenResult) against the legacy three-call
# derivation and against a reference fixpoint minimiser.


def _reference_minimise(schema, nets):
    """The seed's O(n²)-restart fixpoint minimiser, kept as an oracle."""
    from repro.model.flatten import _compose_pair, _reader_at, _writer_at

    updates = list(nets)
    changed = True
    while changed:
        changed = False
        readers = {}
        writers = {}
        for update in updates:
            read_key = _reader_at(schema, update)
            if read_key is not None:
                readers[read_key] = update
            write_key = _writer_at(schema, update)
            if write_key is not None:
                writers[write_key] = update
        for key, reader in readers.items():
            writer = writers.get(key)
            if writer is None or writer is reader:
                continue
            replacement = _compose_pair(reader, writer)
            if replacement is None:
                continue
            updates = [u for u in updates if u is not reader and u is not writer]
            updates.extend(replacement)
            changed = True
            break
    return updates


def _reference_flatten(schema, updates):
    from repro.model.flatten import _net_update, _sort_key, _trace

    nets = [
        update
        for chain in _trace(schema, updates)
        if (update := _net_update(chain)) is not None
    ]
    nets = _reference_minimise(schema, nets)
    nets.sort(key=lambda u: _sort_key(schema, u))
    return nets


@given(valid_update_sequences())
@settings(max_examples=200)
def test_worklist_minimise_matches_reference_fixpoint(case):
    _initial, updates = case
    assert flatten(PROP_SCHEMA, updates) == _reference_flatten(
        PROP_SCHEMA, updates
    )


@given(valid_update_sequences())
@settings(max_examples=200)
def test_flatten_once_matches_the_three_call_derivation(case):
    from repro.model.flatten import flatten_once

    _initial, updates = case
    result = flatten_once(PROP_SCHEMA, updates)
    assert list(result.operations) == flatten(PROP_SCHEMA, updates)
    assert result.keys_read == keys_read(PROP_SCHEMA, updates)
    assert result.keys_touched == keys_touched(PROP_SCHEMA, updates)


@given(valid_update_sequences())
@settings(max_examples=100)
def test_flatten_once_traces_at_most_once(case):
    from repro.model.flatten import flatten_once, trace_runs

    _initial, updates = case
    before = trace_runs()
    flatten_once(PROP_SCHEMA, updates)
    # One chain trace for real sequences; zero- and one-update sequences
    # short-circuit without tracing at all.
    expected = 1 if len(updates) > 1 else 0
    assert trace_runs() == before + expected
