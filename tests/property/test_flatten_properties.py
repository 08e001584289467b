"""Property-based tests for update-sequence flattening.

The defining property of ``flatten`` (Section 4.2): applying the
flattened set to any instance in the sequence's starting state produces
the same final state as applying the original sequence — with all
intermediate steps removed.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.instance import Instance
from repro.model import Delete, Insert, Modify, flatten
from repro.model.flatten import keys_touched

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
def test_net_reads_only_consume_preexisting_state(case):
    initial, updates = case
    initial_keys = {("R", (key,)) for key in initial}
    for update in flatten(PROP_SCHEMA, updates):
        if update.read_row() is None:
            continue
        assert update.keys_touched(PROP_SCHEMA)[0] in initial_keys, (
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
    if isinstance(update, Insert):
        return Delete("R", update.row, update.origin)
    if isinstance(update, Delete):
        return Insert("R", update.row, update.origin)
    return Modify("R", update.new_row, update.old_row, update.origin)


# ----------------------------------------------------------------------
# Single-pass flattening (FlattenResult) against its two views and against
# a reference written apart from it: a chain trace that derives every key
# with ``key_of``, and the seed's O(n²)-restart fixpoint minimiser.


def _key(row):
    return None if row is None else ("R", PROP_SCHEMA.relation("R").key_of(row))


def _reference_nets(updates):
    """One net update per chain: ``[first read, final row, origin]``."""
    live, chains = {}, []
    for update in updates:
        read, written = update.read_row(), update.written_row()
        chain = None
        if read is not None:
            chain = live.pop(_key(read), None)
            if chain is None:
                chains.append(chain := [read, read, 0])
            assert chain[1] == read, "the reference takes valid sequences only"
            chain[1] = None
        if written is not None:
            if chain is None:
                chains.append(chain := [None, None, 0])
            chain[1] = written
            live[_key(written)] = chain
        chain[2] = update.origin
    nets = []
    for read, final, origin in chains:
        if read is None and final is not None:
            nets.append(Insert("R", final, origin))
        elif read is not None and final is None:
            nets.append(Delete("R", read, origin))
        elif read is not None and read != final:
            nets.append(Modify("R", read, final, origin))
    return nets


def _reference_compose(reader, writer):
    consumed, produced, origin = reader.read_row(), writer.written_row(), writer.origin
    kinds = (type(reader), type(writer))
    if consumed == produced:
        if kinds == (Delete, Insert):
            return []
        if kinds == (Delete, Modify):
            return [Delete("R", writer.old_row, origin)]
        if kinds == (Modify, Insert):
            return [Insert("R", reader.new_row, reader.origin)]
        if kinds == (Modify, Modify):
            if writer.old_row == reader.new_row:
                return []
            return [Modify("R", writer.old_row, reader.new_row, origin)]
    if kinds == (Delete, Insert):
        return [Modify("R", consumed, produced, origin)]
    return None


def _reference_minimise(nets):
    """The seed's O(n²)-restart fixpoint minimiser, kept as an oracle."""
    updates = list(nets)
    changed = True
    while changed:
        changed = False
        readers = {}
        writers = {}
        for update in updates:
            if (read_key := _key(update.read_row())) is not None:
                readers[read_key] = update
            if (write_key := _key(update.written_row())) is not None:
                writers[write_key] = update
        for key, reader in readers.items():
            writer = writers.get(key)
            if writer is None or writer is reader:
                continue
            replacement = _reference_compose(reader, writer)
            if replacement is None:
                continue
            updates = [u for u in updates if u is not reader and u is not writer]
            updates.extend(replacement)
            changed = True
            break
    return updates


def _reference_flatten(updates):
    nets = _reference_minimise(_reference_nets(updates))
    nets.sort(key=lambda u: (u.relation, repr(_key(u.read_row() or u.written_row())[1])))
    return nets


@given(valid_update_sequences())
@settings(max_examples=200)
def test_worklist_minimise_matches_reference_fixpoint(case):
    _initial, updates = case
    assert flatten(PROP_SCHEMA, updates) == _reference_flatten(updates)


@given(valid_update_sequences())
@settings(max_examples=200)
def test_flatten_once_matches_its_two_views(case):
    from repro.model.flatten import flatten_once

    _initial, updates = case
    result = flatten_once(PROP_SCHEMA, updates)
    assert list(result.operations) == flatten(PROP_SCHEMA, updates)
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
