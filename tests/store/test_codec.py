"""The sqlite store's text codec: total, type-exact, never executed.

Rows are written as a JSON array when every value is exactly a
``str``/``int``/``bool``/``None`` and as their ``repr`` literal
otherwise; the decoder chooses by the first character.  Three things
are pinned here:

* any hashable literal — nested tuples, ``bytes``, every ``float``,
  ``True`` next to ``1`` — round-trips with its *type*, through rows and
  so through every extension derived from them;
* nothing read back from the database is executed;
* a database whose rows were all written as ``repr`` text (every
  database written before the JSON form existed), or one that still
  holds the ``retired_extensions`` table derived data used to be
  persisted in, opens and reconciles to the same decision stream — and
  so does one whose verdicts carry no stamp, though it refuses to
  rebuild a participant from them.
"""

from __future__ import annotations

import ast
import math
import sqlite3

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.errors import StoreError
from repro.model import (
    AttributeDef,
    Delete,
    Insert,
    Modify,
    RelationSchema,
    Schema,
    Transaction,
    TransactionId,
)
from repro.policy import TrustPolicy
from repro.store import DurableUpdateStore, MemoryUpdateStore
from repro.store.central import _decode_row, _encode_row
from repro.store.direct_log import DirectLogStore
from repro.workload import curated_schema
from tests.conftest import decision_stream
from tests.core.helpers import derive_extension

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, float("inf"), float("-inf")]),
    st.text(st.characters(exclude_categories=())),  # lone surrogates too
    st.binary(max_size=8),
)
literals = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)
rows = st.lists(literals, max_size=4).map(tuple)
plain_rows = st.lists(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text()), max_size=4
).map(tuple)


def same(left, right) -> bool:
    """Equal in value *and* type, all the way down (``True`` is not
    ``1``, ``-0.0`` is not ``0.0``, ``nan`` is ``nan``)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (tuple, frozenset)):
        if isinstance(left, frozenset):
            left, right = sorted(left, key=repr), sorted(right, key=repr)
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, float):
        return repr(left) == repr(right)
    return left == right


@given(rows)
def test_rows_round_trip_type_exactly(row):
    assert same(_decode_row(_encode_row(row)), row)


@given(plain_rows)
def test_plain_rows_take_the_json_form(row):
    text = _encode_row(row)
    assert text.startswith("[") and text.isascii()
    assert same(_decode_row(text), row)


def test_the_form_is_chosen_by_type_not_by_value():
    assert _encode_row(("a", 1, True, None)) == '["a",1,true,null]'
    assert _encode_row((1.0,)) == "(1.0,)"  # a float is not plain
    assert _encode_row((("a",),)) == "(('a',),)"  # nor a nested tuple
    assert _encode_row(None) is None and _decode_row(None) is None
    # What the parent commit wrote for the same rows still decodes.
    assert same(_decode_row("('a', 1, True, None)"), ("a", 1, True, None))
    assert same(_decode_row("()"), ()) and same(_decode_row("[]"), ())


@pytest.mark.parametrize(
    "text",
    [
        "__import__('os').system('true')",
        "(lambda: 1)()",
        "[__import__('os')]",
        "(1).__class__",
    ],
)
def test_nothing_read_from_the_database_is_executed(text):
    with pytest.raises((ValueError, SyntaxError)):
        _decode_row(text)


def exploded(extension):
    """An extension as nested plain data, for a type-exact comparison."""
    return (
        (extension.root.participant, extension.root.sequence),
        tuple((m.participant, m.sequence) for m in extension.members),
        tuple(
            (type(u).__name__, u.relation, u.read_row(), u.written_row(), u.origin)
            for u in extension.operations
        ),
        frozenset(extension.touched),
    )


ANY_VALUE = Schema(
    [
        RelationSchema(
            "R", [AttributeDef(name, None) for name in ("k", "v", "w")], key=("k",)
        )
    ]
)


@st.composite
def transactions(draw):
    """One transaction of one to three updates on distinct keys, every
    value any hashable literal."""
    updates = []
    for key in range(draw(st.integers(1, 3))):
        old, new = (key, draw(literals), "old"), (key, draw(literals), "new")
        updates.append(
            draw(
                st.sampled_from(
                    [Insert("R", new, 1), Delete("R", old, 1), Modify("R", old, new, 1)]
                )
            )
        )
    return Transaction(TransactionId(1, 0), tuple(updates))


def derived_extension(store, transaction):
    """The extension a client derives for ``transaction`` over ``store``'s
    client-centric batch."""
    store.register_participant(1, TrustPolicy())
    store.register_participant(2, TrustPolicy().trust_participant(1, 1))
    store.publish(1, [transaction])
    batch = store.begin_reconciliation(2)
    [root] = batch.roots
    return derive_extension(store.schema, batch.graph, root, set())


@given(transactions())
def test_extensions_derived_from_the_file_are_type_exact(transaction):
    """Extensions are derived from decoded rows, never stored: over the
    sqlite store's batch (the body read back from the database) a client
    derives the extension it derives over ``memory``'s original objects."""
    from_memory = derived_extension(MemoryUpdateStore(ANY_VALUE), transaction)
    with DurableUpdateStore(ANY_VALUE, cache_size=1) as store:
        from_file = derived_extension(store, transaction)
    assert same(exploded(from_file), exploded(from_memory))


def test_a_plain_row_takes_the_json_form_on_disk():
    with DurableUpdateStore(curated_schema()) as store:
        store.register_participant(3, TrustPolicy())
        store.publish(
            3, [Transaction(TransactionId(3, 7), (Insert("F", ("rat", "p1", "immune"), 3),))]
        )
        stored = store._conn.execute("SELECT old_row, new_row FROM txn_updates").fetchall()
    assert stored == [(None, '["rat","p1","immune"]')]


# ----------------------------------------------------------------------
# A database written as ``repr`` throughout opens and resumes


def legacy_payload(extension) -> str:
    """An extension exactly as the ``repr`` codec once spilled it, with
    the root priority it then carried (every participant of this
    schedule trusts the others at 1)."""
    root, members, operations, touched = exploded(extension)
    kinds = {"Insert": "insert", "Delete": "delete", "Modify": "modify"}
    operations = tuple((kinds[kind], *rest) for kind, *rest in operations)
    return repr((root, 1, members, operations, tuple(sorted(touched))))


def rewrite_as_legacy(path) -> int:
    """Rewrite every codec column of the database at ``path`` the way the
    parent commit would have written it, with raw SQL; returns how many
    values that touched."""
    conn = sqlite3.connect(path)
    rewritten = 0
    with conn:
        for ord_, idx, old, new in conn.execute(
            "SELECT ord, idx, old_row, new_row FROM txn_updates"
        ).fetchall():
            old, new = (t and repr(_decode_row(t)) for t in (old, new))
            conn.execute(
                "UPDATE txn_updates SET old_row = ?, new_row = ?"
                " WHERE ord = ? AND idx = ?",
                (old, new, ord_, idx),
            )
            rewritten += 1
    texts = conn.execute(
        "SELECT old_row FROM txn_updates UNION ALL SELECT new_row FROM txn_updates"
        " UNION ALL SELECT row FROM producers"
    ).fetchall()
    conn.close()
    assert all(text is None or text.startswith("(") for (text,) in texts)
    for (text,) in texts:
        if text is not None:
            ast.literal_eval(text)  # every one a ``repr`` literal
    return rewritten


def config(path, peers):
    return ConfederationConfig(
        store="durable", store_options={"path": path, "cache_size": 4}, peers=peers
    )


def first_phase(path):
    """Peers 1-3 publish, reconcile and retire a few chained transactions."""
    with Confederation(config(path, (1, 2, 3))) as confed:
        one, two, three = (confed.participant(pid) for pid in (1, 2, 3))
        for serial in range(6):
            one.execute([Insert("F", (f"org{serial}", "prot", "fn"), 1)])
        one.publish_and_reconcile()
        two.publish_and_reconcile()
        two.execute([Modify("F", ("org0", "prot", "fn"), ("org0", "prot", "fn2"), 2)])
        two.execute([Delete("F", ("org1", "prot", "fn"), 2)])
        two.publish_and_reconcile()
        three.publish_and_reconcile()
        one.publish_and_reconcile()
        assert confed.store.retired_extension_count() > 0


def second_phase(path):
    """Reopen with a fourth peer; everyone goes on over the old history."""
    hooks = HookBus()
    log = decision_stream(hooks)
    with Confederation(config(path, (1, 2, 3, 4)), hooks=hooks) as confed:
        confed.restore()
        # The newcomer's first window is the whole history: retired
        # extensions are derived again, old bodies page from the log.
        confed.participant(4).publish_and_reconcile()
        three = confed.participant(3)
        # An old row's producer is found, and its antecedent chain read.
        three.execute([Modify("F", ("org0", "prot", "fn2"), ("org0", "prot", "fn3"), 3)])
        three.execute([Delete("F", ("org2", "prot", "fn"), 3)])
        three.publish_and_reconcile()
        for pid in (1, 2, 4):
            confed.participant(pid).publish_and_reconcile()
        instances = {p.id: p.instance.snapshot() for p in confed.participants}
        antecedents = confed.store.antecedents_of(TransactionId(3, 0))
    return log, instances, antecedents


def test_a_database_written_as_repr_resumes_to_the_same_decisions(tmp_path):
    control, legacy = str(tmp_path / "control.db"), str(tmp_path / "legacy.db")
    first_phase(control)
    first_phase(legacy)
    assert rewrite_as_legacy(legacy) == 8
    expected = second_phase(control)
    assert second_phase(legacy) == expected
    log, _instances, antecedents = expected
    assert antecedents == (TransactionId(2, 0),)  # found through the old index
    assert {event[0] for event in log} == {1, 2, 4}  # 3 only published


#: The one table the schema had while retired extensions were persisted,
#: as it was declared; every other table is unchanged since.
SPILL_TABLE = """
CREATE TABLE retired_extensions (
    participant INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (participant, seq)
)
"""


def table_rows(path):
    """Every row of every table in the database at ``path``."""
    conn = sqlite3.connect(path)
    try:
        names = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        return {
            name: sorted(conn.execute(f'SELECT * FROM "{name}"').fetchall(), key=repr)
            for (name,) in names.fetchall()
        }
    finally:
        conn.close()


def test_a_database_holding_spilled_extensions_opens_and_ignores_them(
    tmp_path, monkeypatch
):
    """A file from when retired extensions were spilled to the database:
    it opens without a row written, nothing reads the spill, and the
    confederation resumes to the decisions a file without one reaches."""
    control, spilling = str(tmp_path / "control.db"), str(tmp_path / "spilling.db")
    first_phase(control)
    conn = sqlite3.connect(spilling)
    conn.execute(SPILL_TABLE)
    conn.close()
    spilled = []
    retire = DirectLogStore.retire_shared_entries

    def retire_and_spill(store, roots):
        """Retire as the old store did: each derivation to the table."""
        graph = store.shared_pair_cache()
        for tid in roots:
            extension = graph._entries.get(tid)
            if extension is not None:
                spilled.append((tid, extension))
        retire(store, roots)

    with monkeypatch.context() as patch:
        patch.setattr(DirectLogStore, "retire_shared_entries", retire_and_spill)
        first_phase(spilling)
    conn = sqlite3.connect(spilling)
    with conn:
        conn.executemany(
            "INSERT INTO retired_extensions VALUES (?, ?, ?)",
            [(tid.participant, tid.sequence, legacy_payload(e)) for tid, e in spilled],
        )
    conn.close()
    before = table_rows(spilling)
    assert len(before["retired_extensions"]) == len(spilled) > 0

    DurableUpdateStore(curated_schema(), path=spilling).close()
    assert table_rows(spilling) == before  # recovery had nothing to do
    assert second_phase(spilling) == second_phase(control)
    assert table_rows(spilling)["retired_extensions"] == before["retired_extensions"]


def rewrite_without_stamps(path) -> int:
    """Drop the ``decisions`` columns the parent schema did not have
    (``version``, ``head``) with raw SQL; returns how many applied rows
    lost their stamp."""
    conn = sqlite3.connect(path)
    with conn:
        (applied,) = conn.execute(
            "SELECT COUNT(*) FROM decisions WHERE verdict = 'applied'"
        ).fetchone()
        conn.execute("ALTER TABLE decisions DROP COLUMN head")
        conn.execute("ALTER TABLE decisions DROP COLUMN version")
    conn.close()
    return applied


def decision_columns(path):
    conn = sqlite3.connect(path)
    try:
        return [column[1] for column in conn.execute("PRAGMA table_info(decisions)")]
    finally:
        conn.close()


def test_a_database_without_verdict_stamps_carries_on_but_refuses_a_rebuild(tmp_path):
    """A file written before verdicts were stamped: opening it adds the
    columns (``NULL`` on the rows already there), publish and reconcile
    decide as on a stamped file, and rebuilding a participant with an
    unstamped applied verdict is refused with the reason, not guessed."""
    control, legacy = str(tmp_path / "control.db"), str(tmp_path / "legacy.db")
    first_phase(control)
    first_phase(legacy)
    assert rewrite_without_stamps(legacy) > 0
    assert decision_columns(legacy) == ["participant", "ord", "verdict"]
    outcomes = {}
    for path in (control, legacy):
        hooks = HookBus()
        log = decision_stream(hooks)
        with Confederation(config(path, (1, 2, 3, 4)), hooks=hooks) as confed:
            four = confed.participant(4)
            four.execute([Insert("F", ("org9", "prot", "fn"), 4)])
            for pid in (4, 1, 2, 3):
                confed.participant(pid).publish_and_reconcile()
            outcomes[path] = log, four.instance.snapshot()
            # The newcomer's verdicts are all stamped: it rebuilds.
            assert confed.restore(4).instance.snapshot() == outcomes[path][1]
            if path == legacy:
                with pytest.raises(StoreError, match="without an applied-set version"):
                    confed.restore(1)
            else:
                confed.restore(1)
    assert outcomes[legacy] == outcomes[control]
    assert decision_columns(legacy) == decision_columns(control)


def test_float_and_nested_rows_survive_the_store(tmp_path):
    """Rows the JSON form does not take go through the real tables."""
    schema = Schema(
        [RelationSchema("R", [AttributeDef("k", None), AttributeDef("v", None)], key=("k",))]
    )
    rows = [(1, -0.0), (True, float("inf")), (("a", 1), b"\x00\xff"), ("é中", None)]
    path = str(tmp_path / "store.db")
    with DurableUpdateStore(schema, path=path, cache_size=1) as store:
        store.register_participant(1, TrustPolicy())
        store.register_participant(2, TrustPolicy().trust_participant(1, 1))
        store.publish(
            1,
            [
                Transaction(TransactionId(1, seq), (Insert("R", row, 1),))
                for seq, row in enumerate(rows)
            ],
        )
    with DurableUpdateStore(schema, path=path, cache_size=1) as store:
        store.register_participant(2, TrustPolicy().trust_participant(1, 1))
        batch = store.begin_reconciliation(2)
        read = [root.transaction.updates[0].row for root in batch.roots]
    assert len(read) == len(rows) and all(map(same, read, rows))
    assert math.copysign(1.0, read[0][1]) == -1.0
