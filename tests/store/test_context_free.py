"""The direct-log stores' context-free extensions: a root with no
antecedents is its own closure, and must derive exactly what walking its
closure derives."""

from __future__ import annotations

from operator import itemgetter

import pytest

from repro.core.extensions import (
    RelevantTransaction,
    TransactionGraph,
    compute_update_extension,
)
from repro.errors import FlattenError
from repro.model import Insert, Modify, TransactionId, make_transaction
from repro.model.transactions import Transaction
from repro.policy import TrustPolicy
from repro.store import CentralUpdateStore, MemoryUpdateStore

RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
MOUSE2 = ("mouse", "prot2", "immune")


@pytest.fixture(params=["memory", "central"])
def store(request, schema):
    if request.param == "memory":
        yield MemoryUpdateStore(schema)
    else:
        with CentralUpdateStore(schema) as central:
            yield central


def published(store, transactions):
    """Publish ``transactions`` from participant 1 (registered here)."""
    store.register_participant(1, TrustPolicy())
    store.publish(1, transactions)
    return transactions


def walked(store, schema, txn):
    """``txn``'s extension by the closure walk: the table the batch read,
    and the extension (or the ``FlattenError`` the walk meets)."""
    table = {}
    closure = sorted(store.closure_entries([txn.tid], frozenset(), table), key=itemgetter(2))
    graph = TransactionGraph()
    for entry in closure:
        graph.add(entry)
    root = RelevantTransaction(txn, priority=2, order=table[txn.tid][2])
    try:
        return root, table, compute_update_extension(schema, graph, root, set())
    except FlattenError as error:
        return root, table, error


def forbid_walks(store, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("an antecedent-free root was walked")

    monkeypatch.setattr(store, "closure_entries", walk)


@pytest.mark.parametrize(
    "updates",
    [
        (Insert("F", RAT1, 1),),
        (Insert("F", RAT1, 1), Insert("F", MOUSE2, 1)),
        (Insert("F", RAT1, 1), Modify("F", RAT1, RAT1_IMMUNE, 1)),
    ],
)
def test_an_antecedent_free_root_is_its_own_closure(store, schema, monkeypatch, updates):
    (txn,) = published(store, [Transaction(TransactionId(1, 0), updates)])
    root, table, expected = walked(store, schema, txn)
    assert table[txn.tid][1] == ()
    forbid_walks(store, monkeypatch)
    extension = store.context_free_extension(root, table)
    assert extension.root == expected.root
    assert extension.members == expected.members == (txn.tid,)
    assert extension.operations == expected.operations
    assert extension.touched == expected.touched
    assert extension.priority == expected.priority


def test_an_antecedent_free_root_that_does_not_flatten_is_none(store, schema, monkeypatch):
    # Two insertions at one key: the walk meets a FlattenError, so the
    # memo says None (the engine rejects the root).
    (txn,) = published(
        store,
        [Transaction(TransactionId(1, 0), (Insert("F", RAT1, 1), Insert("F", RAT1_IMMUNE, 1)))],
    )
    root, table, expected = walked(store, schema, txn)
    assert isinstance(expected, FlattenError)
    forbid_walks(store, monkeypatch)
    assert store.context_free_extension(root, table) is None
    assert store._nc_context_free[txn.tid] is None


def test_a_root_with_antecedents_still_walks(store, schema):
    base, revision = published(
        store,
        [
            make_transaction(1, 0, [Insert("F", RAT1, 1)]),
            make_transaction(1, 1, [Modify("F", RAT1, RAT1_IMMUNE, 1)]),
        ],
    )
    root, _table, expected = walked(store, schema, revision)
    # Only the root's own entry is at hand: its antecedent must be read.
    table = {revision.tid: store.closure_entries([revision.tid], {base.tid})[0]}
    assert table[revision.tid][1] == (base.tid,)
    extension = store.context_free_extension(root, table)
    assert extension.members == expected.members == (base.tid, revision.tid)
    assert extension.operations == expected.operations == (Insert("F", RAT1_IMMUNE, 1),)
    assert extension.touched == expected.touched
    assert base.tid in table


def test_without_a_table_the_root_is_walked(store, schema):
    (txn,) = published(store, [make_transaction(1, 0, [Insert("F", RAT1, 1)])])
    root, _table, expected = walked(store, schema, txn)
    extension = store.context_free_extension(root)
    assert (extension.members, extension.operations) == (expected.members, expected.operations)
