"""Unit tests for transaction graphs and update extensions (Definition 3)."""

from __future__ import annotations

import pytest

import repro.core.extensions as extensions_module
from repro.core import RelevantTransaction, TransactionGraph
from repro.core.extensions import (
    compute_update_extension,
    flattened_extension,
    update_footprint,
)
from repro.errors import FlattenError, ReconciliationError
from repro.model import Delete, Insert, Modify, TransactionId, make_transaction
from repro.model.flatten import flatten_once
from repro.model.transactions import Transaction

from tests.core.helpers import GraphBuilder


RAT1 = ("rat", "prot1", "cell-metab")
RAT1_IMMUNE = ("rat", "prot1", "immune")
RAT1_RESP = ("rat", "prot1", "cell-resp")


@pytest.fixture
def chain_graph(schema):
    """X3:0 inserts, X3:1 modifies it, X2:0 modifies that again."""
    builder = GraphBuilder()
    x30 = make_transaction(3, 0, [Insert("F", RAT1, 3)])
    x31 = make_transaction(3, 1, [Modify("F", RAT1, RAT1_IMMUNE, 3)])
    x20 = make_transaction(2, 0, [Modify("F", RAT1_IMMUNE, RAT1_RESP, 2)])
    builder.add(x30)
    builder.add(x31, antecedents=[x30.tid])
    builder.add(x20, antecedents=[x31.tid])
    return builder, x30, x31, x20


class TestTransactionGraph:
    def test_lookup_and_order(self, chain_graph):
        builder, x30, x31, x20 = chain_graph
        graph = builder.graph
        assert graph.transaction(x30.tid) is x30
        assert graph.order_of(x30.tid) < graph.order_of(x31.tid)
        assert x30.tid in graph
        assert len(graph) == 3

    def test_unknown_transaction_raises(self):
        graph = TransactionGraph()
        with pytest.raises(ReconciliationError):
            graph.transaction(TransactionId(1, 0))
        with pytest.raises(ReconciliationError):
            graph.order_of(TransactionId(1, 0))

    def test_extension_transitive_closure(self, chain_graph):
        builder, x30, x31, x20 = chain_graph
        members = builder.graph.extension(x20.tid, applied=set())
        assert members == [x30.tid, x31.tid, x20.tid]

    def test_extension_skips_applied(self, chain_graph):
        builder, x30, x31, x20 = chain_graph
        members = builder.graph.extension(x20.tid, applied={x30.tid, x31.tid})
        assert members == [x20.tid]

    def test_extension_partial_applied(self, chain_graph):
        builder, x30, x31, x20 = chain_graph
        # x30 applied but x31 not: closure keeps x31 only.
        members = builder.graph.extension(x20.tid, applied={x30.tid})
        assert members == [x31.tid, x20.tid]

    def test_an_unrecorded_member_has_no_publish_order(self, chain_graph):
        builder, x30, x31, x20 = chain_graph
        with pytest.raises(ReconciliationError, match="has no recorded publish order"):
            builder.graph.extension(TransactionId(9, 0), applied=set())
        graph = TransactionGraph()
        graph.add((x31, (x30.tid,), 1))  # its antecedent was never fetched
        with pytest.raises(ReconciliationError, match="has no recorded publish order"):
            graph.extension(x31.tid, applied=set())
        assert graph.extension(x31.tid, applied={x30.tid}) == [x31.tid]

    @pytest.mark.parametrize(
        "updates",
        [
            (Insert("F", RAT1, 1),),
            (Insert("F", RAT1, 1), Insert("F", ("mouse", "prot2", "immune"), 1)),
            (Insert("F", RAT1, 1), Modify("F", RAT1, RAT1_IMMUNE, 1)),
        ],
    )
    def test_an_antecedent_free_root_is_its_own_closure(self, schema, monkeypatch, updates):
        builder = GraphBuilder()
        txn = Transaction(TransactionId(1, 0), updates)
        builder.add(make_transaction(2, 0, [Insert("F", RAT1_RESP, 2)]))
        builder.add(txn)
        root = RelevantTransaction(txn, priority=2, order=1)
        expected = flatten_once(schema, list(updates))

        def walk(*args, **kwargs):
            raise AssertionError("an antecedent-free root was walked")

        monkeypatch.setattr(extensions_module, "antecedent_closure", walk)
        assert builder.graph.extension(txn.tid, applied=set()) == [txn.tid]
        extension = compute_update_extension(schema, builder.graph, root, set())
        assert extension.members == (txn.tid,)
        assert extension.operations == expected.operations
        assert extension.touched == expected.keys_touched

    def test_an_antecedent_free_root_that_does_not_flatten_raises(self, schema):
        # Two insertions at one key: the engine rejects the root.
        builder = GraphBuilder()
        txn = Transaction(
            TransactionId(1, 0), (Insert("F", RAT1, 1), Insert("F", RAT1_IMMUNE, 1))
        )
        builder.add(txn)
        with pytest.raises(FlattenError):
            compute_update_extension(
                schema, builder.graph, RelevantTransaction(txn, 1, 0), set()
            )

    def test_merge(self, chain_graph):
        builder, x30, x31, x20 = chain_graph
        other = TransactionGraph()
        other.merge(builder.graph)
        assert len(other) == 3
        assert other.antecedents_of(x31.tid) == (x30.tid,)


class TestUpdateExtension:
    def test_flattened_operations(self, schema, chain_graph):
        builder, x30, x31, x20 = chain_graph
        root = RelevantTransaction(x20, priority=1, order=2)
        extension = compute_update_extension(
            schema, builder.graph, root, applied=set()
        )
        assert extension.operations == (Insert("F", RAT1_RESP, 2),)
        assert extension.members == (x30.tid, x31.tid, x20.tid)

    def test_extension_relative_to_applied(self, schema, chain_graph):
        builder, x30, x31, x20 = chain_graph
        root = RelevantTransaction(x20, priority=1, order=2)
        extension = compute_update_extension(
            schema, builder.graph, root, applied={x30.tid, x31.tid}
        )
        assert extension.operations == (Modify("F", RAT1_IMMUNE, RAT1_RESP, 2),)

    def test_touched_keys_cover_whole_footprint(self, schema, chain_graph):
        builder, x30, x31, x20 = chain_graph
        root = RelevantTransaction(x20, priority=1, order=2)
        extension = compute_update_extension(
            schema, builder.graph, root, applied=set()
        )
        assert ("F", ("rat", "prot1")) in extension.touched

    def test_subsumption(self, schema, chain_graph):
        builder, x30, x31, x20 = chain_graph
        big = compute_update_extension(
            schema,
            builder.graph,
            RelevantTransaction(x20, priority=1, order=2),
            applied=set(),
        )
        small = compute_update_extension(
            schema,
            builder.graph,
            RelevantTransaction(x31, priority=1, order=1),
            applied=set(),
        )
        assert big.subsumes(small)
        assert not small.subsumes(big)

    def test_update_footprint_order(self, schema, chain_graph):
        builder, x30, x31, x20 = chain_graph
        footprint = update_footprint(
            builder.graph, [x30.tid, x31.tid, x20.tid]
        )
        assert footprint == [
            Insert("F", RAT1, 3),
            Modify("F", RAT1, RAT1_IMMUNE, 3),
            Modify("F", RAT1_IMMUNE, RAT1_RESP, 2),
        ]


class TestOneTransactionClosure:
    """A root with no antecedent is flattened straight from its own
    ``updates``: the result must be the one concatenating its closure
    gives."""

    @pytest.mark.parametrize(
        "updates",
        [
            [Insert("F", RAT1, 1)],
            [Modify("F", RAT1, ("mouse", "prot2", "immune"), 1)],
            [Insert("F", RAT1, 1), Modify("F", RAT1, RAT1_IMMUNE, 1)],
            [Insert("F", RAT1, 1), Delete("F", RAT1, 1)],
            [Delete("F", RAT1, 1), Insert("F", RAT1_RESP, 1)],
        ],
    )
    def test_equals_the_concatenation_path(self, schema, updates):
        txn = make_transaction(1, 0, updates)
        extension = flattened_extension(schema, txn.tid, [txn])
        concatenated = flatten_once(schema, [u for member in [txn] for u in member.updates])
        assert extension.root == txn.tid
        assert extension.members == (txn.tid,)
        assert extension.member_set == frozenset({txn.tid})
        assert extension.operations == concatenated.operations
        assert extension.touched == concatenated.keys_touched

    def test_a_single_update_is_its_own_operations(self, schema):
        txn = make_transaction(1, 0, [Insert("F", RAT1, 1)])
        extension = flattened_extension(schema, txn.tid, [txn])
        assert extension.operations is txn.updates
        # A list is copied: the operations of an extension are a tuple.
        assert flatten_once(schema, list(txn.updates)).operations == txn.updates

    def test_an_unflattenable_transaction_raises_as_the_concatenation_does(self, schema):
        # Two insertions at one key: no local instance would take it, but
        # a log may hold it, and its root must be rejected.
        txn = Transaction(
            TransactionId(1, 0), (Insert("F", RAT1, 1), Insert("F", RAT1_RESP, 1))
        )
        with pytest.raises(FlattenError) as direct:
            flattened_extension(schema, txn.tid, [txn])
        with pytest.raises(FlattenError) as concatenated:
            flatten_once(schema, list(txn.updates))
        assert str(direct.value) == str(concatenated.value)

    def test_a_longer_closure_still_concatenates(self, schema, chain_graph):
        builder, x30, x31, x20 = chain_graph
        extension = flattened_extension(schema, x20.tid, [x30, x31, x20])
        assert extension.members == (x30.tid, x31.tid, x20.tid)
        assert extension.operations == (Insert("F", RAT1_RESP, 2),)
