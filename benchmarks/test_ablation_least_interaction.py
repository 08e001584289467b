"""Ablation: what flattening (least interaction) buys.

Section 4.2's motivating scenario: a participant publishes a wrong value
and immediately revises it.  With flattening, the intermediate value
disappears from the update extension and cannot conflict with anyone;
with flattening ablated, every intermediate state fights every other
update that touched the same key.  This benchmark builds revision-heavy
chains and counts conflicting pairs under both semantics.
"""

from __future__ import annotations

from benchmarks.bench.ablations import (
    count_conflict_pairs,
    naive_find_conflicts,
    raw_update_extension,
    update_extension,
)
from repro.core.conflicts import find_conflicts
from repro.core.extensions import RelevantTransaction, TransactionGraph
from repro.model import Insert, Modify, Transaction, TransactionId
from repro.workload import curated_schema

from benchmarks.conftest import emit


def build_revision_chains(peers=10, keys=6):
    """Each peer inserts a wrong value at a popular key, then fixes it.

    After the fix, peers that picked the same final value agree; only the
    intermediate (reverted) values differed.
    """
    schema = curated_schema()
    graph = TransactionGraph()
    roots = []
    order = 0
    for peer in range(1, peers + 1):
        for key_index in range(keys):
            organism = "rat"
            protein = f"prot{key_index}"
            wrong = (organism, protein, f"wrong-{peer}")
            right = (organism, protein, "consensus")
            txn = Transaction(
                TransactionId(peer, key_index),
                (
                    Insert("F", wrong, peer),
                    Modify("F", wrong, right, peer),
                ),
            )
            graph.add((txn, (), order))
            roots.append(RelevantTransaction(txn, priority=1, order=order))
            order += 1
    return schema, graph, roots


def test_ablation_flattening_removes_intermediate_conflicts(benchmark):
    schema, graph, roots = build_revision_chains()

    def flattened_conflicts():
        extensions = {
            root.tid: update_extension(schema, graph, root, set())
            for root in roots
        }
        return find_conflicts(schema, graph, extensions).adjacency

    flattened = benchmark.pedantic(flattened_conflicts, rounds=1, iterations=1)

    raw_extensions = {
        root.tid: raw_update_extension(schema, graph, root, set())
        for root in roots
    }
    raw = naive_find_conflicts(schema, graph, raw_extensions)

    flattened_pairs = count_conflict_pairs(flattened)
    raw_pairs = count_conflict_pairs(raw)
    emit(
        "Ablation — least interaction (flattening):\n"
        f"  conflicting pairs with flattening   : {flattened_pairs}\n"
        f"  conflicting pairs without flattening: {raw_pairs}"
    )

    # Everyone converged on the same final value: flattening sees total
    # agreement, the ablation sees a quadratic pile of phantom conflicts.
    assert flattened_pairs == 0
    assert raw_pairs > 0
    benchmark.extra_info["flattened_pairs"] = flattened_pairs
    benchmark.extra_info["raw_pairs"] = raw_pairs
