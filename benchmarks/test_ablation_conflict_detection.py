"""Ablation: hash-indexed vs. naive all-pairs conflict detection.

The paper's complexity analysis assumes "a hash table-based conflict
detection algorithm" to reach O(t^2 + t*u*a).  This benchmark builds a
realistic batch of update extensions and compares the key-indexed
``find_conflicts`` against the naive all-pairs baseline: identical
results, with the indexed version examining only extensions that share a
key.
"""

from __future__ import annotations

import time

from benchmarks.bench.ablations import count_conflict_pairs, naive_find_conflicts
from repro.core.conflicts import find_conflicts
from repro.core.extensions import RelevantTransaction, compute_update_extension
from repro.instance import Instance
from repro.workload import WorkloadConfig, WorkloadGenerator, curated_schema

from benchmarks.conftest import emit


def build_extension_batch(peers=12, transactions_per_peer=12):
    """A batch of flattened extensions from the evaluation workload."""
    schema = curated_schema()
    generator = WorkloadGenerator(WorkloadConfig(transaction_size=2, seed=13))
    from repro.core.extensions import TransactionGraph
    from repro.model import Transaction, TransactionId

    graph = TransactionGraph()
    extensions = {}
    order = 0
    for peer in range(1, peers + 1):
        instance = Instance(schema)
        for seq in range(transactions_per_peer):
            updates = generator.transaction_updates(peer, instance)
            if not updates:
                continue
            instance.apply_all(updates)
            txn = Transaction(TransactionId(peer, seq), tuple(updates))
            graph.add((txn, (), order))
            root = RelevantTransaction(txn, priority=1, order=order)
            extensions[txn.tid] = compute_update_extension(
                schema, graph, root, set()
            )
            order += 1
    return schema, graph, extensions


def test_ablation_indexed_vs_naive_conflict_detection(benchmark):
    schema, graph, extensions = build_extension_batch()

    naive_start = time.perf_counter()
    naive = naive_find_conflicts(schema, graph, extensions)
    naive_seconds = time.perf_counter() - naive_start

    indexed = benchmark.pedantic(
        lambda: find_conflicts(schema, graph, extensions).adjacency,
        rounds=3,
        iterations=1,
    )
    indexed_start = time.perf_counter()
    find_conflicts(schema, graph, extensions)
    indexed_seconds = time.perf_counter() - indexed_start

    emit(
        f"Ablation — conflict detection over {len(extensions)} extensions:\n"
        f"  naive all-pairs : {naive_seconds * 1000:8.2f} ms\n"
        f"  key-indexed     : {indexed_seconds * 1000:8.2f} ms\n"
        f"  conflicting pairs: {count_conflict_pairs(indexed)}"
    )

    # Correctness: both algorithms find exactly the same conflicts.
    assert indexed == naive
    assert count_conflict_pairs(indexed) > 0  # the workload does collide
    benchmark.extra_info["naive_ms"] = naive_seconds * 1000
    benchmark.extra_info["conflict_pairs"] = count_conflict_pairs(indexed)
