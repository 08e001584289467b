"""Ablation implementations: the design choices DESIGN.md calls out.

These deliberately *worse* variants quantify why the system is built the
way it is:

* :func:`naive_find_conflicts` — all-pairs conflict detection with no key
  index, the quadratic baseline the paper's "hash table-based conflict
  detection" improves on;
* :func:`raw_update_extension` — extensions built *without* flattening,
  so intermediate states of update chains are visible to conflict
  detection (ablating the paper's least-interaction principle), beside
  :func:`update_extension`, the flattened one every variant is
  measured against.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.conflicts import direct_conflict_points
from repro.core.extensions import (
    RelevantTransaction,
    TransactionGraph,
    UpdateExtension,
    flattened_extension,
    update_footprint,
)
from repro.model.flatten import keys_touched
from repro.model.schema import Schema
from repro.model.transactions import TransactionId
from repro.model.updates import updates_conflict


def naive_find_conflicts(
    schema: Schema,
    graph: TransactionGraph,
    extensions: Dict[TransactionId, UpdateExtension],
) -> Dict[TransactionId, Set[TransactionId]]:
    """All-pairs direct-conflict detection without the key index.

    Observationally identical to
    :func:`repro.core.conflicts.find_conflicts`; only the candidate
    generation differs (every pair is compared).
    """
    conflicts: Dict[TransactionId, Set[TransactionId]] = {
        tid: set() for tid in extensions
    }
    tids = sorted(extensions)
    for i, left_tid in enumerate(tids):
        for right_tid in tids[i + 1 :]:
            left, right = extensions[left_tid], extensions[right_tid]
            if left.subsumes(right) or right.subsumes(left):
                continue
            if _pairwise_conflict_no_index(schema, graph, left, right):
                conflicts[left_tid].add(right_tid)
                conflicts[right_tid].add(left_tid)
    return conflicts


def _pairwise_conflict_no_index(schema, graph, left, right) -> bool:
    shared = left.member_set & right.member_set
    if shared:
        # Fall back to the shared-aware path; the ablation targets the
        # common no-shared-members case.
        return bool(direct_conflict_points(schema, graph, left, right))
    for left_update in left.operations:
        for right_update in right.operations:
            if updates_conflict(schema, left_update, right_update):
                return True
    return False


def update_extension(
    schema: Schema,
    graph: TransactionGraph,
    root: RelevantTransaction,
    applied: Set[TransactionId],
) -> UpdateExtension:
    """The update extension as the system derives it: the root's closure
    stopped at ``applied``, flattened."""
    members = graph.extension(root.tid, applied)
    return flattened_extension(schema, root.tid, [graph.transaction(tid) for tid in members])


def raw_update_extension(
    schema: Schema,
    graph: TransactionGraph,
    root: RelevantTransaction,
    applied: Set[TransactionId],
) -> UpdateExtension:
    """An update extension whose operations are the *unflattened* footprint.

    With flattening ablated, revised-away intermediate values still
    participate in conflict detection — exactly what the paper's least
    interaction principle forbids.
    """
    members = graph.extension(root.tid, applied)
    footprint = update_footprint(graph, members)
    return UpdateExtension(
        root=root.tid,
        members=tuple(members),
        operations=tuple(footprint),
        touched=frozenset(keys_touched(schema, footprint)),
    )


def count_conflict_pairs(conflicts: Dict[TransactionId, Set[TransactionId]]) -> int:
    """Number of unordered conflicting pairs in an adjacency map."""
    return sum(len(neighbours) for neighbours in conflicts.values()) // 2
