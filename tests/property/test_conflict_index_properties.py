"""Property-based tests for ``IncrementalConflictIndex``, the one
``FindConflicts`` scanner, against the all-pairs reference.

A generated history is a handful of transactions in which a later one may
consume rows an earlier one produced (so extensions form chains, and two
chains may share antecedents without either subsuming the other — the
residual path of ``direct_conflict_points``).  A generated sequence of
extension sets then walks one index the way the engine and the stores do:
roots arrive, roots leave, a root's extension is replaced by a fresh equal
object, the set shrinks to a subset (``UpdateSoftState``).  After every
``update`` the index must say exactly what the reference says about the
same set.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.bench.ablations import naive_find_conflicts
from repro.core import RelevantTransaction, TransactionGraph
from repro.core.cache import ConflictCache
from repro.core.conflicts import (
    IncrementalConflictIndex,
    direct_conflict_points,
    find_conflicts,
)
from repro.core.extensions import UpdateExtension, compute_update_extension
from repro.errors import FlattenError
from repro.model import Delete, Insert, Modify, TransactionId, make_transaction

from tests.property.strategies import PROP_SCHEMA

_KEYS = range(4)
_VALUES = st.integers(min_value=0, max_value=2)


@st.composite
def histories(draw, max_transactions: int = 7):
    """A published history: its :class:`TransactionGraph` and its
    transaction ids in publish order.

    Each transaction is written against the *view* some earlier
    transaction left behind (or against nothing): it may insert a key the
    view lacks and delete or replace rows the view holds, and its
    antecedents are the producers of the rows it consumed — the rule the
    stores apply at publish time.  Views fork, so two transactions can
    consume different rows of one shared antecedent.
    """
    graph, tids = TransactionGraph(), []
    #: Per transaction, the view it left: key -> (row, producer).
    views: List[Dict[int, Tuple[Tuple, TransactionId]]] = [{}]
    for order in range(draw(st.integers(1, max_transactions))):
        origin = draw(st.integers(1, 3))
        tid = TransactionId(origin, order)
        view = dict(draw(st.sampled_from(views)))
        updates, antecedents = [], set()
        for key in draw(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=2, unique=True)):
            value = draw(_VALUES)
            if key not in view:
                updates.append(Insert("R", (key, value), origin))
                view[key] = ((key, value), tid)
                continue
            row, producer = view.pop(key)
            if producer != tid:
                antecedents.add(producer)
            if row[1] == value:
                updates.append(Delete("R", row, origin))
                continue
            # A replacement may move the row to a key the view lacks:
            # one update, two keys touched.
            target = draw(st.sampled_from([key] + [k for k in _KEYS if k not in view]))
            updates.append(Modify("R", row, (target, value), origin))
            view[target] = ((target, value), tid)
        graph.add(make_transaction(origin, order, updates), sorted(antecedents), order)
        views.append(view)
        tids.append(tid)
    return graph, tids


def extension_of(graph: TransactionGraph, tid, applied):
    """A fresh extension object for ``tid``, or None if it cannot flatten."""
    root = RelevantTransaction(graph.transaction(tid), 1, graph.order_of(tid))
    try:
        return compute_update_extension(PROP_SCHEMA, graph, root, applied)
    except FlattenError:
        return None


def pairs_of(extensions):
    tids = sorted(extensions)
    return [(a, b) for i, a in enumerate(tids) for b in tids[i + 1 :]]


def context_free(graph: TransactionGraph, tids) -> Dict[TransactionId, UpdateExtension]:
    """Every transaction's extension over its full closure, where one
    flattens."""
    return {tid: ext for tid in tids if (ext := extension_of(graph, tid, set()))}


def reaches_residual(history) -> bool:
    """True if two context-free extensions of ``history`` share a member
    with neither subsuming the other."""
    extensions = context_free(*history)
    return any(
        not extensions[a].member_set().isdisjoint(extensions[b].member_set())
        and not extensions[a].subsumes(extensions[b])
        and not extensions[b].subsumes(extensions[a])
        for a, b in pairs_of(extensions)
    )


def test_generator_reaches_the_residual_path():
    find(
        histories(),
        reaches_residual,
        settings=settings(derandomize=True, database=None),
    )


def assert_matches_reference(index, graph, extensions, analysis):
    """The index's analysis of ``extensions`` is the reference's, over
    the pairs hash-based candidate generation compares: extensions whose
    flattened footprints share a key.  (All-pairs comparison also sees a
    key two chains cancel above a shared antecedent — the gap pinned by
    ``tests/core/test_conflicts.py::TestFindConflicts::
    test_key_cancelled_over_a_shared_antecedent_is_no_candidate``.)"""
    reference = naive_find_conflicts(PROP_SCHEMA, graph, extensions)
    scratch = find_conflicts(PROP_SCHEMA, graph, extensions)
    assert set(analysis.adjacency) == set(extensions)
    assert scratch.adjacency == analysis.adjacency
    assert set(scratch.points) == set(analysis.points)
    for left, right in pairs_of(extensions):
        pair = ConflictCache.pair_key(left, right)
        candidate = not extensions[left].key_index(PROP_SCHEMA).keys().isdisjoint(
            extensions[right].key_index(PROP_SCHEMA)
        )
        adjacent = right in analysis.adjacency[left]
        assert adjacent == (candidate and right in reference[left])
        assert adjacent == (left in analysis.adjacency[right]) == (pair in analysis.points)
        if adjacent:
            # A pair's points come in the order its later arrival met
            # them; as a set they are Definition 4's, either way round.
            expected = direct_conflict_points(
                PROP_SCHEMA, graph, extensions[left], extensions[right]
            )
            assert sorted(analysis.points[pair]) == sorted(expected)
            assert sorted(scratch.points[pair]) == sorted(expected)
            assert len(set(expected)) == len(expected) > 0
        # Two held objects: the pair's points, or () — never None.
        held = index.lookup(pair, extensions[right], extensions[left])
        assert held == analysis.points.get(pair, ())


@given(histories(), st.data())
@settings(max_examples=200, deadline=None)
def test_index_tracks_the_reference_over_a_sequence_of_sets(history, data):
    graph, tids = history
    index = IncrementalConflictIndex()
    current: Dict[TransactionId, UpdateExtension] = {}
    for step in range(data.draw(st.integers(1, 6), label="steps")):
        actions = ["add", "drop", "replace", "shrink"] if step else ["add"]
        action = data.draw(st.sampled_from(actions))
        chosen = set(data.draw(st.lists(st.sampled_from(tids), unique=True), label=action))
        replaced: Dict[TransactionId, UpdateExtension] = {}
        if action == "add":
            # Against some applied set: a chain may arrive already cut —
            # down to the root alone, when everything else is applied.
            applied = set(
                data.draw(st.one_of(st.just(tids), st.lists(st.sampled_from(tids), unique=True)))
            ) - chosen
            following = dict(current)
            for tid in chosen - set(current):
                extension = extension_of(graph, tid, applied)
                if extension is not None:
                    following[tid] = extension
        elif action == "drop":
            following = {t: e for t, e in current.items() if t not in chosen}
        elif action == "shrink":
            following = {t: e for t, e in current.items() if t in chosen}
        else:
            # A fresh, equal object: same members, same operations.
            following = dict(current)
            for tid in chosen & set(current):
                replaced[tid] = current[tid]
                following[tid] = extension_of(
                    graph, tid, set(tids) - current[tid].member_set()
                )
                assert following[tid] == replaced[tid]
                assert following[tid] is not replaced[tid]
        analysis = index.update(PROP_SCHEMA, graph, following)
        assert len(index) == len(following)
        assert_matches_reference(index, graph, following, analysis)
        # As soon as either object was replaced, the pair is not held.
        for tid, old in replaced.items():
            for other, extension in following.items():
                if other != tid:
                    pair = ConflictCache.pair_key(tid, other)
                    assert index.lookup(pair, old, extension) is None
        current = following


@given(histories())
@settings(max_examples=100, deadline=None)
def test_discard_and_the_uncached_baseline_agree_with_a_fresh_index(history):
    graph, _tids = history
    extensions = context_free(*history)
    index = IncrementalConflictIndex()
    index.update(PROP_SCHEMA, graph, extensions)
    gone = sorted(extensions)[::2]
    index.discard(PROP_SCHEMA, gone)
    kept = {t: e for t, e in extensions.items() if t not in gone}
    # What is left is already the analysis of the kept set: updating to
    # it compares nothing.
    before = index.stats.pair_misses
    analysis = index.update(PROP_SCHEMA, graph, kept)
    assert index.stats.pair_misses == before
    assert_matches_reference(index, graph, kept, analysis)
    # enabled=False: every update is the from-scratch case, paid in full.
    uncached = IncrementalConflictIndex(enabled=False)
    uncached.update(PROP_SCHEMA, graph, extensions)
    again = uncached.update(PROP_SCHEMA, graph, kept)
    assert_matches_reference(uncached, graph, kept, again)
    scratch = IncrementalConflictIndex()
    scratch.update(PROP_SCHEMA, graph, kept)
    assert uncached.stats.pair_misses == before + scratch.stats.pair_misses
