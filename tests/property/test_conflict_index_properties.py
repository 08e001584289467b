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
same set — alone, and when two indexes work over one shared
``ConflictGraph`` the way sixteen participants' do: each still equals the
reference on its own set, and what one compared the other only reads.

Conflict *groups* are built from scratch over a set when read, so the
same walk checks them against the index it drove: a group stands at a
point exactly while some pair the index holds conflicts there, and holds
exactly the roots of those pairs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import find, given, settings
from hypothesis import strategies as st

from benchmarks.bench.ablations import naive_find_conflicts
from repro.core import RelevantTransaction, TransactionGraph
from repro.core.cache import ConflictGraph
from repro.core.conflicts import (
    ConflictAnalysis,
    IncrementalConflictIndex,
    build_conflict_groups,
    direct_conflict_points,
    find_conflicts,
)
from repro.core.extensions import UpdateExtension
from repro.errors import FlattenError
from repro.model import Delete, Insert, Modify, TransactionId, make_transaction

from tests.core.helpers import derive_extension
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
        graph.add((make_transaction(origin, order, updates), tuple(sorted(antecedents)), order))
        views.append(view)
        tids.append(tid)
    return graph, tids


def extension_of(graph: TransactionGraph, tid, applied):
    """A fresh extension object for ``tid``, or None if it cannot flatten."""
    root = RelevantTransaction(graph.transaction(tid), 1, graph.order_of(tid))
    try:
        return derive_extension(PROP_SCHEMA, graph, root, applied)
    except FlattenError:
        return None


def pairs_of(extensions):
    """Every unordered pair of roots, lower tid first (an analysis keys
    its points the same way)."""
    tids = sorted(extensions)
    return [(a, b) for i, a in enumerate(tids) for b in tids[i + 1 :]]


def edge_between(left: UpdateExtension, right: UpdateExtension):
    """The graph's edge between two extensions, read the way an index
    reads it — one probe, validated by identity — or None."""
    edge = (left._hood or {}).get(id(right))
    return edge[1] if edge is not None and edge[0] is right else None


def full_closures(graph: TransactionGraph, tids) -> Dict[TransactionId, UpdateExtension]:
    """Every transaction's extension over its full closure, where one
    flattens."""
    return {tid: ext for tid in tids if (ext := extension_of(graph, tid, set()))}


def reaches_residual(history) -> bool:
    """True if two full-closure extensions of ``history`` share a member
    with neither subsuming the other."""
    extensions = full_closures(*history)
    return any(
        not extensions[a].member_set.isdisjoint(extensions[b].member_set)
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


def assert_symmetric(analysis):
    """``DoGroup`` defers a survivor whose own adjacency names another,
    so the index writes every edge at both ends — and its edges are
    exactly the pairs it holds points for."""
    adjacency = analysis.adjacency
    edges = {(a, b) if a < b else (b, a) for a, near in adjacency.items() for b in near}
    assert all(near for near in adjacency.values())
    assert all(a in adjacency.get(b, ()) for a, near in adjacency.items() for b in near)
    assert edges == set(analysis.points)


def standing(index: IncrementalConflictIndex) -> ConflictAnalysis:
    """What ``index`` holds now, as the analysis its next update returns."""
    return ConflictAnalysis(index._adjacency, index._points)


def assert_matches_reference(graph, extensions, analysis, shared=None):
    """The index's analysis of ``extensions`` is the reference's, over
    the pairs hash-based candidate generation compares: extensions whose
    flattened footprints share a key.  (All-pairs comparison also sees a
    key two chains cancel above a shared antecedent — the gap pinned by
    ``tests/core/test_conflicts.py::TestFindConflicts::
    test_key_cancelled_over_a_shared_antecedent_is_no_candidate``.)"""
    assert_symmetric(analysis)
    reference = naive_find_conflicts(PROP_SCHEMA, graph, extensions)
    scratch = find_conflicts(PROP_SCHEMA, graph, extensions)
    # A key per root with an edge, and no other.
    assert set(analysis.adjacency) == {tid for pair in analysis.points for tid in pair}
    assert scratch.adjacency == analysis.adjacency
    assert set(scratch.points) == set(analysis.points)
    for pair in pairs_of(extensions):
        left, right = pair
        candidate = not extensions[left].key_index(PROP_SCHEMA).keys().isdisjoint(
            extensions[right].key_index(PROP_SCHEMA)
        )
        adjacent = right in analysis.adjacency.get(left, ())
        assert adjacent == (candidate and right in reference[left])
        assert adjacent == (left in analysis.adjacency.get(right, ())) == (pair in analysis.points)
        if adjacent:
            # A pair's points come in the order its later arrival met
            # them; as a set they are Definition 4's, either way round.
            expected = direct_conflict_points(
                PROP_SCHEMA, graph, extensions[left], extensions[right]
            )
            assert sorted(analysis.points[pair]) == sorted(expected)
            assert sorted(scratch.points[pair]) == sorted(expected)
            assert len(set(expected)) == len(expected) > 0
        if shared is not None:
            # Every candidate pair an index over the graph holds hangs
            # on its two objects, at both ends: the pair's points, or
            # () — also where one subsumes the other; elsewhere nothing.
            known = analysis.points.get(pair, ()) if candidate else None
            assert edge_between(extensions[left], extensions[right]) == known
            assert edge_between(extensions[right], extensions[left]) == known


def assert_groups_follow(graph, extensions, analysis):
    """The groups built over ``extensions`` against the points of
    ``analysis``, that of an index walked to them: one group per point
    some held pair conflicts at, made of exactly those pairs' roots."""
    groups = build_conflict_groups(PROP_SCHEMA, graph, extensions)
    standing: Dict[Tuple, set] = {}
    for pair, points in analysis.points.items():
        for point in points:
            standing.setdefault(point, set()).update(pair)
    assert set(groups) == set(standing)
    for point, group in groups.items():
        assert group.group_id == point
        assert sorted(group.transactions()) == sorted(standing[point])


@given(histories(), st.data())
@settings(max_examples=200, deadline=None)
def test_index_tracks_the_reference_over_a_sequence_of_sets(history, data):
    graph, tids = history
    index = IncrementalConflictIndex()
    shared = data.draw(st.sampled_from([None, ConflictGraph()]), label="shared")
    current: Dict[TransactionId, UpdateExtension] = {}
    #: Every object handed to the index stays alive: ``id`` tells them apart.
    every_object: List[UpdateExtension] = []
    for step in range(data.draw(st.integers(1, 6), label="steps")):
        actions = ["add", "drop", "replace", "recut", "shrink"] if step else ["add"]
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
        elif action == "recut":
            # The applied set grew under these roots: re-derived, and
            # what they do at a key may no longer be what it was.
            applied = set(data.draw(st.lists(st.sampled_from(tids), unique=True))) - chosen
            following = dict(current)
            for tid in chosen & set(current):
                following[tid] = extension_of(graph, tid, applied) or current[tid]
        else:
            # A fresh, equal object: same members, same operations.
            following = dict(current)
            for tid in chosen & set(current):
                replaced[tid] = current[tid]
                following[tid] = extension_of(
                    graph, tid, set(tids) - current[tid].member_set
                )
                assert following[tid] == replaced[tid]
                assert following[tid] is not replaced[tid]
        every_object.extend(following.values())
        analysis = index.update(PROP_SCHEMA, graph, following, shared)
        assert len(index) == len(following)
        assert_matches_reference(graph, following, analysis, shared)
        assert_groups_follow(graph, following, analysis)
        current = following


@given(histories())
@settings(max_examples=100, deadline=None)
def test_discard_agrees_with_a_fresh_index(history):
    graph, _tids = history
    extensions = full_closures(*history)
    index = IncrementalConflictIndex()
    assert_symmetric(index.update(PROP_SCHEMA, graph, extensions))
    gone = sorted(extensions)[::2]
    index.discard(PROP_SCHEMA, gone)
    assert_symmetric(standing(index))
    kept = {t: e for t, e in extensions.items() if t not in gone}
    # What is left is already the analysis of the kept set: updating to
    # it compares nothing ...
    before = index.stats.pair_misses
    analysis = index.update(PROP_SCHEMA, graph, kept)
    assert index.stats.pair_misses == before
    assert_matches_reference(graph, kept, analysis)
    # ... and is what a fresh index, the from-scratch case, finds.
    scratch = IncrementalConflictIndex()
    fresh = scratch.update(PROP_SCHEMA, graph, kept)
    assert (fresh.adjacency, fresh.points) == (analysis.adjacency, analysis.points)
    assert_groups_follow(graph, kept, analysis)


@given(histories(), st.data())
@settings(max_examples=200, deadline=None)
def test_two_indexes_over_one_graph_compare_each_pair_once(history, data):
    """Two participants' indexes over the one graph a store ships: the
    objects are the store's (one per root, whatever priority each
    participant gives it), the first index to hold a pair hangs the
    edge on them, and the second only reads it."""
    graph, tids = history
    shared = ConflictGraph()
    first, second = IncrementalConflictIndex(), IncrementalConflictIndex()
    shipped = full_closures(graph, tids)
    every_object = list(shipped.values())
    #: What the second index held after its last update, by root.
    previous: Dict[TransactionId, UpdateExtension] = {}
    for _step in range(data.draw(st.integers(1, 5), label="steps")):
        action = data.draw(st.sampled_from(["meet", "meet", "replace", "retire"]))
        chosen = data.draw(st.lists(st.sampled_from(tids), unique=True), label=action)
        if action == "replace":
            # The store re-derived these roots: fresh, equal objects,
            # which no standing edge may answer for.
            for tid in chosen:
                if tid in shipped:
                    shipped[tid] = extension_of(graph, tid, set())
                    every_object.append(shipped[tid])
            continue
        if action == "retire":
            # Every participant finally decided these roots: they leave
            # both indexes and the graph, and no neighbourhood anywhere
            # still references one of their objects.
            for index in (first, second):
                index.discard(PROP_SCHEMA, chosen)
                assert_symmetric(standing(index))
            shared.discard(chosen)
            previous = {t: e for t, e in previous.items() if t not in chosen}
            for extension in every_object:
                if extension.root in chosen:
                    assert extension._hood is None
                for other, _points in (extension._hood or {}).values():
                    assert other.root not in chosen
            assert len(shared) <= len(set(shipped) - set(chosen))
            continue
        held = {tid: shipped[tid] for tid in chosen if tid in shipped}
        analysis = first.update(PROP_SCHEMA, graph, held, shared)
        assert_matches_reference(graph, held, analysis, shared)
        # The second participant holds the same objects.  It examines
        # each candidate pair with a side it did not hold...
        examined = sum(
            edge_between(held[a], held[b]) is not None
            for a, b in pairs_of(held)
            if previous.get(a) is not held[a] or previous.get(b) is not held[b]
        )
        compared, answered = second.stats.pair_misses, second.stats.pair_hits
        analysis = second.update(PROP_SCHEMA, graph, held, shared)
        assert_matches_reference(graph, held, analysis, shared)
        # ...and the graph answers every one — subsumed pairs (``()``)
        # included — so it compares nothing.
        assert second.stats.pair_misses == compared
        assert second.stats.pair_hits == answered + examined
        previous = held


def test_an_edge_filed_under_a_reused_id_misses_by_identity():
    """``id()`` is only unique among live objects.  An edge pins both its
    ends, so a standing edge's key cannot be reused — but whatever is
    found under a key is still validated by identity, so an entry that
    answers for another object (here: planted) is never believed."""
    graph = TransactionGraph()
    left = make_transaction(1, 0, [Insert("R", (0, 1), 1)])
    right = make_transaction(2, 1, [Insert("R", (0, 2), 2)])
    graph.add((left, (), 0))
    graph.add((right, (), 1))
    extensions = full_closures(graph, [left.tid, right.tid])
    shared = ConflictGraph()
    index = IncrementalConflictIndex()
    analysis = index.update(PROP_SCHEMA, graph, extensions, shared)
    assert index.stats.pair_misses == 1 and analysis.points
    # A fresh, equal right-hand object, with a lie filed under its id.
    fresh = extension_of(graph, right.tid, set())
    held = extensions[left.tid]
    held._hood[id(fresh)] = (extensions[right.tid], ())
    other = IncrementalConflictIndex()
    # (The later arrival probes its own neighbourhood: ``held``'s.)
    again = other.update(
        PROP_SCHEMA, graph, {right.tid: fresh, left.tid: held}, shared
    )
    assert (other.stats.pair_hits, other.stats.pair_misses) == (0, 1)
    assert again.points == analysis.points
    assert edge_between(held, fresh) == analysis.points[(left.tid, right.tid)]
