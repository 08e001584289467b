"""Direct-conflict detection between update extensions; conflict groups.

Definition 4: two transactions *directly conflict* iff, after removing the
transactions their extensions share, some update in one flattened footprint
conflicts with some update in the other.

``FindConflicts`` in the paper uses hash-based detection to stay within
O(t^2 + t*u*a).  We do the same: extensions are indexed by the qualified
keys they write or consume, so only extensions sharing a key are compared,
and the pairwise comparison re-flattens only when the extensions actually
share member transactions.

This module also defines :class:`ConflictGroup` and :class:`Option` — the
structures ``UpdateSoftState`` records for deferred transactions so a user
can later resolve each conflict by picking at most one option per group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import FlattenError
from repro.model.flatten import flatten
from repro.model.schema import Schema
from repro.model.transactions import TransactionId
from repro.model.tuples import QualifiedKey
from repro.model.updates import Delete, Insert, Modify, Update, updates_conflict

from repro.core.cache import CacheStats, ConflictGraph
from repro.core.extensions import (
    TransactionGraph,
    UpdateExtension,
    index_by_key,
    update_footprint,
)


#: An unordered extension pair, stored with the lower tid first.
PairKey = Tuple[TransactionId, TransactionId]
#: Where two extensions conflict — and what a conflict group is named by.
Point = Tuple[str, QualifiedKey]


def classify_conflict(left: Update, right: Update) -> str:
    """A human-readable conflict *type*, used to group conflicts.

    The paper groups conflicts "with the same type that involve the same
    key value" into conflict groups.
    """
    return "/".join(sorted((_KIND[type(left)], _KIND[type(right)])))


_KIND = {Insert: "insert", Delete: "delete", Modify: "replace"}


def _conflict_points(
    schema: Schema,
    left_index: Dict[QualifiedKey, List[Update]],
    right_index: Dict[QualifiedKey, List[Update]],
) -> List[Tuple[str, QualifiedKey]]:
    """All ``(type, key)`` pairs at which two footprints, each given as
    its :func:`~repro.core.extensions.index_by_key`, conflict.

    Updates can only conflict when they touch a shared key, so candidates
    are drawn from the key-index intersection (the paper's "hash
    table-based conflict detection").
    """
    # Probe the smaller index into the larger one instead of materialising
    # the key intersection; most footprints share at most one key.
    if len(left_index) > len(right_index):
        left_index, right_index = right_index, left_index
    # Dict-as-set: O(1) dedup while preserving first-seen order.
    points: Dict[Tuple[str, QualifiedKey], None] = {}
    for key, left_at_key in left_index.items():
        right_at_key = right_index.get(key)
        if right_at_key is None:
            continue
        for left in left_at_key:
            for right in right_at_key:
                if updates_conflict(schema, left, right):
                    points[(classify_conflict(left, right), key)] = None
    return list(points)


def direct_conflict_points(
    schema: Schema,
    graph: TransactionGraph,
    left: UpdateExtension,
    right: UpdateExtension,
) -> List[Tuple[str, QualifiedKey]]:
    """Definition 4, reporting *where* the extensions conflict.

    Shared member transactions are excluded from both sides before
    comparing; when the extensions share nothing, their memoized key
    indexes are compared directly.

    A shared member can sit *inside* a chain (it produced the row a later
    member consumes), so a residual need not flatten on its own.  That
    side is then compared update by update: Definition 4 asks whether
    "some update" of one footprint conflicts with some update of the
    other, and every row a net update would read or write is read or
    written, under the same key, by a raw update of its chain.  The
    fallback therefore errs toward extra conflict points (more deferral),
    and is reached only where the flattened comparison had no answer.
    """
    left_set = left.member_set()
    right_set = right.member_set()
    if left_set.isdisjoint(right_set):  # common case: no allocation
        return _conflict_points(
            schema, left.key_index(schema), right.key_index(schema)
        )
    shared = left_set & right_set
    left_members = [tid for tid in left.members if tid not in shared]
    right_members = [tid for tid in right.members if tid not in shared]
    if not left_members or not right_members:
        return []
    return _conflict_points(
        schema,
        index_by_key(schema, _residual_ops(schema, graph, left_members)),
        index_by_key(schema, _residual_ops(schema, graph, right_members)),
    )


def _residual_ops(
    schema: Schema, graph: TransactionGraph, members: Sequence[TransactionId]
) -> Sequence[Update]:
    """One side's non-shared footprint: flattened, or raw if it cannot be."""
    footprint = update_footprint(graph, members)
    try:
        return flatten(schema, footprint)
    except FlattenError:
        return footprint


def directly_conflict(
    schema: Schema,
    graph: TransactionGraph,
    left: UpdateExtension,
    right: UpdateExtension,
) -> bool:
    """True if the two extensions directly conflict (Definition 4)."""
    return bool(direct_conflict_points(schema, graph, left, right))


@dataclass
class ConflictAnalysis:
    """What ``FindConflicts`` learned about a set of extensions: a live
    view of the index that produced it, valid until that index's next
    :meth:`~IncrementalConflictIndex.update` or ``discard``.

    * ``adjacency`` — the symmetric direct-conflict map the greedy
      ``DoGroup`` phase consumes;
    * ``points`` — per conflicting (unordered, lower-tid-first) pair, the
      ``(type, key)`` points at which the pair conflicts;
    * ``groups`` — that index's :meth:`~IncrementalConflictIndex.groups`:
      the conflict groups of what it holds *when called*; one no pair
      came to or left since the previous call is the same object.
    """

    adjacency: Dict[TransactionId, Set[TransactionId]]
    points: Dict[PairKey, Tuple[Point, ...]]
    groups: Callable[[Schema], Dict[Point, "ConflictGroup"]] = field(repr=False)


def find_conflicts(
    schema: Schema,
    graph: TransactionGraph,
    extensions: Dict[TransactionId, UpdateExtension],
) -> ConflictAnalysis:
    """The paper's ``FindConflicts`` from scratch: a fresh
    :class:`IncrementalConflictIndex` brought to ``extensions`` — the
    incremental procedure's case in which every extension is new."""
    return IncrementalConflictIndex().update(schema, graph, extensions)


class IncrementalConflictIndex:
    """``FindConflicts`` (Figure 5) maintained incrementally — the one
    place extensions are bucketed by key, subsumed pairs are filtered
    and a pair is compared.

    Pairs where one extension subsumes the other are not compared
    (FindConflicts line 4), and a key → roots map over the flattened
    operations draws candidates only from extensions that share a key,
    which keeps the common case near-linear.

    An extension set evolves slowly: deferred roots keep their (cached)
    extension objects, decided roots leave, new roots arrive.  Conflicts
    are a pairwise property of two extensions, so :meth:`update` applies
    exactly that delta — pairs of a departed extension go, pairs of an
    arrived one are compared, an unchanged pair is never looked at
    again.  Extensions are tracked by object identity (the extension
    cache returns the same object while an entry stays valid), so a
    recomputed extension is removed + added.

    Conflict-group membership — per point, the pairs conflicting there —
    moves by the same delta from the first time :meth:`groups` is asked
    (a store's assembly index never is, and keeps no such books): a
    point whose last pair goes, goes; a group no pair came to or left is
    not rebuilt.

    ``stats.pair_misses`` counts pairwise comparisons actually
    performed, ``stats.pair_hits`` the candidate pairs the ``shared``
    graph answered instead.
    """

    def __init__(self, stats=None) -> None:
        self.stats = stats if stats is not None else CacheStats()
        self._extensions: Dict[TransactionId, UpdateExtension] = {}
        self._by_key: Dict[QualifiedKey, Dict[TransactionId, None]] = {}
        self._adjacency: Dict[TransactionId, Set[TransactionId]] = {}
        self._points: Dict[PairKey, Tuple[Point, ...]] = {}
        # The group view: per point, the pairs conflicting there (None
        # until ``groups`` is first asked); the points a pair came to or
        # left since it last was; the groups as then built.
        self._standing: Optional[Dict[Point, Dict[PairKey, None]]] = None
        self._moved: Dict[Point, None] = {}
        self._groups: Dict[Point, ConflictGroup] = {}

    def __len__(self) -> int:
        return len(self._extensions)

    def update(
        self,
        schema: Schema,
        graph: TransactionGraph,
        extensions: Dict[TransactionId, UpdateExtension],
        shared: Optional[ConflictGraph] = None,
    ) -> ConflictAnalysis:
        """Bring the index to ``extensions`` and return its analysis, a
        live view of it (no per-epoch copying: :class:`ConflictAnalysis`).

        ``shared`` is the batch's conflict graph (see
        :attr:`ReconciliationBatch.pair_cache`): an edge some index
        already hung on two extension objects is read instead of
        recomputed, and what this index computes is hung there.
        """
        removed = [
            tid
            for tid, extension in self._extensions.items()
            if extensions.get(tid) is not extension
        ]
        for tid in removed:
            self._drop(schema, tid)
        for tid, extension in extensions.items():
            if self._extensions.get(tid) is not extension:  # new, or replaced
                self._add(schema, graph, tid, extension, shared)
        return ConflictAnalysis(self._adjacency, self._points, self.groups)

    def _drop(self, schema: Schema, tid: TransactionId) -> None:
        extension = self._extensions.pop(tid)
        for key in extension.key_index(schema):  # _add filed it under each
            bucket = self._by_key[key]
            del bucket[tid]
            if not bucket:
                del self._by_key[key]
        for other in self._adjacency.pop(tid, ()):  # symmetric edges
            self._adjacency[other].discard(tid)
            pair = (tid, other) if tid < other else (other, tid)
            if self._standing is not None:
                for point in self._points[pair]:  # ``groups`` sweeps an emptied one
                    self._moved[point] = None
                    del self._standing[point][pair]
            del self._points[pair]

    def _add(
        self,
        schema: Schema,
        graph: TransactionGraph,
        tid: TransactionId,
        extension: UpdateExtension,
        shared: Optional[ConflictGraph],
    ) -> None:
        self._extensions[tid] = extension
        neighbours = self._adjacency[tid] = set()
        # Partners drawn from the key buckets — the paper's hash-based
        # candidate generation, restricted to the one new extension
        # (dict-as-set keeps the order deterministic).
        partners: Dict[TransactionId, None] = {}
        keys = extension.key_index(schema)
        for key in keys:
            bucket = self._by_key.get(key)
            if bucket is not None:
                partners.update(bucket)
        members = extension.member_set()
        # Edges hang on the origins (re-priced twins share them), so a
        # partner visit is one probe of this origin's neighbourhood.
        origin = extension._origin or extension
        hood = (origin._hood if shared is not None else None) or {}
        for other in partners:
            other_extension = self._extensions[other]
            other_origin = other_extension._origin or other_extension
            edge = hood.get(id(other_origin))
            if edge is not None and edge[0] is other_origin:
                points = edge[1]
                self.stats.pair_hits += 1
            else:
                other_members = other_extension.member_set()
                if members >= other_members or other_members >= members:
                    points = ()  # FindConflicts line 4: nothing to compare
                else:
                    self.stats.pair_misses += 1
                    points = tuple(
                        direct_conflict_points(
                            schema, graph, extension, other_extension
                        )
                    )
                if shared is not None:
                    shared.link(origin, other_origin, points)
            if points:
                pair = (tid, other) if tid < other else (other, tid)
                self._points[pair] = points
                neighbours.add(other)
                self._adjacency[other].add(tid)
                if self._standing is not None:
                    self._stand(pair, points)
        for key in keys:
            self._by_key.setdefault(key, {})[tid] = None

    def _stand(self, pair: PairKey, points: Tuple[Point, ...]) -> None:
        """A pair came: it stands at each of its points."""
        for point in points:
            self._moved[point] = None
            self._standing.setdefault(point, {})[pair] = None

    def groups(self, schema: Schema) -> Dict[Point, "ConflictGroup"]:
        """The conflict groups of the extensions now held (Figure 5,
        lines 7-16), by ``(type, key)``: roots standing at one point,
        those making the same modification there (see
        :func:`_option_signature`) sharing an option.  Only a group a
        pair moved at since the last call is built; to an index never
        asked before, every standing pair is one that just came."""
        if self._standing is None:
            self._standing = {}
            for pair, points in self._points.items():
                self._stand(pair, points)
        for point in self._moved:
            pairs = self._standing[point]
            if not pairs:  # the last pair went: so does the point
                del self._standing[point]
                self._groups.pop(point, None)
                continue
            roots = {tid for pair in pairs for tid in pair}
            by_signature: Dict[Tuple, List[TransactionId]] = {}
            for tid in sorted(roots):
                signature = _option_signature(schema, self._extensions[tid], point[1])
                by_signature.setdefault(signature, []).append(tid)
            self._groups[point] = ConflictGroup(
                *point,
                [
                    Option(tuple(tids), signature[1] if signature[0] == "write" else None)
                    for signature, tids in sorted(
                        by_signature.items(), key=lambda item: repr(item[0])
                    )
                ],
            )
        self._moved.clear()
        return dict(self._groups)

    def discard(self, schema: Schema, roots: Iterable[TransactionId]) -> None:
        """Drop ``roots`` (retirement: they are finally decided)."""
        for tid in roots:
            if tid in self._extensions:
                self._drop(schema, tid)


# ----------------------------------------------------------------------
# Conflict groups and options (deferred-transaction bookkeeping)


@dataclass
class Option:
    """Transactions within a conflict group that make the same modification.

    Accepting an option means accepting all of its transactions (they are
    mutually compatible at the conflicting key); the other options' sole
    transactions are rejected.  ``effect`` describes the modification: the
    row written, or None for a deletion.
    """

    transactions: Tuple[TransactionId, ...]
    effect: Optional[Tuple]

    def describe(self) -> str:
        """Human-readable description for resolution UIs."""
        txns = ", ".join(str(t) for t in self.transactions)
        if self.effect is None:
            return f"delete the row [{txns}]"
        return f"set row to {self.effect!r} [{txns}]"


@dataclass
class ConflictGroup:
    """Conflicts of one type at one key value (Section 5, "conflict groups").

    At most one option may be accepted when the group is resolved.
    """

    kind: str
    key: QualifiedKey
    options: List[Option] = field(default_factory=list)

    @property
    def group_id(self) -> Tuple[str, QualifiedKey]:
        """The ``(type, value)`` identifier the paper indexes groups by."""
        return (self.kind, self.key)

    def transactions(self) -> List[TransactionId]:
        """All transactions involved in this group."""
        tids: List[TransactionId] = []
        for option in self.options:
            tids.extend(option.transactions)
        return tids

    def describe(self) -> str:
        """Human-readable description for resolution UIs."""
        lines = [f"{self.kind} conflict at {self.key[0]}{self.key[1]!r}:"]
        for index, option in enumerate(self.options):
            lines.append(f"  [{index}] {option.describe()}")
        return "\n".join(lines)


def _option_signature(
    schema: Schema, extension: UpdateExtension, key: QualifiedKey
) -> Tuple:
    """The partition signature for option sharing at ``key``.

    Two deferred transactions may share an option only when they "make
    the same modification to the key value".  The written row alone is
    not enough: every absence would collapse to ``None``, merging e.g.
    deletions of *different row versions* of the key — which are
    mutually conflicting (only one antecedent exists, so at most one
    can be accepted) — into a single option, leaving a "conflict group"
    with no alternatives to choose between.  The signature therefore
    records the written row, or exactly which row the extension removes
    from the key (and, for a replacement moving the row away, where it
    goes).
    """
    at_key = extension.key_index(schema).get(key, ())
    for update in at_key:
        written = update.written_row()
        if written is not None and update.keys_touched(schema)[-1] == key:
            return ("write", written)
    if not at_key:
        return ("none",)
    # Nothing writes here, so what touches the key consumes its row.
    read, written = at_key[0].read_row(), at_key[0].written_row()
    return ("delete", read) if written is None else ("replace", read, written)


def build_conflict_groups(
    schema: Schema,
    graph: TransactionGraph,
    deferred: Dict[TransactionId, UpdateExtension],
    analysis: Optional[ConflictAnalysis] = None,
) -> Dict[Point, ConflictGroup]:
    """The grouping step of ``UpdateSoftState`` (Figure 5, lines 7-16):
    the groups among ``deferred``, read off ``analysis`` — that of an
    index holding exactly those extensions — or, without one, off a
    fresh index: the same code, every group new.
    """
    return (analysis or find_conflicts(schema, graph, deferred)).groups(schema)
