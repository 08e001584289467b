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
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    """What ``FindConflicts`` learned about a set of extensions.

    * ``adjacency`` — the symmetric direct-conflict map the greedy
      ``DoGroup`` phase consumes;
    * ``points`` — per conflicting (unordered, lower-tid-first) pair, the
      ``(type, key)`` points at which the pair conflicts.  Conflict-group
      construction consumes these directly instead of re-running
      :func:`direct_conflict_points` for every adjacent pair.
    """

    adjacency: Dict[TransactionId, Set[TransactionId]]
    points: Dict[PairKey, Tuple[Tuple[str, QualifiedKey], ...]]


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

    An extension set evolves slowly: previously deferred roots keep
    their (cached) extension objects, decided roots leave, and new roots
    arrive.  Conflicts are a pairwise property of two extensions, so the
    analysis of the new set equals the previous analysis minus pairs
    involving departed/changed extensions plus fresh comparisons for
    pairs involving added/changed ones; :meth:`update` applies exactly
    that delta — an unchanged pair is never looked at again.

    Extensions are tracked by object identity (the extension cache
    returns the same object while an entry stays valid), so a recomputed
    extension is automatically treated as removed + added.

    ``enabled=False`` forgets everything before each update (the
    uncached baseline: every call is the from-scratch case).
    ``stats.pair_misses`` counts pairwise comparisons actually
    performed, ``stats.pair_hits`` the candidate pairs the ``shared``
    graph answered instead.
    """

    def __init__(self, enabled: bool = True, stats=None) -> None:
        self.enabled = enabled
        self.stats = stats if stats is not None else CacheStats()
        self._extensions: Dict[TransactionId, UpdateExtension] = {}
        self._by_key: Dict[QualifiedKey, Dict[TransactionId, None]] = {}
        self._adjacency: Dict[TransactionId, Set[TransactionId]] = {}
        self._points: Dict[PairKey, Tuple[Tuple[str, QualifiedKey], ...]] = {}

    def __len__(self) -> int:
        return len(self._extensions)

    def update(
        self,
        schema: Schema,
        graph: TransactionGraph,
        extensions: Dict[TransactionId, UpdateExtension],
        shared: Optional[ConflictGraph] = None,
    ) -> ConflictAnalysis:
        """Bring the index to ``extensions`` and return its analysis: a
        *live view* of the index (no per-epoch copying), valid until the
        next :meth:`update`, :meth:`discard` or :meth:`clear`.

        ``shared`` is the batch's conflict graph (see
        :attr:`ReconciliationBatch.pair_cache`): an edge some index
        already hung on two extension objects is read instead of
        recomputed, and what this index computes is hung there.
        """
        if not self.enabled:
            self.clear()
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
        return ConflictAnalysis(self._adjacency, self._points)

    def _drop(self, schema: Schema, tid: TransactionId) -> None:
        extension = self._extensions.pop(tid)
        for key in extension.key_index(schema):  # _add filed it under each
            bucket = self._by_key[key]
            del bucket[tid]
            if not bucket:
                del self._by_key[key]
        for other in self._adjacency.pop(tid, ()):  # symmetric edges
            self._adjacency[other].discard(tid)
            del self._points[(tid, other) if tid < other else (other, tid)]

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
                self._points[(tid, other) if tid < other else (other, tid)] = points
                neighbours.add(other)
                self._adjacency[other].add(tid)
        for key in keys:
            self._by_key.setdefault(key, {})[tid] = None

    def discard(self, schema: Schema, roots: Iterable[TransactionId]) -> None:
        """Drop ``roots`` (retirement: they are finally decided)."""
        for tid in roots:
            if tid in self._extensions:
                self._drop(schema, tid)

    def clear(self) -> None:
        """Drop all state (what ``enabled=False`` does before every update)."""
        self._extensions.clear()
        self._by_key.clear()
        self._adjacency.clear()
        self._points.clear()


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
) -> Dict[Tuple[str, QualifiedKey], ConflictGroup]:
    """The grouping step of ``UpdateSoftState`` (Figure 5, lines 7-16).

    Finds conflicts among the deferred extensions, groups them by
    ``(type, key)``, and combines compatible transactions (same
    modification at the key — see :func:`_option_signature`) into shared
    options.  The conflict *points* recorded by
    :func:`find_conflicts` are consumed directly — the seed implementation
    re-ran :func:`direct_conflict_points` for every adjacent pair here.
    ``analysis`` lets a caller that already analysed (a superset of) the
    deferred extensions this epoch pass the result in.
    """
    if analysis is None:
        analysis = find_conflicts(schema, graph, deferred)
    members: Dict[Tuple[str, QualifiedKey], Set[TransactionId]] = {}
    for (tid, other), points in analysis.points.items():
        for point in points:
            members.setdefault(point, set()).update((tid, other))

    groups: Dict[Tuple[str, QualifiedKey], ConflictGroup] = {}
    for (kind, key), tids in members.items():
        by_signature: Dict[Tuple, List[TransactionId]] = {}
        for tid in sorted(tids):
            signature = _option_signature(schema, deferred[tid], key)
            by_signature.setdefault(signature, []).append(tid)
        options = [
            Option(
                transactions=tuple(tids_for_signature),
                effect=signature[1] if signature[0] == "write" else None,
            )
            for signature, tids_for_signature in sorted(
                by_signature.items(), key=lambda item: repr(item[0])
            )
        ]
        groups[(kind, key)] = ConflictGroup(kind=kind, key=key, options=options)
    return groups
