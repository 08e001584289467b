"""Antecedents, transaction extensions, and update extensions.

Definition 3 of the paper: participant ``i``'s *transaction extension* of
``X``, reconciled in epoch ``e``, is the transitive closure of ``X``'s
antecedents, skipping transactions ``i`` has already accepted.  The
*update extension* is the flattened update footprint of that closure.

Antecedent edges themselves (``ante(X)``: which earlier transaction
inserted or modified-to each value that ``X`` deletes or modifies) are
discovered by the update store at publish time, because only the store sees
the full published history; see :class:`repro.store.base.UpdateStore`.
This module consumes those edges through :class:`TransactionGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ReconciliationError
from repro.model.flatten import flatten_once
from repro.model.schema import Schema
from repro.model.transactions import Transaction, TransactionId
from repro.model.tuples import QualifiedKey
from repro.model.updates import Update


@dataclass(frozen=True)
class RelevantTransaction:
    """A root transaction delivered to a reconciling participant.

    ``priority`` is ``pri_i`` of the root; ``order`` is the transaction's
    global publish index, which totally orders the published history.
    """

    transaction: Transaction
    priority: int
    order: int

    @property
    def tid(self) -> TransactionId:
        """The root transaction's id."""
        return self.transaction.tid


def antecedent_closure(
    antecedents_of: Callable[[TransactionId], Iterable[TransactionId]],
    roots: Iterable[TransactionId],
    stop: Set[TransactionId],
) -> List[TransactionId]:
    """All transactions reachable from ``roots`` via antecedent edges —
    the one closure walk, over a graph or over a store's log.

    Walks ``antecedents_of(tid)`` transitively, not descending into
    transactions in ``stop`` (already applied by the requesting
    participant — the store prunes them to save bandwidth, exactly as the
    paper's transaction controllers answer "not relevant").  Roots are
    always included, even one in ``stop``: re-reconciling an applied root
    is a caller bug that surfaces elsewhere.
    """
    closure: List[TransactionId] = []
    seen: Set[TransactionId] = set()
    stack = list(roots)
    while stack:
        tid = stack.pop()
        if tid in seen:
            continue
        seen.add(tid)
        closure.append(tid)
        for ante in antecedents_of(tid):
            if ante not in seen and ante not in stop:
                stack.append(ante)
    return closure


class TransactionGraph:
    """Transactions with their antecedent edges and publish order.

    A batch carries one (its roots plus the closure needed to build their
    extensions), and a reconciling participant keeps one as the paper's
    soft-state cache of its *open frontier*: what it has fetched and not
    applied — undecided, deferred and rejected closures — so deferred
    transactions can be reconsidered without another round trip.  An
    entry leaves when its transaction is applied
    (:meth:`~repro.core.state.ParticipantState.record_applied`): closure
    walks stop at the applied set, so nothing reads it again.
    """

    def __init__(self) -> None:
        self._nodes: Dict[
            TransactionId, Tuple[Transaction, Tuple[TransactionId, ...], int]
        ] = {}

    def add(
        self,
        transaction: Transaction,
        antecedents: Iterable[TransactionId],
        order: int,
    ) -> None:
        """Register a transaction with its direct antecedents and order."""
        self._nodes[transaction.tid] = (transaction, tuple(antecedents), order)

    def merge(self, other: "TransactionGraph") -> None:
        """Absorb every entry of ``other`` (idempotent on duplicates)."""
        self._nodes.update(other._nodes)

    def discard(self, tid: TransactionId) -> None:
        """Forget ``tid``'s entry, if there is one."""
        self._nodes.pop(tid, None)

    def __contains__(self, tid: TransactionId) -> bool:
        return tid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def transaction(self, tid: TransactionId) -> Transaction:
        """Return the transaction for ``tid``.

        Raises :class:`ReconciliationError` if it is not registered.
        """
        try:
            return self._nodes[tid][0]
        except KeyError:
            raise ReconciliationError(
                f"transaction {tid} is referenced but was never fetched"
            ) from None

    def antecedents_of(self, tid: TransactionId) -> Tuple[TransactionId, ...]:
        """Direct antecedents of ``tid`` (empty if none registered)."""
        entry = self._nodes.get(tid)
        return entry[1] if entry is not None else ()

    def order_of(self, tid: TransactionId) -> int:
        """Global publish index of ``tid``."""
        try:
            return self._nodes[tid][2]
        except KeyError:
            raise ReconciliationError(
                f"transaction {tid} has no recorded publish order"
            ) from None

    def extension(
        self, tid: TransactionId, applied: Set[TransactionId]
    ) -> List[TransactionId]:
        """The transaction extension ``te_i|e(tid)``: the
        :func:`antecedent_closure` of ``tid`` that stops at ``applied``
        (already part of the participant's instance), in publish order.
        """
        closure = antecedent_closure(self.antecedents_of, [tid], applied)
        return sorted(closure, key=self.order_of)


@dataclass
class UpdateExtension:
    """The flattened update extension of one root (Section 4.2).

    * ``root`` — the root transaction id;
    * ``members`` — the transaction extension, in publish order;
    * ``operations`` — ``flatten`` of the members' concatenated updates;
    * ``touched`` — every qualified key the raw (unflattened) footprint
      read or wrote, used for dirty-value deferral;
    * ``priority`` — ``pri_i`` of the root.
    """

    root: TransactionId
    members: Tuple[TransactionId, ...]
    operations: Tuple[Update, ...]
    touched: frozenset
    priority: int

    def __post_init__(self) -> None:
        self._members_set = frozenset(self.members)
        self._key_index: Optional[Tuple[Schema, Dict]] = None

    def member_set(self) -> frozenset:
        """The members as a set (for subsumption and sharing tests)."""
        return self._members_set

    def subsumes(self, other: "UpdateExtension") -> bool:
        """True if this extension's members are a superset of ``other``'s."""
        return self.member_set() >= other.member_set()

    def key_index(self, schema: Schema) -> Dict[QualifiedKey, List[Update]]:
        """The operations indexed by every qualified key they touch.

        Memoized on the extension: conflict detection consults the index
        from both ``FindConflicts`` and ``UpdateSoftState``, and an
        extension's operations never change after construction.  Callers
        must not mutate the returned mapping.
        """
        if self._key_index is not None and self._key_index[0] is schema:
            return self._key_index[1]
        index: Dict[QualifiedKey, List[Update]] = {}
        for update in self.operations:
            for key in update.keys_touched(schema):
                index.setdefault(key, []).append(update)
        self._key_index = (schema, index)
        return index


def update_footprint(
    graph: TransactionGraph, members: Sequence[TransactionId]
) -> List[Update]:
    """The paper's ``uf(L)``: concatenated updates of ordered transactions."""
    footprint: List[Update] = []
    for tid in members:
        footprint.extend(graph.transaction(tid).updates)
    return footprint


def flattened_extension(
    schema: Schema, root: RelevantTransaction, members: Sequence[Transaction]
) -> UpdateExtension:
    """``root``'s update extension over ``members``, its transaction
    extension in publish order — however the caller walked the closure.

    The footprint is traced exactly once: :func:`flatten_once` yields the
    net operations and the touched-key set from a single chain pass.
    Raises :class:`~repro.errors.FlattenError` if the chain is internally
    inconsistent.
    """
    flat = flatten_once(
        schema, [update for member in members for update in member.updates]
    )
    return UpdateExtension(
        root=root.tid,
        members=tuple(member.tid for member in members),
        operations=flat.operations,
        touched=flat.keys_touched,
        priority=root.priority,
    )


def compute_update_extension(
    schema: Schema,
    graph: TransactionGraph,
    root: RelevantTransaction,
    applied: Set[TransactionId],
) -> UpdateExtension:
    """Build the flattened update extension of ``root`` for a participant
    (:func:`flattened_extension` of the closure ``graph`` holds).

    Raises :class:`~repro.errors.FlattenError` (propagated) if the chain is
    internally inconsistent — the engine treats that as a rejection.
    """
    members = graph.extension(root.tid, applied)
    return flattened_extension(
        schema, root, [graph.transaction(tid) for tid in members]
    )


@dataclass
class ReconciliationBatch:
    """Everything the update store hands a reconciling participant.

    * ``recno`` — the reconciliation epoch this batch covers up to;
    * ``roots`` — newly relevant fully-trusted transactions with their
      priorities, in publish order;
    * ``graph`` — those transactions plus every antecedent needed to build
      their extensions;
    * ``extensions`` / ``conflicts`` — optionally precomputed by the store
      (*network-centric* reconciliation, Figure 3): flattened update
      extensions per root and the direct-conflict adjacency among them.
      When present they must cover every root, including the
      participant's previously deferred transactions (the store tracks
      those).  The engine then skips its two most expensive phases.

    In *client-centric* mode ``extensions`` may still be populated with
    the store's **context-free** extensions (flattened against an empty
    applied set, computed once per published transaction); the engine
    adopts one only when its member closure is disjoint from the local
    applied set, which is exactly when it equals the local computation.
    ``pair_cache`` (a :class:`repro.core.cache.ConflictCache`, typed
    loosely to avoid an import cycle) is a store-shared memo of
    direct-conflict points between those shipped extension objects —
    pairwise conflicts are a pure function of the two extensions, so one
    participant's comparison serves the whole confederation.
    """

    recno: int
    roots: List[RelevantTransaction] = field(default_factory=list)
    graph: TransactionGraph = field(default_factory=TransactionGraph)
    extensions: Optional[Dict[TransactionId, "UpdateExtension"]] = None
    conflicts: Optional[Dict[TransactionId, set]] = None
    pair_cache: Optional[object] = None
    #: The serving store's declared capability flags (a
    #: :class:`repro.store.registry.StoreCapabilities`, typed loosely to
    #: avoid an import cycle).  The engine consults these — not the
    #: store's type — before adopting shipped extensions or the shared
    #: pair memo; ``None`` (hand-built batches in tests) is permissive.
    capabilities: Optional[object] = None

    @property
    def network_centric(self) -> bool:
        """True when the store precomputed extensions and conflicts."""
        return self.extensions is not None and self.conflicts is not None
