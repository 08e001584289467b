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

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ReconciliationError
from repro.instance.base import Footprint, compile_footprint
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
    #: The root transaction's id (``transaction.tid``, read once).
    tid: TransactionId = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tid", self.transaction.tid)


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


@dataclass(slots=True)
class UpdateExtension:
    """The flattened update extension of one root (Section 4.2).

    * ``root`` — the root transaction id;
    * ``members`` — the transaction extension, in publish order;
    * ``operations`` — ``flatten`` of the members' concatenated updates;
    * ``touched`` — every qualified key the raw (unflattened) footprint
      read or wrote, used for dirty-value deferral;
    * ``priority`` — ``pri_i`` of the root.

    Everything else it answers — the member set, the key index, the
    instance footprint — is a function of those fields and is derived at
    most once, also on behalf of every :meth:`repriced` copy.  Slotted:
    a batch builds one per root.
    """

    root: TransactionId
    members: Tuple[TransactionId, ...]
    operations: Tuple[Update, ...]
    touched: frozenset
    priority: int
    _members_set: frozenset = field(init=False, repr=False, compare=False)
    #: What ``operations`` alone determine, as derived for ``_schema``; a
    #: re-priced copy reads and writes them on ``_origin``, its original.
    _origin: Optional["UpdateExtension"] = field(default=None, init=False, repr=False, compare=False)
    _schema: Optional[Schema] = field(default=None, init=False, repr=False, compare=False)
    _key_index: Optional[Dict] = field(default=None, init=False, repr=False, compare=False)
    _footprint: Optional[Footprint] = field(default=None, init=False, repr=False, compare=False)
    #: An origin's conflict edges, ``id(other origin) -> (other origin,
    #: points)``: kept by the :class:`~repro.core.cache.ConflictGraph` it
    #: is registered with (None: with none), which alone writes them.
    _hood: Optional[Dict[int, Tuple["UpdateExtension", Tuple]]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._members_set = frozenset(self.members)

    def member_set(self) -> frozenset:
        """The members as a set (for subsumption and sharing tests)."""
        return self._members_set

    def subsumes(self, other: "UpdateExtension") -> bool:
        """True if this extension's members are a superset of ``other``'s."""
        return self.member_set() >= other.member_set()

    def repriced(self, priority: int) -> "UpdateExtension":
        """A distinct extension object at ``priority`` (memos validated by
        object identity tell the two apart) sharing everything that is a
        function of the operations and not of the price: the member set,
        and the key index and footprint, whichever of the two derives first.
        """
        twin = copy.copy(self)  # no ``__post_init__``: the member set is shared
        twin.priority = priority
        twin._origin = self._origin or self
        twin._hood = None  # edges hang on the origin alone
        return twin

    def _derived(self, slot: str, schema: Schema, derive: Callable):
        """``derive(schema, operations)``, memoized in ``slot`` for one
        schema at a time.  An extension's operations never change after
        construction, so whichever participant derives first writes the
        value every other reads."""
        holder = self._origin or self
        if holder._schema is not schema:
            holder._key_index = holder._footprint = None
            holder._schema = schema
        value = getattr(holder, slot)
        if value is None:
            value = derive(schema, self.operations)
            setattr(holder, slot, value)
        return value

    def key_index(self, schema: Schema) -> Dict[QualifiedKey, List[Update]]:
        """The operations indexed by every qualified key they touch
        (:func:`index_by_key`, memoized: conflict detection consults it
        from both ``FindConflicts`` and ``UpdateSoftState``).  Callers
        must not mutate the returned mapping.
        """
        return self._derived("_key_index", schema, index_by_key)

    def footprint(self, schema: Schema) -> Footprint:
        """The operations' compiled instance footprint
        (:func:`~repro.instance.base.compile_footprint`, memoized): what
        ``CheckState`` and application probe the instance with.  A
        context-free extension is one object confederation-wide, so the
        first participant to check it compiles for all of them.
        """
        return self._derived("_footprint", schema, compile_footprint)


def index_by_key(
    schema: Schema, operations: Iterable[Update]
) -> Dict[QualifiedKey, List[Update]]:
    """``operations`` indexed by every qualified key they touch."""
    index: Dict[QualifiedKey, List[Update]] = {}
    for update in operations:
        for key in update.keys_touched(schema):
            index.setdefault(key, []).append(update)
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
      The adjacency a store assembles is a view of that participant's
      store-side conflict index, valid until the participant's
      ``complete_reconciliation``.

    In *client-centric* mode ``extensions`` may still be populated with
    the store's **context-free** extensions (flattened against an empty
    applied set, computed once per published transaction); the engine
    adopts one only when its member closure is disjoint from the local
    applied set, which is exactly when it equals the local computation.
    ``pair_cache`` is the store's :class:`repro.core.cache.ConflictGraph`
    — one per confederation, on every batch, client- or store-computed:
    conflict points are a pure function of two extension objects, so an
    edge hangs on the two objects, written by the first conflict index
    to hold both; it also keeps the one derivation per (root, closure).
    """

    recno: int
    roots: List[RelevantTransaction] = field(default_factory=list)
    graph: TransactionGraph = field(default_factory=TransactionGraph)
    extensions: Optional[Dict[TransactionId, "UpdateExtension"]] = None
    conflicts: Optional[Dict[TransactionId, set]] = None
    pair_cache: Optional[object] = None

    @property
    def network_centric(self) -> bool:
        """True when the store precomputed extensions and conflicts."""
        return self.extensions is not None and self.conflicts is not None
