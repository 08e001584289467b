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
    the one closure walk, over a graph, a store's log or a replayed
    history.

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


#: One logged transaction as a store's log hands it out and a graph
#: keeps it: ``(transaction, direct antecedents, publish order)``.
LogEntry = Tuple[Transaction, Tuple[TransactionId, ...], int]


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
        self._nodes: Dict[TransactionId, LogEntry] = {}

    def add(self, entry: LogEntry) -> None:
        """Register ``(transaction, direct antecedents, publish order)`` —
        a store's log entry, kept as the very tuple it is."""
        self._nodes[entry[0].tid] = entry

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
        """The transaction extension ``te_i|e(tid)``: the antecedent
        closure of ``tid`` that stops at ``applied`` (already part of the
        participant's instance), in publish order.

        A root with no antecedent is its own closure: nothing is walked
        or sorted.  Raises :class:`ReconciliationError` for a member
        never fetched.
        """
        nodes = self._nodes
        if tid in nodes and not nodes[tid][1]:
            return [tid]
        closure = antecedent_closure(self.antecedents_of, [tid], applied)
        return sorted(closure, key=self.order_of)


@dataclass(slots=True)
class UpdateExtension:
    """The flattened update extension of one root (Section 4.2).

    * ``root`` — the root transaction id;
    * ``members`` — the transaction extension, in publish order;
    * ``operations`` — ``flatten`` of the members' concatenated updates;
    * ``touched`` — every qualified key the raw (unflattened) footprint
      read or wrote, used for dirty-value deferral.

    No trust priority: ``pri_i`` is the participant's, on the
    :class:`RelevantTransaction` that ``DoGroup`` reads, so one object
    serves every participant whose walk ends on the same closure.
    Everything else it answers — the member set, the key index, the
    instance footprint — is a function of those fields and is derived
    at most once.  Slotted: a batch builds one per root.
    """

    root: TransactionId
    members: Tuple[TransactionId, ...]
    operations: Tuple[Update, ...]
    touched: frozenset
    #: The members as a set (for subsumption and sharing tests): a
    #: plain field, read where it is tested.
    member_set: frozenset = field(init=False, repr=False, compare=False)
    #: What ``operations`` alone determine, as derived for ``_schema``.
    _schema: Optional[Schema] = field(default=None, init=False, repr=False, compare=False)
    _key_index: Optional[Dict] = field(default=None, init=False, repr=False, compare=False)
    _footprint: Optional[Footprint] = field(default=None, init=False, repr=False, compare=False)
    #: Its conflict edges, ``id(other extension) -> (other extension,
    #: points)``: kept by the :class:`~repro.core.cache.ConflictGraph` it
    #: is registered with (None: with none), which alone writes them.
    _hood: Optional[Dict[int, Tuple["UpdateExtension", Tuple]]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.member_set = frozenset(self.members)

    def subsumes(self, other: "UpdateExtension") -> bool:
        """True if this extension's members are a superset of ``other``'s."""
        return self.member_set >= other.member_set

    def _for(self, schema: Schema) -> "UpdateExtension":
        """This extension, its derived values kept for ``schema`` only:
        whichever participant derives one first writes it for all."""
        if self._schema is not schema:
            self._key_index = self._footprint = None
            self._schema = schema
        return self

    def key_index(self, schema: Schema) -> Dict[QualifiedKey, List[Update]]:
        """The operations indexed by every qualified key they touch
        (:func:`index_by_key`, memoized: conflict detection consults it
        from ``FindConflicts`` and from conflict groups built when read).
        Callers must not mutate the returned mapping.
        """
        if self._key_index is None or self._schema is not schema:
            self._for(schema)._key_index = index_by_key(schema, self.operations)
        return self._key_index

    def footprint(self, schema: Schema) -> Footprint:
        """The operations' compiled instance footprint
        (:func:`~repro.instance.base.compile_footprint`, memoized): what
        ``CheckState`` and application probe the instance with.  A
        derivation the conflict graph shares is one object
        confederation-wide, so the first participant to check it
        compiles for all of them.
        """
        if self._footprint is None or self._schema is not schema:
            self._for(schema)._footprint = compile_footprint(schema, self.operations)
        return self._footprint


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
    schema: Schema, root: TransactionId, members: Sequence[Transaction]
) -> UpdateExtension:
    """The update extension of the root with tid ``root`` over
    ``members``, its transaction extension in publish order — however the
    caller walked the closure.

    The footprint is traced exactly once: :func:`flatten_once` yields the
    net operations and the touched-key set from a single chain pass.  A
    one-transaction closure — a root with no antecedent to carry — is
    flattened straight from its ``updates``, with nothing concatenated.
    Raises :class:`~repro.errors.FlattenError` if the chain is internally
    inconsistent.
    """
    alone = len(members) == 1
    flat = flatten_once(
        schema,
        members[0].updates
        if alone
        else [update for member in members for update in member.updates],
    )
    return UpdateExtension(
        root=root,
        members=(members[0].tid,) if alone else tuple(member.tid for member in members),
        operations=flat.operations,
        touched=flat.keys_touched,
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
        schema, root.tid, [graph.transaction(tid) for tid in members]
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

    A *client-centric* batch carries neither, on every store: the
    participant derives each extension itself.  ``pair_cache`` is the
    store's :class:`repro.core.cache.ConflictGraph` — one per
    confederation, on every batch of every store: conflict points are a
    pure function of two extension objects, so an edge hangs on the two
    objects, written by the first conflict index to hold both; it also
    keeps the one derivation per (root, closure), which is how
    participants share what one of them derived.
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
