"""Flattening of update sequences into minimal sets of net effects.

Section 4.2 of the paper relies on a function ``flatten(s)`` that, given a
sequence of updates, "produces a set of mutually independent updates with
all dependency chains removed" — the Heraclitus-style delta minimisation of
Ghandeharizadeh et al.  For example the sequence

    +F(mouse, prot2, cell-resp)
    F((mouse, prot2, cell-resp) -> (mouse, prot3, cell-resp))

flattens to the single insertion ``+F(mouse, prot3, cell-resp)``: the
intermediate state never needs to exist at the reconciling participant.

The implementation models *chains*: every row value alive during the
sequence belongs to a chain that began either with an insertion (no
pre-existing state consumed) or by consuming a pre-existing row (via a
deletion or the source side of a replacement).  Replacements extend a
chain, possibly moving it to a different key.  At the end of the sequence
each chain contributes at most one net update:

* began with insert, still alive            ->  Insert(final row)
* began with insert, later consumed          ->  nothing (cancelled)
* consumed row ``a``, now dead               ->  Delete(a)
* consumed row ``a``, alive as ``a``         ->  nothing (restored)
* consumed row ``a``, alive as ``b``         ->  Modify(a -> b)

A final minimisation fixpoint composes chains that meet at a key: a
``Delete(a)`` and an ``Insert(b)`` on the same key merge into
``Modify(a -> b)``, and a consumer/producer pair whose rows are identical
cancels at that key (e.g. ``Delete((k, r))`` plus ``Modify((k2, x) -> (k,
r))`` minimises to ``Delete((k2, x))``).  The result is a *set* of
mutually independent updates — at most one reader and at most one writer
per qualified key, with no composable pair remaining.  Because members of
the set may exchange rows between keys (renames, even cyclic ones), the
set must be applied with consume-then-produce set semantics
(:meth:`repro.instance.base.Instance.apply_set`), not sequentially.

A chain that returns a key to the row it started from (e.g. ``a -> b`` then
``b -> a``) flattens to nothing, which is exactly the paper's *least
interaction* principle: a revised-away modification must not conflict with
anyone.  The keys such a chain passed through are still reported by
:func:`keys_read` / :func:`keys_touched`, because dirty-value deferral cares
about reads even when the net effect is empty.

Hot-path notes: :func:`flatten_once` performs a *single* chain trace and
returns the net operations together with the read and touched key sets as
one :class:`FlattenResult`, so callers that need all three (the engine's
update-extension computation) pay for one trace instead of two or three.
The legacy entry points (:func:`flatten`, :func:`keys_read`,
:func:`keys_touched`) are thin views over it.  The module counts tracer
runs in :func:`trace_runs` so tests can pin the one-pass guarantee.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import FlattenError
from repro.model.schema import Schema
from repro.model.tuples import QualifiedKey
from repro.model.updates import Delete, Insert, Modify, Update

#: Number of chain traces performed since interpreter start.  Tests use
#: this to assert that a code path traced a sequence exactly once.
_TRACE_RUNS = 0


def trace_runs() -> int:
    """How many times a :class:`_Tracer` has folded a sequence so far."""
    return _TRACE_RUNS


@dataclass(slots=True)
class _Chain:
    """One row lineage traced through an update sequence."""

    first_read: Optional[Tuple]  # pre-existing row consumed, if any
    first_key: QualifiedKey  # key where the chain began
    final_row: Optional[Tuple] = None  # row left behind (None = dead)
    final_key: Optional[QualifiedKey] = None  # key where final_row lives
    last_origin: int = 0
    touched: Set[QualifiedKey] = field(default_factory=set)


class _Tracer:
    """Folds an update sequence into chains, validating consistency."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._live: Dict[QualifiedKey, _Chain] = {}
        self.chains: List[_Chain] = []

    def _key(self, relation: str, row: Tuple) -> QualifiedKey:
        return (relation, self._schema.relation(relation).key_of(row))

    def _start_chain(
        self, key: QualifiedKey, read: Optional[Tuple], origin: int
    ) -> _Chain:
        chain = _Chain(first_read=read, first_key=key, last_origin=origin)
        chain.touched.add(key)
        self.chains.append(chain)
        return chain

    def _consume(self, key: QualifiedKey, row: Tuple, origin: int) -> _Chain:
        """Kill the live row under ``key`` (or consume pre-existing state)."""
        chain = self._live.pop(key, None)
        if chain is None:
            chain = self._start_chain(key, read=row, origin=origin)
        elif chain.final_row != row:
            raise FlattenError(
                f"sequence consumes row {row!r} under key {key}, but the "
                f"chain leaves {chain.final_row!r} there"
            )
        chain.final_row = None
        chain.final_key = None
        chain.last_origin = origin
        chain.touched.add(key)
        return chain

    def _produce(
        self, chain: _Chain, key: QualifiedKey, row: Tuple, origin: int
    ) -> None:
        if key in self._live:
            raise FlattenError(
                f"sequence writes {row!r} under key {key} while another "
                "chain still holds that key"
            )
        chain.final_row = row
        chain.final_key = key
        chain.last_origin = origin
        chain.touched.add(key)
        self._live[key] = chain

    def feed(self, update: Update) -> None:
        """Fold one update into the chain state."""
        if isinstance(update, Insert):
            key = self._key(update.relation, update.row)
            chain = self._start_chain(key, read=None, origin=update.origin)
            self._produce(chain, key, update.row, update.origin)
        elif isinstance(update, Delete):
            key = self._key(update.relation, update.row)
            self._consume(key, update.row, update.origin)
        elif isinstance(update, Modify):
            old_key = self._key(update.relation, update.old_row)
            new_key = self._key(update.relation, update.new_row)
            chain = self._consume(old_key, update.old_row, update.origin)
            self._produce(chain, new_key, update.new_row, update.origin)
        else:  # pragma: no cover - exhaustive over the Update union
            raise FlattenError(f"unknown update type: {update!r}")


def _trace(schema: Schema, updates: Iterable[Update]) -> List[_Chain]:
    global _TRACE_RUNS
    _TRACE_RUNS += 1
    tracer = _Tracer(schema)
    for update in updates:
        tracer.feed(update)
    return tracer.chains


def _net_update(chain: _Chain) -> Optional[Update]:
    """The net update contributed by one chain, or None if it cancelled."""
    relation = chain.first_key[0]
    if chain.first_read is None:
        if chain.final_row is None:
            return None  # inserted then consumed
        return Insert(relation, chain.final_row, chain.last_origin)
    if chain.final_row is None:
        return Delete(relation, chain.first_read, chain.last_origin)
    if chain.final_row == chain.first_read:
        return None  # restored to the original row
    return Modify(relation, chain.first_read, chain.final_row, chain.last_origin)


def _reader_at(schema: Schema, update: Update) -> Optional[QualifiedKey]:
    row = update.read_row()
    if row is None:
        return None
    return (update.relation, schema.relation(update.relation).key_of(row))


def _writer_at(schema: Schema, update: Update) -> Optional[QualifiedKey]:
    row = update.written_row()
    if row is None:
        return None
    return (update.relation, schema.relation(update.relation).key_of(row))


def _compose_pair(reader: Update, writer: Update) -> List[Update]:
    """Compose a reader and a writer that meet at one key.

    ``reader`` consumes row ``r`` at key ``k``; ``writer`` produces a row
    at ``k``.  When the produced row equals ``r`` the pair cancels at
    ``k`` and only their *other* ends survive; when the rows differ, a
    plain delete + insert pair still merges into a replacement.  Returns
    the replacement updates (possibly empty), or None when the pair
    cannot be composed.
    """
    consumed = reader.read_row()
    produced = writer.written_row()
    origin = writer.origin
    if consumed == produced:
        # The key ends up holding exactly the row it lost: compose out.
        if isinstance(reader, Delete) and isinstance(writer, Insert):
            return []
        if isinstance(reader, Delete) and isinstance(writer, Modify):
            return [Delete(writer.relation, writer.old_row, origin)]
        if isinstance(reader, Modify) and isinstance(writer, Insert):
            return [Insert(reader.relation, reader.new_row, reader.origin)]
        if isinstance(reader, Modify) and isinstance(writer, Modify):
            if writer.old_row == reader.new_row:
                return []
            return [
                Modify(writer.relation, writer.old_row, reader.new_row, origin)
            ]
    if isinstance(reader, Delete) and isinstance(writer, Insert):
        # Remove-then-replace expressed as two chains.
        return [Modify(reader.relation, consumed, produced, origin)]
    return None


def _minimise(schema: Schema, nets: List[Update]) -> List[Update]:
    """Worklist composition of reader/writer pairs meeting at one key.

    Guarantees that in the result no key has both a consumer of row ``r``
    and a producer of the same row ``r`` (such pairs always compose), and
    no key has both a plain Delete and a plain Insert (they merge into a
    Modify).  A key may still carry one reader and one writer from
    *different* replacements — e.g. ``Delete((k, a))`` alongside
    ``Modify((k2, x) -> (k, b))`` — which is irreducible with row-level
    update operations.

    The reader/writer indexes are maintained incrementally: each
    composition removes two updates and inserts their replacements,
    re-enqueueing only the keys the replacements occupy.  Valid inputs
    carry at most one reader and one writer per key (the tracer enforces
    this and :func:`_compose_pair` preserves it), so every key is examined
    O(1) times per composition that touches it instead of restarting a
    full O(n²) scan after every composition.  The worklist is first-in
    first-out and a key already waiting is not queued again, so keys are
    visited in the order they were first (re-)enqueued.
    """
    alive: Dict[int, Update] = {}  # id -> update, insertion-ordered
    readers: Dict[QualifiedKey, Update] = {}
    writers: Dict[QualifiedKey, Update] = {}
    pending: Deque[QualifiedKey] = deque()  # the key worklist ...
    waiting: Set[QualifiedKey] = set()  # ... and what is on it

    def _add(update: Update) -> None:
        alive[id(update)] = update
        read_key = _reader_at(schema, update)
        if read_key is not None:
            readers[read_key] = update
            if read_key not in waiting:
                waiting.add(read_key)
                pending.append(read_key)
        write_key = _writer_at(schema, update)
        if write_key is not None:
            writers[write_key] = update
            if write_key not in waiting:
                waiting.add(write_key)
                pending.append(write_key)

    def _remove(update: Update) -> None:
        del alive[id(update)]
        read_key = _reader_at(schema, update)
        if read_key is not None and readers.get(read_key) is update:
            del readers[read_key]
        write_key = _writer_at(schema, update)
        if write_key is not None and writers.get(write_key) is update:
            del writers[write_key]

    for update in nets:
        _add(update)
    while pending:
        key = pending.popleft()
        waiting.discard(key)
        reader = readers.get(key)
        writer = writers.get(key)
        if reader is None or writer is None or reader is writer:
            continue
        replacement = _compose_pair(reader, writer)
        if replacement is None:
            continue
        _remove(reader)
        _remove(writer)
        for update in replacement:
            _add(update)
    return list(alive.values())


def _sort_key(schema: Schema, update: Update) -> Tuple:
    relation = schema.relation(update.relation)
    anchor = update.read_row() if update.read_row() is not None else update.written_row()
    return (update.relation, repr(relation.key_of(anchor)))


def _net_of_chains(schema: Schema, chains: List[_Chain]) -> List[Update]:
    """Minimised, deterministically ordered net updates of traced chains."""
    nets = [
        update
        for chain in chains
        if (update := _net_update(chain)) is not None
    ]
    nets = _minimise(schema, nets)
    nets.sort(key=lambda u: _sort_key(schema, u))
    return nets


@dataclass(frozen=True)
class FlattenResult:
    """Everything one chain trace of an update sequence yields.

    * ``operations`` — the minimal set of net updates (what
      :func:`flatten` returns);
    * ``keys_read`` — keys whose pre-existing state the sequence consumed
      (what :func:`keys_read` returns);
    * ``keys_touched`` — every key the sequence read or wrote, including
      intermediate steps (what :func:`keys_touched` returns).
    """

    operations: Tuple[Update, ...]
    keys_read: frozenset
    keys_touched: frozenset


_EMPTY_RESULT = None  # initialised below, after FlattenResult exists


def _single_update_result(schema: Schema, update: Update) -> FlattenResult:
    """FlattenResult of a one-update sequence, skipping the trace.

    A single update is always its own net effect: no chain can extend,
    cancel, or compose with it.  Its touched keys are the update's own,
    and it reads pre-existing state iff it consumes a row.
    """
    read = update.read_row()
    keys = update.keys_touched(schema)
    return FlattenResult(
        operations=(update,),
        keys_read=frozenset((keys[0],)) if read is not None else frozenset(),
        keys_touched=frozenset(keys),
    )


def flatten_once(schema: Schema, updates: Iterable[Update]) -> FlattenResult:
    """Flatten a sequence and report its key footprint in a single pass.

    Equivalent to calling :func:`flatten`, :func:`keys_read`, and
    :func:`keys_touched` on the same sequence, but the chains are traced
    exactly once.  This is the entry point for the reconciliation engine,
    which needs all three views of every footprint it considers.
    Zero- and one-update sequences — the bulk of a fine-grained workload —
    short-circuit without tracing at all.
    """
    if not isinstance(updates, (list, tuple)):
        updates = list(updates)
    if not updates:
        return _EMPTY_RESULT
    if len(updates) == 1:
        return _single_update_result(schema, updates[0])
    chains = _trace(schema, updates)
    read = frozenset(
        chain.first_key for chain in chains if chain.first_read is not None
    )
    touched: Set[QualifiedKey] = set()
    for chain in chains:
        touched.update(chain.touched)
    return FlattenResult(
        operations=tuple(_net_of_chains(schema, chains)),
        keys_read=read,
        keys_touched=frozenset(touched),
    )


_EMPTY_RESULT = FlattenResult(
    operations=(), keys_read=frozenset(), keys_touched=frozenset()
)


def flatten(schema: Schema, updates: Iterable[Update]) -> List[Update]:
    """Flatten an update sequence into a minimal set of net updates.

    The result is a deterministically ordered list representing a *set*
    of mutually independent updates: at most one update consumes a row at
    any key and at most one produces a row there, and no composable pair
    remains (see :func:`_minimise`).  Chains that cancel out contribute
    nothing.  Apply the result with
    :meth:`~repro.instance.base.Instance.apply_set`.

    Raises :class:`FlattenError` if the sequence is internally inconsistent
    (e.g. it deletes a row that the chain state shows is not present).
    """
    if not isinstance(updates, (list, tuple)):
        updates = list(updates)
    if len(updates) <= 1:
        return list(updates)  # a lone update is always its own net effect
    return _net_of_chains(schema, _trace(schema, updates))


def flatten_transactions(schema: Schema, transactions: Iterable) -> List[Update]:
    """Flatten the concatenated update sequences of ordered transactions."""
    sequence: List[Update] = []
    for txn in transactions:
        sequence.extend(txn.updates)
    return flatten(schema, sequence)


def keys_read(schema: Schema, updates: Iterable[Update]) -> Set[QualifiedKey]:
    """Keys whose pre-existing state the sequence consumed.

    Includes keys whose net effect cancelled out: a chain that read a value
    and restored it still depends on that value, which matters for
    dirty-value deferral.
    """
    return {
        chain.first_key
        for chain in _trace(schema, updates)
        if chain.first_read is not None
    }


def keys_touched(schema: Schema, updates: Iterable[Update]) -> Set[QualifiedKey]:
    """All keys the sequence read or wrote, including intermediate steps."""
    touched: Set[QualifiedKey] = set()
    for chain in _trace(schema, updates):
        touched.update(chain.touched)
    return touched
