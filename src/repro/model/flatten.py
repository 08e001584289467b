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
:func:`keys_touched`, because dirty-value deferral cares about them even
when the net effect is empty.

Hot-path notes: there is one trace, :func:`_fold`, and :func:`flatten_once`
returns what it yields — the net operations and the touched keys — as one
:class:`FlattenResult`; :func:`flatten` and :func:`keys_touched` are views
of it.  The trace reads each update's memoised ``keys_touched`` instead of
deriving keys again, keeps a chain as a small list, and collects the
touched keys in the same loop.  A chain of one update contributes that
update object itself, key memo warm for whoever indexes the result, as a
one-update sequence does without any trace.  The minimisation worklist
runs only when some key has both a net reader and a different net writer,
and it and the final sort take their keys from the chains.  The module
counts traces in :func:`trace_runs` so tests can pin the one-pass
guarantee.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import FlattenError
from repro.model.schema import Schema
from repro.model.tuples import QualifiedKey
from repro.model.updates import Delete, Insert, Modify, Update

#: Number of chain traces performed since interpreter start.  Tests use
#: this to assert that a code path traced a sequence exactly once.
_TRACE_RUNS = 0


def trace_runs() -> int:
    """How many multi-update sequences have been traced so far."""
    return _TRACE_RUNS


#: A net update with the key it consumes a row at and the key it leaves a
#: row at (``None`` where it does not).
_Net = Tuple[Update, Optional[QualifiedKey], Optional[QualifiedKey]]


def _overwrite(row: Tuple, key: QualifiedKey) -> FlattenError:
    return FlattenError(
        f"sequence writes {row!r} under key {key} while another "
        "chain still holds that key"
    )


def _fold(
    schema: Schema, updates: Iterable[Update]
) -> Tuple[List[list], Set[QualifiedKey]]:
    """Trace ``updates`` into chains, validating consistency, and collect
    every key they touch.

    A chain is ``[first read row, first key, final row, final key, last
    origin, only update]``: the pre-existing row it consumed (``None``
    for one begun by an insertion) and where, the row it leaves behind
    (``None`` once consumed) and where, and the update itself while the
    chain has just that one.
    """
    global _TRACE_RUNS
    _TRACE_RUNS += 1
    live: Dict[QualifiedKey, list] = {}  # key -> the chain holding its row
    chains: List[list] = []
    touched: Set[QualifiedKey] = set()
    for update in updates:
        keys = update.keys_touched(schema)
        kind = type(update)
        if kind is Insert:
            key = keys[0]
            if key in live:
                raise _overwrite(update.row, key)
            live[key] = chain = [None, key, update.row, key, update.origin, update]
            chains.append(chain)
        else:
            key = keys[0]
            row = update.row if kind is Delete else update.old_row
            chain = live.pop(key, None)
            if chain is None:
                # A new chain consuming pre-existing state.  At a key the
                # sequence emptied before, the update may be one already
                # standing for a chain (a sequence may repeat an object):
                # it is not passed through twice.
                only = None if key in touched else update
                chain = [row, key, None, None, update.origin, only]
                chains.append(chain)
            elif chain[2] != row:
                raise FlattenError(
                    f"sequence consumes row {row!r} under key {key}, but the "
                    f"chain leaves {chain[2]!r} there"
                )
            else:
                chain[5] = None
            if kind is Delete:
                chain[2] = chain[3] = None
            else:
                key = keys[-1]
                if key in live:
                    raise _overwrite(update.new_row, key)
                chain[2], chain[3] = update.new_row, key
                live[key] = chain
            chain[4] = update.origin
        touched.update(keys)
    return chains, touched


def _settle(chains: List[list]) -> Tuple[Update, ...]:
    """The chains' net updates, minimised where a net reader meets a
    different net writer, in ``(relation, repr(key))`` order of the key
    each consumes a row at, else produces one at."""
    nets: List[_Net] = []
    readers: Dict[QualifiedKey, _Net] = {}
    writers: Dict[QualifiedKey, _Net] = {}
    for first_read, first_key, final_row, final_key, origin, only in chains:
        relation = first_key[0]
        if first_read is None:
            if final_row is None:
                continue  # inserted then consumed
            net = (only or Insert(relation, final_row, origin), None, final_key)
        elif final_row is None:
            net = (only or Delete(relation, first_read, origin), first_key, None)
        elif final_row == first_read:
            continue  # restored to the original row
        else:
            update = only or Modify(relation, first_read, final_row, origin)
            net = (update, first_key, final_key)
        nets.append(net)
        if net[1] is not None:
            readers[first_key] = net
        if final_key is not None:
            writers[final_key] = net
    if any(readers.get(key, net) is not net for key, net in writers.items()):
        nets = _minimise(nets)
    if len(nets) > 1:
        nets.sort(key=_anchor)
    return tuple(net[0] for net in nets)


def _anchor(net: _Net) -> Tuple[str, str]:
    key = net[1] if net[1] is not None else net[2]
    return key[0], repr(key[1])


def _compose_pair(reader: _Net, writer: _Net) -> Optional[List[_Net]]:
    """Compose a reader and a writer that meet at one key.

    ``reader`` consumes row ``r`` at key ``k``; ``writer`` produces a row
    at ``k``.  When the produced row equals ``r`` the pair cancels at
    ``k`` and only their *other* ends survive; when the rows differ, a
    plain delete + insert pair still merges into a replacement.  Returns
    the replacement nets (possibly empty), or None when the pair cannot
    be composed.
    """
    read, key, read_end = reader  # (``writer`` leaves its row at ``key`` too)
    written, written_start, _ = writer
    consumed = read.read_row()
    produced = written.written_row()
    origin = written.origin
    if consumed == produced:
        # The key ends up holding exactly the row it lost: compose out.
        if isinstance(read, Delete) and isinstance(written, Insert):
            return []
        if isinstance(read, Delete) and isinstance(written, Modify):
            return [(Delete(written.relation, written.old_row, origin), written_start, None)]
        if isinstance(read, Modify) and isinstance(written, Insert):
            return [(Insert(read.relation, read.new_row, read.origin), None, read_end)]
        if isinstance(read, Modify) and isinstance(written, Modify):
            if written.old_row == read.new_row:
                return []
            update = Modify(written.relation, written.old_row, read.new_row, origin)
            return [(update, written_start, read_end)]
    if isinstance(read, Delete) and isinstance(written, Insert):
        # Remove-then-replace expressed as two chains.
        return [(Modify(read.relation, consumed, produced, origin), key, key)]
    return None


def _minimise(nets: List[_Net]) -> List[_Net]:
    """Worklist composition of reader/writer pairs meeting at one key.

    Guarantees that in the result no key has both a consumer of row ``r``
    and a producer of the same row ``r`` (such pairs always compose), and
    no key has both a plain Delete and a plain Insert (they merge into a
    Modify).  A key may still carry one reader and one writer from
    *different* replacements — e.g. ``Delete((k, a))`` alongside
    ``Modify((k2, x) -> (k, b))`` — which is irreducible with row-level
    update operations.

    The reader/writer indexes are maintained incrementally: each
    composition removes two nets and inserts their replacements,
    re-enqueueing only the keys the replacements occupy.  Valid inputs
    carry at most one reader and one writer per key (the trace enforces
    this and :func:`_compose_pair` preserves it), so every key is examined
    O(1) times per composition that touches it instead of restarting a
    full O(n²) scan after every composition.  The worklist is first-in
    first-out and a key already waiting is not queued again, so keys are
    visited in the order they were first (re-)enqueued.  Nets are told
    apart by their update's identity: no update object stands for two.
    """
    alive: Dict[int, _Net] = {}  # id(update) -> net, insertion-ordered
    readers: Dict[QualifiedKey, _Net] = {}
    writers: Dict[QualifiedKey, _Net] = {}
    pending: Deque[QualifiedKey] = deque()  # the key worklist ...
    waiting: Set[QualifiedKey] = set()  # ... and what is on it

    def _add(net: _Net) -> None:
        update, read_key, write_key = net
        alive[id(update)] = net
        if read_key is not None:
            readers[read_key] = net
            if read_key not in waiting:
                waiting.add(read_key)
                pending.append(read_key)
        if write_key is not None:
            writers[write_key] = net
            if write_key not in waiting:
                waiting.add(write_key)
                pending.append(write_key)

    def _remove(net: _Net) -> None:
        update, read_key, write_key = net
        del alive[id(update)]
        if read_key is not None and readers.get(read_key) is net:
            del readers[read_key]
        if write_key is not None and writers.get(write_key) is net:
            del writers[write_key]

    for net in nets:
        _add(net)
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
        for net in replacement:
            _add(net)
    return list(alive.values())


@dataclass(frozen=True)
class FlattenResult:
    """Everything one chain trace of an update sequence yields.

    * ``operations`` — the minimal set of net updates (what
      :func:`flatten` returns);
    * ``keys_touched`` — every key the sequence read or wrote, including
      intermediate steps (what :func:`keys_touched` returns).
    """

    operations: Tuple[Update, ...]
    keys_touched: frozenset


_EMPTY_RESULT = FlattenResult(operations=(), keys_touched=frozenset())


def flatten_once(schema: Schema, updates: Iterable[Update]) -> FlattenResult:
    """Flatten a sequence and report its key footprint in a single pass.

    This is the entry point for the reconciliation engine, which needs
    both views of every footprint it considers.  Zero- and one-update
    sequences — the bulk of a fine-grained workload — are their own net
    effect and return without tracing at all.

    Raises :class:`FlattenError` if the sequence is internally inconsistent
    (e.g. it deletes a row that the chain state shows is not present).
    """
    if not isinstance(updates, (list, tuple)):
        updates = list(updates)
    if len(updates) > 1:
        chains, touched = _fold(schema, updates)
        return FlattenResult(_settle(chains), frozenset(touched))
    if not updates:
        return _EMPTY_RESULT
    update = updates[0]
    return FlattenResult((update,), frozenset(update.keys_touched(schema)))


def flatten(schema: Schema, updates: Iterable[Update]) -> List[Update]:
    """Flatten an update sequence into a minimal set of net updates.

    The result is a deterministically ordered list representing a *set*
    of mutually independent updates: at most one update consumes a row at
    any key and at most one produces a row there, and no composable pair
    remains (see :func:`_minimise`).  Chains that cancel out contribute
    nothing.  Apply the result with
    :meth:`~repro.instance.base.Instance.apply_set`.

    Raises :class:`FlattenError` as :func:`flatten_once` does.
    """
    return list(flatten_once(schema, updates).operations)


def flatten_transactions(schema: Schema, transactions: Iterable) -> List[Update]:
    """Flatten the concatenated update sequences of ordered transactions."""
    sequence: List[Update] = []
    for txn in transactions:
        sequence.extend(txn.updates)
    return flatten(schema, sequence)


def keys_touched(schema: Schema, updates: Iterable[Update]) -> Set[QualifiedKey]:
    """All keys the sequence read or wrote, including intermediate steps."""
    return set(flatten_once(schema, updates).keys_touched)
