"""The local instance and its update-application semantics.

An *instance* is a materialised database: for every relation in the schema,
a set of rows indexed by key.  The reconciliation engine needs exactly four
capabilities from it: look up the row under a key, apply an update, test
whether an update sequence could be applied without violating integrity
constraints (``CheckState`` line 5 of the paper's algorithm), and enumerate
state for metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.errors import ConstraintViolation, SchemaError
from repro.model.schema import ForeignKey, Schema
from repro.model.tuples import QualifiedKey
from repro.model.updates import Update

#: One slot of a footprint: a qualified key and the row read or written there.
Slot = Tuple[QualifiedKey, Tuple]


class Footprint(NamedTuple):
    """What an update *set* asks of an instance, compiled from the
    updates and the schema alone (:func:`compile_footprint`), so that
    testing it against a state is a constant number of ``get`` probes
    per update and nothing else.

    * ``consumed`` — every ``(key, row)`` the set removes: ``row`` must
      be what the instance holds at ``key``;
    * ``produced`` — every ``(key, row)`` it stores;
    * ``landing`` — the produced slots the set does not itself vacate or
      fill first: the instance must hold nothing, or ``row``, there;
    * ``references`` — the *distinct* foreign-key targets of the produced
      rows that the set does not itself produce: each must be present;
    * ``error`` — ``(class, message)`` of the first failure the updates
      alone decide (a key consumed twice, an invalid row, two rows
      written onto one key, a reference to a row the set removes), to
      be raised once everything listed before it has been probed.  The
      lists stop where it occurred.

    Keys are the updates' own memoized ``keys_touched`` tuples.
    """

    consumed: Tuple[Slot, ...]
    produced: Tuple[Slot, ...]
    landing: Tuple[Slot, ...]
    references: Tuple[QualifiedKey, ...]
    error: Optional[Tuple[type, str]]


def foreign_key_target(schema: Schema, fk: ForeignKey, row: Tuple) -> QualifiedKey:
    """The qualified key ``fk`` makes ``row`` of its source relation reference."""
    value_of = schema.relation(fk.source_relation).value_of
    return fk.target_relation, tuple(value_of(row, a) for a in fk.source_attributes)


def _absent(target: QualifiedKey) -> str:
    return f"referenced {target[0]!r} key {target[1]!r} is absent"


def _slot_key(schema: Schema, update: Update, row: Tuple, position: int) -> QualifiedKey:
    """``row``'s qualified key — the update's memoized one, unless its
    *other* row is what cannot be keyed."""
    try:
        return update.keys_touched(schema)[position]
    except SchemaError:
        return update.relation, schema.relation(update.relation).key_of(row)


def compile_footprint(schema: Schema, updates: Sequence[Update]) -> Footprint:
    """Compile the :class:`Footprint` of a set of mutually independent
    updates.

    Flattened update extensions are sets, not sequences: members may
    exchange rows between keys (including cyclic renames), so the
    semantics is consume-everything-then-produce-everything, with
    foreign keys tested against the final state.  ``overlay`` is that
    state as far as the set decides it.
    """
    consumed: List[Slot] = []
    produced: List[Slot] = []
    landing: List[Slot] = []
    references: Dict[QualifiedKey, None] = {}
    overlay: Dict[QualifiedKey, Optional[Tuple]] = {}
    error = None
    try:
        for update in updates:
            read = update.read_row()
            if read is not None:
                key = _slot_key(schema, update, read, 0)
                if key in overlay:
                    raise ConstraintViolation(f"update set consumes key {key} twice")
                overlay[key] = None
                consumed.append((key, read))
        for update in updates:
            written = update.written_row()
            if written is not None:
                schema.relation(update.relation).validate_row(written)
                key = _slot_key(schema, update, written, -1)
                if key not in overlay:
                    landing.append((key, written))
                elif overlay[key] not in (None, written):
                    raise ConstraintViolation(
                        f"update {update} writes over existing row {overlay[key]!r}"
                    )
                overlay[key] = written
                produced.append((key, written))
        for key, written in produced:
            for fk in schema.foreign_keys_from(key[0]):
                target = foreign_key_target(schema, fk, written)
                if target not in overlay:
                    references[target] = None
                elif overlay[target] is None:
                    raise ConstraintViolation(_absent(target))
    except (SchemaError, ConstraintViolation) as exc:
        error = (type(exc), str(exc))
    slots = tuple(produced)  # every slot lands, usually: one tuple then
    return Footprint(
        tuple(consumed),
        slots,
        slots if len(landing) == len(slots) else tuple(landing),
        tuple(references),
        error,
    )


class Instance:
    """A materialised database instance over a fixed schema, held in
    Python dictionaries.

    Each relation is a dict from key tuple to row tuple, giving O(1)
    lookups — the same asymptotics the paper obtains from hash-based
    conflict detection.  Update *sequences* (``apply_all``: a
    participant's own transaction) are checked update by update, each
    seeing its predecessors; update *sets* (``apply_set``: a flattened
    extension) as a :class:`Footprint`, given compiled or compiled on
    entry — one path either way.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._data: Dict[str, Dict[Tuple, Tuple]] = {rel.name: {} for rel in schema}
        #: Monotone counter bumped by every successful mutation entry
        #: point (``apply`` / ``apply_all`` / ``apply_set``).  Pure
        #: read-only checks such as :meth:`can_apply_set` are functions of
        #: the instance state, so callers may memoize their verdicts
        #: against this version.
        self.mutation_count: int = 0

    @property
    def schema(self) -> Schema:
        """The schema this instance materialises."""
        return self._schema

    def get(self, relation: str, key: Tuple) -> Optional[Tuple]:
        """Return the row stored under ``key`` in ``relation``, or None."""
        return self._data[relation].get(key)

    def rows(self, relation: str) -> Iterable[Tuple]:
        """Iterate over all rows of ``relation`` (order unspecified)."""
        return iter(self._data[relation].values())

    def count(self, relation: str) -> int:
        """Number of rows currently in ``relation`` (O(1))."""
        return len(self._data[relation])

    def copy(self) -> "Instance":
        """An independent deep copy of this instance."""
        clone = Instance(self._schema)
        for relation, rows in self._data.items():
            clone._data[relation] = dict(rows)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:  # instances are mutable
        raise TypeError("Instance is unhashable")

    def contains_row(self, relation: str, row: Tuple) -> bool:
        """True if exactly ``row`` is present in ``relation``."""
        key = self._schema.relation(relation).key_of(row)
        return self.get(relation, key) == row

    # ------------------------------------------------------------------
    # Update application (sequences: each update sees its predecessors)

    def can_apply(self, update: Update) -> bool:
        """True if ``update`` can be applied without violating constraints."""
        return self.can_apply_all([update])

    def can_apply_all(self, updates: Sequence[Update]) -> bool:
        """True if the whole sequence applies cleanly, in order.

        This is the "can be completely applied to the instance without
        violating its integrity constraints" test of Definition 5,
        condition 2.  The check simulates the sequence against a scratch
        overlay so the instance itself is not modified.
        """
        simulated: Dict[QualifiedKey, Optional[Tuple]] = {}
        try:
            for update in updates:
                self._check(update, simulated)
        except ConstraintViolation:
            return False
        return True

    def apply(self, update: Update) -> None:
        """Apply a single update, raising :class:`ConstraintViolation` on error."""
        self.apply_all([update])

    def apply_all(self, updates: Sequence[Update]) -> None:
        """Apply an update sequence atomically-in-effect.

        The sequence is validated as a whole first (so a failure partway
        through cannot leave the instance half-updated), then executed.
        """
        simulated: Dict[QualifiedKey, Optional[Tuple]] = {}
        for update in updates:
            self._check(update, simulated)
        for update in updates:
            relation, read, written = update.relation, update.read_row(), update.written_row()
            key_of = self._schema.relation(relation).key_of
            if read is not None:
                self._data[relation].pop(key_of(read), None)
            if written is not None:
                self._data[relation][key_of(written)] = written
        if updates:
            self.mutation_count += 1

    def _check(
        self, update: Update, simulated: Dict[QualifiedKey, Optional[Tuple]]
    ) -> None:
        """Raise :class:`ConstraintViolation` if ``update`` is inapplicable
        to the state seen through ``simulated``; else record its effect
        there.  (Keys are derived here, not taken from the update's memo:
        a participant's own updates may never need one.)"""
        relation, read, written = update.relation, update.read_row(), update.written_row()
        rel = self._schema.relation(relation)
        old_key = None
        if written is not None:
            rel.validate_row(written)
        if read is not None:
            old_key = (relation, rel.key_of(read))
            existing = self._effective(old_key, simulated)
            if existing != read:
                raise ConstraintViolation(
                    f"{update} does not match stored row {existing!r}"
                )
        if written is not None:
            new_key = (relation, rel.key_of(written))
            if new_key != old_key:
                # An insert may restate the row it finds; a replacement
                # that moves its row needs the new key free.
                target = self._effective(new_key, simulated)
                if target is not None and (read is not None or target != written):
                    raise ConstraintViolation(
                        f"{update} collides with existing row {target!r}"
                    )
            for fk in self._schema.foreign_keys_from(relation):
                target = foreign_key_target(self._schema, fk, written)
                if self._effective(target, simulated) is None:
                    raise ConstraintViolation(_absent(target))
        if read is not None:
            simulated[old_key] = None
        if written is not None:
            simulated[new_key] = written

    def _effective(
        self, key: QualifiedKey, simulated: Dict[QualifiedKey, Optional[Tuple]]
    ) -> Optional[Tuple]:
        """Row under ``key`` as seen through the simulation overlay."""
        return simulated[key] if key in simulated else self.get(*key)

    # ------------------------------------------------------------------
    # Set application (flattened update extensions)

    def _check_set(self, updates: Union[Footprint, Sequence[Update]]) -> Footprint:
        """Test an update set — its compiled :class:`Footprint`, or the
        raw updates, compiled here — against the current state; returns
        the footprint.  Raises :class:`ConstraintViolation` when the set
        does not fit, and whatever the footprint holds back at the point
        the updates themselves ruled it out.
        """
        footprint = updates
        if type(footprint) is not Footprint:
            footprint = compile_footprint(self._schema, updates)
        data = self._data  # probed directly: one dict lookup per slot
        # Every consumed row must currently be present ...
        for (relation, key), row in footprint.consumed:
            existing = data[relation].get(key)
            if existing != row:
                raise ConstraintViolation(
                    f"update set consumes {row!r} but the instance holds {existing!r}"
                )
        # ... every produced row land on a free (or identical) slot ...
        for (relation, key), row in footprint.landing:
            existing = data[relation].get(key)
            if existing is not None and existing != row:
                raise ConstraintViolation(
                    f"update set writes {row!r} over existing row {existing!r}"
                )
        if footprint.error is not None:
            kind, message = footprint.error
            raise kind(message)
        # ... and every foreign key hold in the final state.
        for relation, key in footprint.references:
            if data[relation].get(key) is None:
                raise ConstraintViolation(_absent((relation, key)))
        return footprint

    def can_apply_set(self, updates: Union[Footprint, Sequence[Update]]) -> bool:
        """True if the update set fits this instance (set semantics)."""
        try:
            self._check_set(updates)
        except ConstraintViolation:
            return False
        return True

    def apply_set(self, updates: Union[Footprint, Sequence[Update]]) -> None:
        """Apply a set of mutually independent updates atomically.

        All consumed rows are removed first, then all produced rows are
        stored, so renames between keys (even cyclic ones) apply cleanly.
        """
        footprint = self._check_set(updates)
        for (relation, key), _row in footprint.consumed:
            self._data[relation].pop(key, None)
        for (relation, key), row in footprint.produced:
            self._data[relation][key] = row
        if footprint.consumed or footprint.produced:
            self.mutation_count += 1

    # ------------------------------------------------------------------
    # Introspection for metrics and tests

    def snapshot(self) -> Dict[str, Dict[Tuple, Tuple]]:
        """A deep copy of the full state: relation -> key -> row."""
        return {
            rel.name: {rel.key_of(row): row for row in self.rows(rel.name)}
            for rel in self._schema
        }

    def all_keys(self) -> List[QualifiedKey]:
        """Every qualified key currently holding a row."""
        return [
            (rel.name, rel.key_of(row))
            for rel in self._schema
            for row in self.rows(rel.name)
        ]
