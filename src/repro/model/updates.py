"""The three update operations of the paper, and the conflict predicate.

Section 3.2 of the paper defines updates as value-based changes annotated
with the identity of a single originating participant:

* insert tuple, ``+R(a; i)`` — :class:`Insert`;
* delete tuple, ``-R(a; i)`` — :class:`Delete`;
* modify tuple, ``R(a -> a'; i)`` — :class:`Modify`.

Section 4 defines when two updates *conflict*.  :func:`updates_conflict`
implements that definition (it is symmetric).  The cases, quoting the paper:

1. both are insertions with the same key values but different values for at
   least one other attribute;
2. one is a deletion and the other is a replacement or insertion with the
   same key values;
3. both are replacements of the same source tuple to different values.

We add one documented generalisation required for soundness once update
extensions have been *flattened* (Section 4.2): two updates that both write
a row with the same key but different row values conflict even when neither
is literally an insertion (for example an insertion and a replacement whose
*target* carries the same key).  Without this, two flattened extensions
could both be accepted yet violate the key constraint when applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import UpdateError
from repro.model.schema import Schema
from repro.model.tuples import QualifiedKey


#: The slots of an update's key memo (see :class:`_SlottedFrozen`).
_KEY_MEMO = ("_keys_schema", "_keys")


class _SlottedFrozen:
    """What the frozen, ``__slots__``-carrying update classes share: the
    memo of the keys an update touches, and pickle support.

    The memo is two slots — the schema it was computed for and the keys —
    written keys first, so a reader that finds its schema finds that
    schema's keys; it is transient and is not serialised.  The default
    slot pickling path assigns attributes with ``setattr``, which a
    frozen dataclass forbids; restoration goes through
    ``object.__setattr__`` instead.
    """

    __slots__ = ()

    def keys_touched(self, schema: Schema) -> Tuple[QualifiedKey, ...]:
        """Qualified keys this update reads or writes (memoized).

        The key it consumes a row at comes first; a key-changing
        replacement appends the key it produces one at.
        (:func:`updates_conflict` relies on this order.)
        """
        try:  # inline memo fast path: this runs millions of times
            if self._keys_schema is schema:
                return self._keys
        except AttributeError:
            pass
        relation = self.relation
        key_of = schema.relation(relation).key_of
        read, written = self.read_row(), self.written_row()
        if read is None or written is None:
            keys = ((relation, key_of(written if read is None else read)),)
        else:
            old_key, new_key = (relation, key_of(read)), (relation, key_of(written))
            keys = (old_key,) if old_key == new_key else (old_key, new_key)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_keys_schema", schema)
        return keys

    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in _KEY_MEMO and hasattr(self, slot)
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            object.__setattr__(self, slot, value)


@dataclass(frozen=True)
class Insert(_SlottedFrozen):
    """Insert ``row`` into ``relation``; published by participant ``origin``."""

    __slots__ = ("relation", "row", "origin", *_KEY_MEMO)

    relation: str
    row: Tuple
    origin: int

    def written_row(self) -> Optional[Tuple]:
        """The row present after applying this update (the inserted row)."""
        return self.row

    def read_row(self) -> Optional[Tuple]:
        """The pre-existing row this update consumes (none for an insert)."""
        return None

    def __str__(self) -> str:
        return f"+{self.relation}({', '.join(map(str, self.row))}; {self.origin})"


@dataclass(frozen=True)
class Delete(_SlottedFrozen):
    """Delete ``row`` from ``relation``; published by participant ``origin``."""

    __slots__ = ("relation", "row", "origin", *_KEY_MEMO)

    relation: str
    row: Tuple
    origin: int

    def written_row(self) -> Optional[Tuple]:
        """The row present after applying this update (none for a delete)."""
        return None

    def read_row(self) -> Optional[Tuple]:
        """The pre-existing row this update consumes (the deleted row)."""
        return self.row

    def __str__(self) -> str:
        return f"-{self.relation}({', '.join(map(str, self.row))}; {self.origin})"


@dataclass(frozen=True)
class Modify(_SlottedFrozen):
    """Replace ``old_row`` with ``new_row`` in ``relation``.

    The paper calls this a *replacement*: ``R(a -> a'; i)``.  The source and
    target rows may have different key values (a key-changing replacement).
    """

    __slots__ = ("relation", "old_row", "new_row", "origin", *_KEY_MEMO)

    relation: str
    old_row: Tuple
    new_row: Tuple
    origin: int

    def __post_init__(self) -> None:
        if self.old_row == self.new_row:
            raise UpdateError(
                f"modify of {self.relation} replaces a row with itself: "
                f"{self.old_row!r}"
            )

    def written_row(self) -> Optional[Tuple]:
        """The row present after applying this update (the replacement)."""
        return self.new_row

    def read_row(self) -> Optional[Tuple]:
        """The pre-existing row this update consumes (the replaced row)."""
        return self.old_row

    def __str__(self) -> str:
        old = ", ".join(map(str, self.old_row))
        new = ", ".join(map(str, self.new_row))
        return f"{self.relation}({old} -> {new}; {self.origin})"


#: Any of the three update operations.
Update = Union[Insert, Delete, Modify]


def updates_conflict(schema: Schema, left: Update, right: Update) -> bool:
    """Return True if the two updates conflict under the paper's definition.

    The predicate is symmetric.  Updates on different relations never
    conflict directly (they may still be jointly incompatible with an
    instance through foreign keys; that is checked against the instance,
    not pairwise).

    This predicate runs millions of times per reconciliation epoch (it is
    the innermost comparison of hash-based conflict detection), so each
    update's qualified keys are fetched once from the ``keys_touched``
    memo and the case analysis uses direct ``type`` dispatch.
    """
    if left.relation != right.relation:
        return False
    left_type = type(left)
    right_type = type(right)
    left_keys = left.keys_touched(schema)
    right_keys = right.keys_touched(schema)

    # Case 1 + the generalised write/write collision (module docstring):
    # two updates leaving different rows under the same key cannot both
    # be applied.  (Subsumes "two insertions of the same key with
    # different rows".)
    if left_type is not Delete and right_type is not Delete:
        if left_keys[-1] == right_keys[-1]:  # written (target) keys
            if left.written_row() != right.written_row():
                return True

    # Case 2: a deletion against an insertion or replacement of the same
    # key (or a second deletion of a different row version).
    for deletion, other, del_keys, other_keys, other_type in (
        (left, right, left_keys, right_keys, right_type),
        (right, left, right_keys, left_keys, left_type),
    ):
        if type(deletion) is not Delete:
            continue
        del_key = del_keys[0]
        if other_type is Insert:
            if other_keys[-1] == del_key:
                return True
        elif other_type is Modify:
            if other_keys[0] == del_key:
                return True
        else:  # both deletions: different rows of one key are incompatible
            if del_key == other_keys[0] and deletion.row != other.row:
                return True
            break  # symmetric; no need to re-check the swapped order

    # Case 3: two replacements of the same source tuple to different values.
    if left_type is Modify and right_type is Modify:
        if left.old_row == right.old_row and left.new_row != right.new_row:
            return True

    return False
