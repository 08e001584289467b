"""Transactions: ordered groups of updates published by one participant.

The paper denotes transactions ``Xi:j`` where ``i`` is the originating
participant and ``j`` a local transaction counter assigned in increasing
order (Section 3.2).  :class:`TransactionId` reproduces that identifier and
its ordering; :class:`Transaction` pairs an id with its update sequence.

Transactions are immutable once constructed.  The epoch in which a
transaction was published is *not* part of the transaction — it is assigned
by the update store at publication time (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Tuple

from repro.errors import UpdateError
from repro.model.schema import Schema
from repro.model.tuples import QualifiedKey
from repro.model.updates import Update


class TransactionId(NamedTuple):
    """The identifier ``Xi:j`` of a transaction.

    Ordering is lexicographic on ``(participant, sequence)``, matching the
    paper's assumption that identifiers are assigned in increasing order at
    each participant.

    Transaction ids live in every hot set and dict of the reconciliation
    engine, so the id *is* the pair: hashing, equality and ordering are
    the tuple's own and never enter the interpreter (and an id equals
    the plain pair ``(participant, sequence)``).
    """

    participant: int
    sequence: int

    def __str__(self) -> str:
        return f"X{self.participant}:{self.sequence}"


@dataclass(frozen=True, slots=True)
class Transaction:
    """An ordered, non-empty group of updates with a single originator.

    Slotted: a store keeps one per published transaction for good.
    """

    tid: TransactionId
    updates: Tuple[Update, ...]

    def __post_init__(self) -> None:
        if not self.updates:
            raise UpdateError(f"transaction {self.tid} contains no updates")
        for update in self.updates:
            if update.origin != self.tid.participant:
                raise UpdateError(
                    f"update {update} inside {self.tid} is annotated with "
                    f"origin {update.origin}, expected {self.tid.participant}"
                )

    @property
    def origin(self) -> int:
        """The participant that originated this transaction."""
        return self.tid.participant

    def keys_touched(self, schema: Schema) -> Tuple[QualifiedKey, ...]:
        """All qualified keys read or written by this transaction, deduplicated."""
        seen = []
        for update in self.updates:
            for key in update.keys_touched(schema):
                if key not in seen:
                    seen.append(key)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self):
        return iter(self.updates)

    def __str__(self) -> str:
        body = "; ".join(str(u) for u in self.updates)
        return f"{self.tid}{{{body}}}"


def make_transaction(
    participant: int, sequence: int, updates: Iterable[Update]
) -> Transaction:
    """Convenience constructor: build ``Xparticipant:sequence`` from updates."""
    return Transaction(TransactionId(participant, sequence), tuple(updates))
