"""Per-participant reconciliation bookkeeping.

The paper keeps most client state *soft*: it can be reconstructed from the
update store.  :class:`ParticipantState` is that state, held locally by
each reconciling peer:

* ``applied`` — every transaction whose effects are in the local instance;
* ``rejected`` — transactions explicitly rejected (their dependents must
  also be rejected — Definition 5);
* ``deferred`` — transactions awaiting user conflict resolution, as the
  roots to reconsider them by, without re-fetching;
* ``dirty_keys`` — keys read or written by deferred transactions; any
  transaction touching one must itself be deferred;
* ``conflict_groups`` — the open conflicts, grouped for resolution:
  derived from the deferred extensions on first read after each step,
  since only a user resolving (or someone inspecting) reads them;
* ``graph`` — the open frontier: the transactions (plus antecedent edges)
  this participant has fetched and not applied.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.model.transactions import TransactionId
from repro.model.tuples import QualifiedKey

from repro.core.conflicts import ConflictGroup, Point
from repro.core.extensions import RelevantTransaction, TransactionGraph


class ParticipantState:
    """Mutable reconciliation state of one participant."""

    def __init__(self, participant: int) -> None:
        self.participant = participant
        self.applied: Set[TransactionId] = set()
        #: Monotone counter bumped whenever ``applied`` grows.  The
        #: extension cache keys on it: equal version means the applied set
        #: is unchanged, so every cached extension is still exact (O(1)
        #: validity check instead of comparing sets).
        self.applied_version: int = 0
        self.rejected: Set[TransactionId] = set()
        self.deferred: Dict[TransactionId, RelevantTransaction] = {}
        self.dirty_keys: Set[QualifiedKey] = set()
        # How to build the groups the last step left, and them once read.
        self._grouping: Callable[[], Dict[Point, ConflictGroup]] = dict
        self._groups: Optional[Dict[Point, ConflictGroup]] = None
        self.graph = TransactionGraph()
        self.last_recno: int = 0

    # ------------------------------------------------------------------
    # Queries

    def is_decided(self, tid: TransactionId) -> bool:
        """True if ``tid`` has a final verdict (applied or rejected)."""
        return tid in self.applied or tid in self.rejected

    def is_deferred(self, tid: TransactionId) -> bool:
        """True if ``tid`` is awaiting conflict resolution."""
        return tid in self.deferred

    def deferred_roots(self) -> List[RelevantTransaction]:
        """The deferred transactions, as roots for reconsideration."""
        return sorted(self.deferred.values(), key=lambda root: root.order)

    @property
    def conflict_groups(self) -> Dict[Point, ConflictGroup]:
        """The open conflicts by group id, built on the first read after
        the step that left them and kept until the next one."""
        if self._groups is None:
            self._groups = self._grouping()
        return self._groups

    def open_conflicts(self) -> List[ConflictGroup]:
        """The current conflict groups, in a stable order."""
        return [
            self.conflict_groups[group_id]
            for group_id in sorted(self.conflict_groups, key=repr)
        ]

    # ------------------------------------------------------------------
    # Mutation (used by the engine and by conflict resolution)

    def record_applied(self, tids) -> None:
        """Mark transactions as applied.

        Applied is the strongest verdict: the transaction's effects are in
        the instance, so it leaves the deferred set, and a rejection
        recorded for it *as a root proposal* is superseded (its updates
        live on inside a longer accepted chain).  Its graph entry goes
        too: closure walks stop at ``applied``, so nothing reads it again.
        """
        before = len(self.applied)
        for tid in tids:
            self.applied.add(tid)
            self.deferred.pop(tid, None)
            self.rejected.discard(tid)
            self.graph.discard(tid)
        if len(self.applied) != before:
            self.applied_version += 1

    def record_rejected(self, tids) -> None:
        """Mark transactions as rejected; they leave the deferred set."""
        for tid in tids:
            self.rejected.add(tid)
            self.deferred.pop(tid, None)

    def record_deferred(self, root: RelevantTransaction) -> None:
        """Park a root transaction for later resolution (one already
        parked keeps its place)."""
        self.deferred[root.tid] = root

    def replace_soft_state(
        self,
        dirty_keys: Set[QualifiedKey],
        grouping: Callable[[], Dict[Point, ConflictGroup]],
    ) -> None:
        """The paper's ``UpdateSoftState``: rebuild dirty values; the
        groups are ``grouping()``, called when ``conflict_groups`` is
        next read."""
        self.dirty_keys = set(dirty_keys)
        self._grouping = grouping
        self._groups = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParticipantState(p{self.participant}, "
            f"applied={len(self.applied)}, rejected={len(self.rejected)}, "
            f"deferred={len(self.deferred)}, dirty={len(self.dirty_keys)})"
        )
