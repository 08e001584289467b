"""Decision values and the result record of one reconciliation run."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.model.transactions import TransactionId

from repro.core.cache import CacheStats


class Decision(enum.Enum):
    """The verdict ``ReconcileUpdates`` reaches for one root transaction."""

    ACCEPT = "accept"
    REJECT = "reject"
    DEFER = "defer"

    def __str__(self) -> str:
        return self.value


@dataclass
class ReconcileResult:
    """Everything one call to :meth:`Reconciler.reconcile` decided.

    ``accepted`` / ``rejected`` / ``deferred`` list the *root* transactions
    by decision; ``applied`` lists every transaction whose effects reached
    the instance (roots plus antecedents applied through extensions);
    ``updates_applied`` counts individual updates written to the instance
    (the open conflicts after the run are the participant state's
    ``conflict_groups``); ``cache_stats`` is the extension/conflict-cache
    counter delta for this run (always populated by the engine; None
    only on results that never went through
    :meth:`Reconciler.reconcile`).
    """

    recno: int
    accepted: List[TransactionId] = field(default_factory=list)
    rejected: List[TransactionId] = field(default_factory=list)
    deferred: List[TransactionId] = field(default_factory=list)
    applied: List[TransactionId] = field(default_factory=list)
    updates_applied: int = 0
    decisions: Dict[TransactionId, Decision] = field(default_factory=dict)
    cache_stats: Optional[CacheStats] = None

    @property
    def decided(self) -> int:
        """Number of root transactions that got a final accept/reject."""
        return len(self.accepted) + len(self.rejected)

    def summary(self) -> str:
        """One-line human-readable summary, used by the examples."""
        return (
            f"recno={self.recno} accepted={len(self.accepted)} "
            f"rejected={len(self.rejected)} deferred={len(self.deferred)} "
            f"updates_applied={self.updates_applied}"
        )
