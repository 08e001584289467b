"""User-driven conflict resolution (Sections 4.2 and 5.1).

Once transactions have been deferred into conflict groups, a user resolves
a group by selecting at most one :class:`~repro.core.conflicts.Option`.
Per the paper: "the user specifies some number of transactions to remove
from the deferred set and reject.  The remaining transactions are removed
from the deferred set and treated as recently published transactions, and
the reconciliation solution is re-run to apply those that no longer
conflict."

:func:`resolve_conflicts` performs exactly that: it marks the losing
options' transactions as rejected — *except* transactions that are members
of a chosen transaction's extension, which must stay acceptable or the
winner itself would become rejectable — and then re-runs
``ReconcileUpdates`` with an empty batch so the surviving deferred
transactions are reconsidered immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

from repro.errors import ResolutionError
from repro.model.transactions import TransactionId
from repro.model.tuples import QualifiedKey

from repro.core.decisions import ReconcileResult
from repro.core.engine import Reconciler
from repro.core.extensions import ReconciliationBatch


@dataclass(frozen=True)
class Resolution:
    """One user decision: for conflict group ``group_id``, accept the
    option at ``chosen_option`` (or reject every option with ``None``)."""

    group_id: Tuple[str, QualifiedKey]
    chosen_option: Optional[int]


def resolve_conflicts(
    reconciler: Reconciler,
    resolutions: Sequence[Resolution],
    recno: Optional[int] = None,
) -> ReconcileResult:
    """Resolve conflict groups and re-run reconciliation.

    Raises :class:`ResolutionError` if a resolution references an unknown
    group or option index.  Returns the result of the follow-up
    ``ReconcileUpdates`` run (which carries the newly accepted and rejected
    transactions).
    """
    state = reconciler.state
    to_reject: Set[TransactionId] = set()
    keep: Set[TransactionId] = set()

    for resolution in resolutions:
        group = state.conflict_groups.get(resolution.group_id)
        if group is None:
            raise ResolutionError(
                f"unknown conflict group {resolution.group_id!r}"
            )
        if resolution.chosen_option is not None and not (
            0 <= resolution.chosen_option < len(group.options)
        ):
            raise ResolutionError(
                f"conflict group {resolution.group_id!r} has no option "
                f"{resolution.chosen_option}"
            )
        for index, option in enumerate(group.options):
            if index == resolution.chosen_option:
                keep.update(option.transactions)
                # The winners' antecedents must stay acceptable too.
                for tid in option.transactions:
                    if tid in state.deferred:
                        keep.update(state.graph.extension(tid, state.applied))
            else:
                to_reject.update(option.transactions)

    to_reject -= keep
    state.record_rejected(to_reject)

    # Re-run reconciliation with no new transactions: the remaining
    # deferred transactions are reconsidered, and those whose conflicts
    # are resolved get accepted (or rejected, if they depended on a loser).
    batch = ReconciliationBatch(
        recno=state.last_recno if recno is None else recno
    )
    result = reconciler.reconcile(batch)
    # The user's explicit rejections are decisions too; surface them so
    # callers (e.g. Participant.resolve) can report them to the store.
    for tid in sorted(to_reject):
        if tid not in result.rejected:
            result.rejected.append(tid)
    return result

