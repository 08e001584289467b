"""The reconciliation semantics and algorithms — the paper's contribution.

* :mod:`repro.core.decisions` — accept / reject / defer decisions and the
  result record of one reconciliation;
* :mod:`repro.core.extensions` — antecedents, transaction extensions
  ``te_i|e(X)`` and flattened update extensions (Definitions 3-4);
* :mod:`repro.core.conflicts` — hash-based direct-conflict detection
  between update extensions, conflict groups, and options;
* :mod:`repro.core.cache` — the incremental extension cache keyed by
  applied-set versions and the confederation-shared conflict graph (the
  reconciliation hot path);
* :mod:`repro.core.state` — the reconciling participant's persistent
  bookkeeping (applied / rejected / deferred sets, dirty values);
* :mod:`repro.core.engine` — the client-centric ``ReconcileUpdates``
  algorithm of Figures 4-5;
* :mod:`repro.core.session` — the transport-agnostic reconciliation
  session wrapping the engine (consumes batches, produces decisions;
  zero store/network knowledge);
* :mod:`repro.core.appendonly` — the simpler append-only reconciliation of
  Definition 2;
* :mod:`repro.core.resolution` — user-driven conflict resolution.
"""

from repro.core.appendonly import reconcile_append_only
from repro.core.cache import CacheStats, ConflictGraph, ExtensionCache
from repro.core.conflicts import (
    ConflictAnalysis,
    ConflictGroup,
    Option,
    classify_conflict,
)
from repro.core.decisions import Decision, ReconcileResult
from repro.core.engine import Reconciler
from repro.core.extensions import (
    ReconciliationBatch,
    RelevantTransaction,
    TransactionGraph,
)
from repro.core.resolution import Resolution, resolve_conflicts
from repro.core.session import ReconcileSession, SessionOutcome
from repro.core.state import ParticipantState

__all__ = [
    "CacheStats",
    "ConflictAnalysis",
    "ConflictGraph",
    "ConflictGroup",
    "Decision",
    "ExtensionCache",
    "Option",
    "ParticipantState",
    "ReconcileResult",
    "ReconcileSession",
    "Reconciler",
    "ReconciliationBatch",
    "RelevantTransaction",
    "Resolution",
    "SessionOutcome",
    "TransactionGraph",
    "classify_conflict",
    "reconcile_append_only",
    "resolve_conflicts",
]
