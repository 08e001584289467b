"""repro — a reproduction of Taylor & Ives, "Reconciling while Tolerating
Disagreement in Collaborative Data Sharing" (SIGMOD 2006).

The package implements the Orchestra collaborative data sharing system
(CDSS) described in the paper: keyed relational instances, value-based
updates grouped into transactions, trust policies, the client-centric
reconciliation algorithm with deferral and conflict resolution, a central
(sqlite-backed) update store, a simulated DHT-based distributed update
store, the paper's synthetic SWISS-PROT workload generator, and the state
ratio / timing metrics of the evaluation section.

The public API is the **unified confederation layer** (:mod:`repro.confed`):

* :class:`ConfederationConfig` — declarative, dict-round-trippable
  configuration naming the store backend, peers,
  trust policies, workload, and engine knobs in one place;
* :class:`Confederation` — the facade built from it: participant
  lifecycle (``open``/``close``, context-manager support),
  ``snapshot``/``restore`` soft-state reconstruction, the evaluation
  schedule, and metric reports;
* the **store registry** (:mod:`repro.store.registry`) — backends
  selected by name (``memory``, ``central``, ``durable``, ``dht``);
  :func:`register_store` adds new backends without engine changes;
* the **event hook bus** (:class:`HookBus`) — ``on_publish``,
  ``on_epoch_start``, ``on_decision``, ``on_conflict``,
  ``on_cache_stats``, ``on_reconcile``; the timing and cache metrics
  are ordinary subscribers (:mod:`repro.metrics.subscribers`).

See ``examples/quickstart.py`` for a complete runnable tour.
"""

from repro.errors import (
    ConfigError,
    ConstraintViolation,
    FaultError,
    FlattenError,
    NetworkError,
    PolicyError,
    ReconciliationError,
    ReproError,
    ResolutionError,
    RetryExhaustedError,
    SchedulerError,
    SchemaError,
    StoreError,
    UnknownTransactionError,
    UpdateError,
    WorkloadError,
)
from repro.model import (
    AttributeDef,
    Delete,
    ForeignKey,
    Insert,
    Modify,
    RelationSchema,
    Schema,
    Transaction,
    TransactionId,
    Update,
    flatten,
    flatten_transactions,
    make_transaction,
    updates_conflict,
)

from repro.cdss import Participant
from repro.confed import (
    Confederation,
    ConfederationConfig,
    ConfederationReport,
    FaultController,
    HookBus,
    ParticipantSnapshot,
    SerialScheduler,
)
from repro.core import (
    Decision,
    ParticipantState,
    ReconcileResult,
    ReconcileSession,
    Reconciler,
    Resolution,
    resolve_conflicts,
)
from repro.instance import Instance
from repro.metrics import state_ratio
from repro.net import FaultPlan, HostCrash, MessageFault, ParticipantRestart
from repro.policy import (
    AcceptanceRule,
    TrustPolicy,
    always,
    attribute_equals,
    origin_is,
    policy_from_priorities,
)
from repro.store import (
    CentralUpdateStore,
    DhtUpdateStore,
    DurableUpdateStore,
    MemoryUpdateStore,
    UpdateStore,
    available_stores,
    create_store,
    register_store,
)
from repro.workload import (
    WorkloadConfig,
    WorkloadGenerator,
    curated_schema,
)

__version__ = "2.0.0"

__all__ = [
    "AcceptanceRule",
    "CentralUpdateStore",
    "Confederation",
    "ConfederationConfig",
    "ConfederationReport",
    "Decision",
    "DhtUpdateStore",
    "DurableUpdateStore",
    "FaultController",
    "FaultPlan",
    "HookBus",
    "HostCrash",
    "Instance",
    "MemoryUpdateStore",
    "MessageFault",
    "Participant",
    "ParticipantRestart",
    "ParticipantSnapshot",
    "ParticipantState",
    "ReconcileResult",
    "ReconcileSession",
    "Reconciler",
    "Resolution",
    "SerialScheduler",
    "TrustPolicy",
    "UpdateStore",
    "WorkloadConfig",
    "WorkloadGenerator",
    "always",
    "attribute_equals",
    "available_stores",
    "create_store",
    "curated_schema",
    "origin_is",
    "policy_from_priorities",
    "register_store",
    "resolve_conflicts",
    "state_ratio",
    "AttributeDef",
    "ConfigError",
    "ConstraintViolation",
    "Delete",
    "FaultError",
    "FlattenError",
    "ForeignKey",
    "Insert",
    "Modify",
    "NetworkError",
    "PolicyError",
    "ReconciliationError",
    "RelationSchema",
    "ReproError",
    "ResolutionError",
    "RetryExhaustedError",
    "Schema",
    "SchedulerError",
    "SchemaError",
    "StoreError",
    "Transaction",
    "TransactionId",
    "UnknownTransactionError",
    "Update",
    "UpdateError",
    "WorkloadError",
    "flatten",
    "flatten_transactions",
    "make_transaction",
    "updates_conflict",
]
