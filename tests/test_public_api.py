"""API-surface snapshot: ``repro.__all__`` and the driver registry.

A name disappearing from (or silently joining) the public surface is an
API change and must show up in review as an edit to this file.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import repro
import repro.cdss
from repro.confed.hooks import EVENTS
from repro.store import available_stores, store_capabilities

EXPECTED_ALL = {
    # Confederation layer
    "Confederation",
    "ConfederationConfig",
    "ConfederationReport",
    "HookBus",
    "ParticipantSnapshot",
    # Participants, the engine, and the session/scheduler layers (PR 3)
    "Decision",
    "Participant",
    "ParticipantState",
    "ReconcileResult",
    "ReconcileSession",
    "Reconciler",
    "Resolution",
    "SerialScheduler",
    "resolve_conflicts",
    # Fault tolerance (PR 6)
    "FaultController",
    "FaultPlan",
    "HostCrash",
    "MessageFault",
    "ParticipantRestart",
    # Stores and the driver registry
    "CentralUpdateStore",
    "DhtUpdateStore",
    "DurableUpdateStore",
    "MemoryUpdateStore",
    "StoreCapabilities",
    "UpdateStore",
    "available_stores",
    "create_store",
    "register_store",
    "store_capabilities",
    # Instances
    "Instance",
    "MemoryInstance",
    "SqliteInstance",
    # Policies
    "AcceptanceRule",
    "TrustPolicy",
    "always",
    "attribute_equals",
    "origin_is",
    "policy_from_priorities",
    # Workload and metrics
    "WorkloadConfig",
    "WorkloadGenerator",
    "curated_schema",
    "state_ratio",
    # Model
    "AttributeDef",
    "Delete",
    "ForeignKey",
    "Insert",
    "Modify",
    "RelationSchema",
    "Schema",
    "Transaction",
    "TransactionId",
    "Update",
    "flatten",
    "flatten_transactions",
    "make_transaction",
    "updates_conflict",
    # Errors
    "ConfigError",
    "ConstraintViolation",
    "FaultError",
    "FlattenError",
    "NetworkError",
    "PolicyError",
    "PublicationError",
    "ReconciliationError",
    "ReproError",
    "ResolutionError",
    "RetryExhaustedError",
    "SchedulerError",
    "SchemaError",
    "StoreError",
    "UnknownTransactionError",
    "UpdateError",
    "WorkloadError",
}


def test_public_all_is_exactly_the_snapshot():
    assert set(repro.__all__) == EXPECTED_ALL


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize("module", ["repro.cdss.system", "repro.cdss.simulation"])
def test_deleted_entry_points_stay_deleted(module):
    # CDSS / Simulation / SimulationConfig / SimulationReport are gone,
    # not shimmed: Confederation is the one way in.
    with pytest.raises(ImportError):
        importlib.import_module(module)
    assert repro.cdss.__all__ == ["Participant", "ReconcileTiming"]


def test_threaded_scheduler_stays_deleted():
    # One concurrency model: the thread-pool scheduler is gone, not
    # shimmed — the name, the mode and the registry entry alike.
    from repro.confed import SCHEDULE_MODES, ConfederationConfig
    from repro.confed.scheduler import SCHEDULERS
    from repro.errors import ConfigError

    with pytest.raises(ImportError):
        from repro import ThreadedScheduler  # noqa: F401
    with pytest.raises(ImportError):
        from repro.confed import ThreadedScheduler  # noqa: F401, F811
    assert SCHEDULE_MODES == ("serial", "async") and set(SCHEDULERS) == {"serial", "async"}
    with pytest.raises(ConfigError, match="unknown schedule mode 'threaded'"):
        ConfederationConfig(schedule_mode="threaded").validate()


def test_only_the_store_lock_and_its_checker_import_threading():
    # Nothing in the package starts a thread, so only the store's
    # reentrant lock and the runtime checker that tracks its owner
    # need the threading module; no thread pool comes back.
    root = pathlib.Path(repro.__file__).parent
    importers = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in {"threading", "_thread", "concurrent"}
                   for name in names):
                importers.add(path.relative_to(root).as_posix())
    assert importers == {"store/base.py", "analysis/runtime.py"}


def test_conflict_detection_has_one_scanner_and_one_memo():
    # PR 21: ``find_conflicts`` is a fresh index, read — it takes no
    # memo.  PR 22: the confederation-shared memo is the
    # ``ConflictGraph`` — edges on the extension objects — and it
    # *replaced* ``ConflictCache``; the index neither is nor keeps one.
    from repro.core import ConflictGraph, TransactionGraph
    from repro.core.conflicts import IncrementalConflictIndex, find_conflicts

    with pytest.raises(ImportError):
        from repro.core import ConflictCache  # noqa: F401
    with pytest.raises(ImportError):
        from repro.core.cache import PairKey  # noqa: F401
    with pytest.raises(TypeError):
        find_conflicts(None, TransactionGraph(), {}, cache=ConflictGraph())
    with pytest.raises(TypeError):
        ConflictGraph(enabled=False)
    assert ConflictGraph(limit=4).limit == 4
    public = {name for name in vars(ConflictGraph) if not name.startswith("_")}
    assert public == {"derived", "intern", "link", "discard"}
    for gone in ("lookup", "store", "pair_key"):
        assert not hasattr(IncrementalConflictIndex, gone), gone


def test_names_the_withholding_pr_retired_stay_retired():
    # PR 23: a deferred root is parked as itself — the ``DeferredEntry``
    # wrapper and its never-read ``recno`` are gone, and with them
    # ``record_deferred``'s second argument; ``validate_row`` tests the
    # typed attributes inline, so ``AttributeDef.accepts`` had no caller.
    import repro.core.state as state_module
    from repro.core import ParticipantState
    from repro.model import AttributeDef

    assert not hasattr(state_module, "DeferredEntry")
    assert not hasattr(AttributeDef, "accepts")
    with pytest.raises(TypeError):
        ParticipantState(1).record_deferred(None, 0)


def test_the_session_wraps_the_kernel_without_exposing_it():
    # ``ReconcileSession.reconciler`` and ``.state`` had no reader: the
    # participant holds the kernel and its state itself.
    from repro.core import ReconcileSession

    for gone in ("reconciler", "state"):
        assert not hasattr(ReconcileSession, gone), gone


def test_the_engine_has_one_mode():
    # The uncached mode is deleted, not defaulted: neither cache takes a
    # switch, the kernel builds its own cache, a participant has no knob,
    # and a config file that still names it is refused like any typo.
    from repro import ConfederationConfig, ConfigError, MemoryUpdateStore, TrustPolicy
    from repro.cdss import Participant
    from repro.core import ParticipantState, Reconciler
    from repro.core.cache import ExtensionCache
    from repro.core.conflicts import IncrementalConflictIndex
    from repro.instance import MemoryInstance
    from repro.workload import curated_schema

    schema = curated_schema()
    with pytest.raises(TypeError):
        ExtensionCache(enabled=False)
    with pytest.raises(TypeError):
        IncrementalConflictIndex(enabled=False)
    assert not hasattr(IncrementalConflictIndex, "clear")
    with pytest.raises(TypeError):
        Reconciler(schema, MemoryInstance(schema), ParticipantState(1), cache=ExtensionCache())
    with pytest.raises(TypeError):
        Participant(1, MemoryUpdateStore(schema), TrustPolicy(), engine_caching=False)
    with pytest.raises(ConfigError, match="engine_caching"):
        ConfederationConfig.from_dict({"peers": [1, 2], "engine_caching": True})


def test_analyzer_rules_are_records_not_subclasses():
    # A lint rule is a row of ``RULES``: ``Rule`` is a frozen record of
    # five fields with no ``finding`` helper (the engine anchors
    # findings), and the ten per-rule subclasses are gone, not shimmed.
    import dataclasses

    import repro.analysis.rules as rules_module
    from repro.analysis import RULES_BY_CODE, ModuleContext, Rule

    fields = [field.name for field in dataclasses.fields(Rule)]
    assert fields == ["code", "name", "summary", "applies", "check"]
    assert not hasattr(Rule, "finding")
    assert not hasattr(ModuleContext, "filename")
    assert all(type(rule) is Rule for rule in RULES_BY_CODE.values())
    for gone in (
        "StoreTypeCheckRule",
        "UnseededRandomRule",
        "WallClockRule",
        "DirectStoreCallRule",
        "HookEventRule",
        "MemoMutationRule",
        "SetIterationRule",
        "DictRoundTripRule",
        "KindsRegistryRule",
        "BlockingSleepRule",
    ):
        assert not hasattr(rules_module, gone), gone


def test_builtin_registry_contents():
    assert available_stores() == ["central", "dht", "durable", "memory"]


def test_registry_capability_snapshot():
    assert store_capabilities("memory").as_dict() == {
        "ships_context_free": True,
        "shared_pair_memo": True,
        "durable": False,
        "network_centric_batches": True,
    }
    assert store_capabilities("central").as_dict() == {
        "ships_context_free": True,
        "shared_pair_memo": True,
        "durable": True,
        "network_centric_batches": True,
    }
    # PR 5: the DHT assembles fully network-centric batches over the
    # ring — every built-in backend now serves Figure 3's store-computed
    # column.
    assert store_capabilities("dht").as_dict() == {
        "ships_context_free": True,
        "shared_pair_memo": True,
        "durable": False,
        "network_centric_batches": True,
    }
    # PR 9: the honest persistent backend — full history on a database
    # file, bounded resident memory, crash recovery.
    assert store_capabilities("durable").as_dict() == {
        "ships_context_free": True,
        "shared_pair_memo": True,
        "durable": True,
        "network_centric_batches": True,
    }


def test_hook_event_names_are_stable():
    assert EVENTS == (
        "publish",
        "epoch_start",
        "decision",
        "conflict",
        "cache_stats",
        "reconcile",
        "epoch_end",
        "fault",
        "retry",
        "degraded",
        "recovery",
    )
