"""API-surface snapshot: ``repro.__all__`` and the driver registry.

A name disappearing from (or silently joining) the public surface is an
API change and must show up in review as an edit to this file.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.cdss
from repro.confed.hooks import EVENTS
from repro.errors import ConfigError
from repro.store import available_stores

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
    "UpdateStore",
    "available_stores",
    "create_store",
    "register_store",
    # Instances
    "Instance",
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


@pytest.mark.parametrize(
    "module", ["repro.bench", "repro.bench.ablations", "repro.bench.figures", "repro.bench.tables"]
)
def test_the_benchmark_harness_is_not_in_the_library(module):
    # The figure rows, tables and ablation baselines live in
    # ``benchmarks/bench``, beside the benchmarks that use them.
    with pytest.raises(ImportError):
        importlib.import_module(module)


def test_threaded_scheduler_stays_deleted():
    # One concurrency model: the thread-pool scheduler is gone, not
    # shimmed — the name and the mode alike.
    from repro.confed import SCHEDULE_MODES, ConfederationConfig
    from repro.errors import ConfigError

    with pytest.raises(ImportError):
        from repro import ThreadedScheduler  # noqa: F401
    with pytest.raises(ImportError):
        from repro.confed import ThreadedScheduler  # noqa: F401, F811
    assert SCHEDULE_MODES == ("serial", "async")
    with pytest.raises(ConfigError, match="unknown schedule mode 'threaded'"):
        ConfederationConfig(schedule_mode="threaded").validate()


def test_nothing_in_the_package_imports_threading():
    # One thread drives a confederation and nothing starts another, so
    # no module needs a lock, a thread, a pool, a process or an event
    # loop: the async schedule is a deadline loop on the caller's thread.
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
            if any(name.split(".")[0] in {
                "threading", "_thread", "concurrent", "asyncio", "multiprocessing",
            } for name in names):
                importers.add(path.relative_to(root).as_posix())
    assert importers == set()


def test_an_async_run_leaves_asyncio_unimported():
    # A fresh interpreter: opening and running an async confederation
    # (real latency, so the deadline loop really waits) never loads the
    # event-loop machinery, even indirectly.
    script = (
        "import sys\n"
        "from repro.confed import Confederation, ConfederationConfig\n"
        "config = ConfederationConfig(peers=(1, 2, 3), rounds=2,\n"
        "    reconciliation_interval=2, final_reconcile=True,\n"
        "    schedule_mode='async',\n"
        "    store_options={'message_latency': 0.001, 'real_latency': True})\n"
        "with Confederation(config) as confed:\n"
        "    report = confed.run()\n"
        "assert report.scheduler == 'async' and report.transactions_published\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'asyncio'))\n"
    )
    src = pathlib.Path(repro.__file__).parent.parent
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.analysis.runtime",
        "from repro.analysis import LockDisciplineError",
        "from repro.analysis import lock_discipline",
        "from repro.analysis import InstrumentedRLock",
        "from repro.analysis import StoreInstrumentation",
        "from repro.analysis import instrument_store",
    ],
)
def test_the_runtime_lock_checker_is_gone(statement):
    # The store phase is ``Participant._store_call``, checked statically
    # by RPR004; the owner-asserting proxies are deleted, not aliased.
    with pytest.raises(ImportError):
        exec(statement, {})


@pytest.mark.parametrize("name", sorted(available_stores()))
def test_a_store_has_no_lock(name, schema):
    from repro.store.registry import create_store

    store = create_store(name, schema)
    assert not hasattr(store, "lock")
    getattr(store, "close", lambda: None)()


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
    from repro.instance import Instance
    from repro.workload import curated_schema

    schema = curated_schema()
    with pytest.raises(TypeError):
        ExtensionCache(enabled=False)
    with pytest.raises(TypeError):
        IncrementalConflictIndex(enabled=False)
    assert not hasattr(IncrementalConflictIndex, "clear")
    with pytest.raises(TypeError):
        Reconciler(schema, Instance(schema), ParticipantState(1), cache=ExtensionCache())
    with pytest.raises(TypeError):
        Participant(1, MemoryUpdateStore(schema), TrustPolicy(), engine_caching=False)
    with pytest.raises(ConfigError, match="engine_caching"):
        ConfederationConfig.from_dict({"peers": [1, 2], "engine_caching": True})


@pytest.mark.parametrize(
    "module, name",
    [
        ("repro", "StoreCapabilities"),
        ("repro", "store_capabilities"),
        ("repro.store", "StoreCapabilities"),
        ("repro.store", "StoreDriver"),
        ("repro.store", "store_capabilities"),
        ("repro.store", "store_driver"),
        ("repro.store.registry", "StoreCapabilities"),
        ("repro.store.registry", "StoreDriver"),
        ("repro.store.registry", "store_capabilities"),
        ("repro.store.registry", "store_driver"),
    ],
)
def test_the_store_capability_record_is_gone(module, name):
    # The engine routes on what a batch carries; no flag record is left
    # to declare, look up or import.
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


@pytest.mark.parametrize("module", ["repro", "repro.confed", "repro.confed.scheduler"])
@pytest.mark.parametrize(
    "name",
    ["EpochScheduler", "SerialScheduler", "AsyncScheduler", "create_scheduler", "SCHEDULERS"],
)
def test_the_scheduler_classes_are_gone(module, name):
    # Serial and async are two groupings of one round plan, run by the
    # scheduler module's one loop: no class per mode, no base class, no
    # registry beside SCHEDULE_MODES.
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


def test_the_retired_knobs_are_refused():
    # Four options nothing set to a second value are constants now:
    # the keywords are gone, not ignored, and a config file that still
    # names one is refused like any typo.
    from repro import ConfederationConfig, ConfigError, MemoryUpdateStore
    from repro.core.extensions import ReconciliationBatch
    from repro.net import AsyncLatencyClock, Network
    from repro.store import CentralUpdateStore, register_store
    from repro.workload import curated_schema

    with pytest.raises(TypeError):
        register_store("capable", MemoryUpdateStore, capabilities=None)
    with pytest.raises(TypeError):
        ReconciliationBatch(recno=0, capabilities=None)
    with pytest.raises(TypeError):
        AsyncLatencyClock(workers=2)
    with pytest.raises(TypeError):
        Network(drop_to_failed=True)
    with pytest.raises(TypeError):
        CentralUpdateStore(curated_schema(), call_overhead_seconds=0.5)
    for knob in ("schedule_workers", "trust_priority"):
        with pytest.raises(TypeError):
            ConfederationConfig(**{knob: 2})
        with pytest.raises(ConfigError, match=knob):
            ConfederationConfig.from_dict({"peers": [1, 2], knob: 2})


@pytest.mark.parametrize(
    "statement",
    [
        "from repro import MemoryInstance",
        "from repro import SqliteInstance",
        "from repro.instance import MemoryInstance",
        "from repro.instance import SqliteInstance",
        "from repro.confed import INSTANCE_BACKENDS",
        "import repro.instance.memory",
        "import repro.instance.sqlite_instance",
    ],
)
def test_the_second_instance_backend_is_gone(statement):
    # A participant has one local replica, ``Instance``: the sqlite
    # variant and the name of the dict one are deleted, not aliased.
    with pytest.raises(ImportError):
        exec(statement, {})


def _replica_knobs():
    """Each way a caller could once choose a participant's replica, as
    a call that must now be refused."""
    from repro import (
        Confederation,
        ConfederationConfig,
        Instance,
        MemoryUpdateStore,
        Participant,
        TrustPolicy,
    )
    from repro.workload import curated_schema

    schema = curated_schema()

    def on_the_facade(call):
        with Confederation(ConfederationConfig(peers=(1,)), schema=schema) as confed:
            try:
                call(confed)
            finally:
                assert type(confed.participant(1).instance) is Instance

    return {
        "config field": lambda: ConfederationConfig(instance_backend="memory"),
        "config dict": lambda: ConfederationConfig.from_dict({"instance_backend": "memory"}),
        "participant": lambda: Participant(
            1, MemoryUpdateStore(schema), TrustPolicy(), instance=Instance(schema)
        ),
        "rebuild": lambda: Participant.rebuild(
            1, MemoryUpdateStore(schema), TrustPolicy(), instance=Instance(schema)
        ),
        "add_participant": lambda: on_the_facade(
            lambda confed: confed.add_participant(2, TrustPolicy(), instance=Instance(schema))
        ),
        "restore": lambda: on_the_facade(
            lambda confed: confed.restore(1, instance=Instance(schema))
        ),
    }


@pytest.mark.parametrize(
    "knob, refusal",
    [
        ("config field", TypeError),
        ("config dict", ConfigError),
        ("participant", TypeError),
        ("rebuild", TypeError),
        ("add_participant", TypeError),
        ("restore", TypeError),
    ],
)
def test_the_replica_takes_no_knob(knob, refusal):
    # Nothing chooses a participant's replica: no config field, and no
    # ``instance=`` on the participant, its rebuild, or the facade.
    with pytest.raises(refusal, match="instance"):
        _replica_knobs()[knob]()


@pytest.mark.parametrize("build", ["__init__", "rebuild"])
def test_a_participant_takes_its_options_by_keyword(build):
    # A replica passed where ``instance`` used to stand is refused, not
    # read as ``network_centric``.
    from repro import Instance, MemoryUpdateStore, Participant, TrustPolicy
    from repro.workload import curated_schema

    schema = curated_schema()
    make = Participant if build == "__init__" else Participant.rebuild
    with pytest.raises(TypeError, match="positional"):
        make(1, MemoryUpdateStore(schema), TrustPolicy(), Instance(schema))


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


def test_publication_error_is_gone():
    # Nothing raised it: stores refuse a reused epoch or id with a
    # ``StoreError``.
    import repro.errors

    assert not hasattr(repro.errors, "PublicationError")
    with pytest.raises(ImportError):
        exec("from repro import PublicationError", {})


def test_the_hand_written_dict_forms_are_gone():
    # The config's dict form is read off the records' fields in one
    # place: the fault plan round-trips as part of a config, and no
    # analyzer rule is left to hold hand-written key lists to fields.
    from repro.analysis import RULES_BY_CODE
    from repro.net import FaultPlan

    for gone in ("to_dict", "from_dict"):
        assert not hasattr(FaultPlan, gone), gone
    assert "RPR008" not in RULES_BY_CODE


def test_keys_read_is_gone():
    # Only tests read it, yet every trace built a frozenset for it:
    # flatten yields its operations and the keys it touches.
    import importlib

    from repro.model.flatten import FlattenResult

    assert not hasattr(importlib.import_module("repro.model"), "keys_read")
    assert not hasattr(importlib.import_module("repro.model.flatten"), "keys_read")
    assert "keys_read" not in FlattenResult.__dataclass_fields__
    with pytest.raises(ImportError):
        exec("from repro.model import keys_read", {})
