"""The dynamic checker half: runtime store-phase-discipline instrumentation.

Three layers again:

* **unit** — the owner-tracking lock shim and the guarded container
  proxies raise :class:`LockDisciplineError` deterministically on any
  access outside a store phase, and instrumentation is fully reversible;
* **detection** — a deliberately introduced bypass is caught: raw under
  the serial scheduler, wrapped in
  :class:`~repro.errors.SchedulerError` when an async task trips it;
* **transparency** — a fully instrumented confederation run (including
  the async chaos matrix with a maskable fault plan) completes clean
  with a decision stream byte-identical to the uninstrumented run.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.runtime import (
    InstrumentedRLock,
    LockDisciplineError,
    instrument_store,
    lock_discipline,
)
from repro.cdss.participant import Participant
from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.errors import SchedulerError
from repro.net import FaultPlan, HostCrash, MessageFault, ParticipantRestart
from repro.store.memory import MemoryUpdateStore
from repro.workload import WorkloadConfig
from tests.conftest import decision_stream

# ----------------------------------------------------------------------
# Unit: the lock shim and the proxies


def test_instrumented_lock_tracks_owner_and_reentrancy():
    lock = InstrumentedRLock(threading.RLock())
    assert not lock.held()
    with lock:
        assert lock.held()
        with lock:  # reentrant: depth bookkeeping survives nesting
            assert lock.held()
        assert lock.held()
    assert not lock.held()


def test_instrumented_lock_ownership_is_per_thread():
    lock = InstrumentedRLock(threading.RLock())
    observed = []
    with lock:
        worker = threading.Thread(target=lambda: observed.append(lock.held()))
        worker.start()
        worker.join()
    assert observed == [False]  # another thread's hold is not ours


def test_guarded_containers_raise_without_the_lock(schema):
    store = MemoryUpdateStore(schema)
    handle = instrument_store(store)
    try:
        # Every plain container on the store got wrapped.
        assert "_log" in handle.wrapped
        assert "_participants" in handle.wrapped
        with pytest.raises(LockDisciplineError, match="_log"):
            len(store._log)
        with pytest.raises(LockDisciplineError):
            store._participants[1] = None
        with pytest.raises(LockDisciplineError):
            list(store._by_epoch)
        # The same operations are fine with the lock held.
        with store.lock:
            assert len(store._log) == 0
            assert list(store._by_epoch) == []
    finally:
        handle.restore()


def test_instrumentation_is_reversible(schema):
    store = MemoryUpdateStore(schema)
    original_lock = store.lock
    with lock_discipline(store) as handle:
        assert store.lock is handle.lock
        assert type(store._log) is not dict
    # After the block: raw containers and the original lock are back.
    assert store.lock is original_lock
    assert type(store._log) is dict
    len(store._log)  # no proxy, no assertion


def test_skip_leaves_named_attributes_unwrapped(schema):
    store = MemoryUpdateStore(schema)
    with lock_discipline(store, skip=("_log",)) as handle:
        assert "_log" not in handle.wrapped
        len(store._log)  # untouched: plain dict


# ----------------------------------------------------------------------
# Confederation runs (the chaos-suite harness, instrumented)

CHAOS_SEED = 23
DHT_K2 = {"hosts": 5, "replication_factor": 2}


def maskable_plan(seed):
    """The chaos suite's maskable everything-at-once plan."""
    return FaultPlan(
        seed=seed,
        crashes=(HostCrash("host:2", at_epoch=5, recover_at_epoch=10),),
        messages=(
            MessageFault("txn_stored", "drop", probability=0.2, times=4),
            MessageFault("begin_publishing", "duplicate", probability=0.5, times=3),
        ),
        restarts=(ParticipantRestart(participant=3, at_epoch=8),),
    )


def run_confederation(
    store,
    store_options,
    seed,
    instrument=False,
    faults=None,
    schedule_mode="serial",
):
    """The chaos suite's seeded schedule, optionally under the proxies."""
    config = ConfederationConfig(
        store=store,
        store_options=store_options,
        peers=(1, 2, 3, 4, 5),
        reconciliation_interval=3,
        rounds=3,
        final_reconcile=True,
        schedule_mode=schedule_mode,
        workload=WorkloadConfig(transaction_size=2, seed=seed),
        faults=faults,
    )
    hooks = HookBus()
    log = decision_stream(hooks)
    with Confederation(config, hooks=hooks) as confed:
        if instrument:
            with lock_discipline(confed.store) as handle:
                assert handle.wrapped  # something is actually guarded
                report = confed.run()
        else:
            report = confed.run()
        snapshots = {p.id: p.instance.snapshot() for p in confed.participants}
    return log, snapshots, report


def test_instrumented_serial_run_is_clean_and_identical():
    """Every store access in a full serial run holds the lock, and the
    proxies perturb nothing: decisions and instances are byte-identical
    to the uninstrumented run."""
    plain = run_confederation("memory", {}, CHAOS_SEED)
    guarded = run_confederation("memory", {}, CHAOS_SEED, instrument=True)
    assert guarded[0] == plain[0]
    assert guarded[1] == plain[1]
    assert guarded[2].state_ratio == plain[2].state_ratio


@pytest.mark.parametrize("store", ["memory", "central", "durable"])
def test_shared_memo_is_guarded_from_birth(store):
    """Instrumenting a direct-log store *before its first
    reconciliation* guards the confederation-wide context-free memo and
    the per-participant extension/pair-cache dict too: the base class
    creates them in its constructor, not on first use (when they were
    born after the proxies went in, the detector never saw them)."""
    config = ConfederationConfig(
        store=store,
        peers=(1, 2, 3, 4),
        reconciliation_interval=3,
        rounds=2,
        final_reconcile=True,
        network_centric="store",
        schedule_mode="async",
        workload=WorkloadConfig(transaction_size=2, seed=CHAOS_SEED),
    )
    with Confederation(config) as confed:
        with lock_discipline(confed.store) as handle:
            assert {"_nc_context_free", "_nc_caches"} <= set(handle.wrapped)
            confed.run()  # every touch of them held the lock
            with pytest.raises(LockDisciplineError, match="_nc_context_free"):
                len(confed.store._nc_context_free)
            with confed.store.lock:
                assert set(confed.store._nc_caches) == {1, 2, 3, 4}


def test_instrumented_async_chaos_run_is_clean_and_identical():
    """PR 10's column: the pipelined scheduler's reconcile phase over
    the replicated DHT with the maskable fault plan, every store touch
    owner-checked.  All tasks share one thread, so the instrumented
    lock's per-thread ownership still discriminates correctly: held
    inside ``_store_phase``, not held across awaits.  The decision
    stream must match the uninstrumented async run byte-for-byte."""
    plain = run_confederation(
        "dht",
        DHT_K2,
        CHAOS_SEED,
        faults=maskable_plan(CHAOS_SEED),
        schedule_mode="async",
    )
    guarded = run_confederation(
        "dht",
        DHT_K2,
        CHAOS_SEED,
        instrument=True,
        faults=maskable_plan(CHAOS_SEED),
        schedule_mode="async",
    )
    # Paying real latency, segments overlap under the proxies too.
    paying = run_confederation(
        "dht",
        {**DHT_K2, "message_latency": 0.0002, "real_latency": True},
        CHAOS_SEED,
        instrument=True,
        faults=maskable_plan(CHAOS_SEED),
        schedule_mode="async",
    )
    assert guarded[0] == plain[0]  # async global order is deterministic
    assert paying[0] == plain[0]  # ... and does not depend on latency
    for run in (guarded, paying):
        assert run[1] == plain[1]
        assert run[2].faults.injected.get("crash") == 1
        assert run[2].faults.injected.get("duplicate", 0) >= 1
        assert run[2].faults.recoveries == 2


# ----------------------------------------------------------------------
# Detection: deliberate bypasses are caught


def test_store_call_bypass_is_caught_serial(monkeypatch):
    """Remove the lock from ``_store_call`` — the transport contract's
    single chokepoint — and the very first store access raises."""

    def lockless_store_call(self, method, *args):
        from repro.store.base import PerfCounters

        result = method(*args)  # no lock: the exact bug RPR004 guards
        return result, PerfCounters(), 0.0

    with pytest.raises(LockDisciplineError, match="store lock is not held"):
        monkeypatch.setattr(Participant, "_store_call", lockless_store_call)
        run_confederation("memory", {}, CHAOS_SEED, instrument=True)


def test_unsynchronized_peek_is_caught_in_async_task(monkeypatch):
    """A reconcile peeking at store internals outside the store lock
    trips the proxy; the async scheduler wraps it per its error
    contract with the root cause preserved."""
    original = Participant.reconcile

    def leaky_reconcile(self):
        len(self.store._log)  # peek outside the lock
        return original(self)

    monkeypatch.setattr(Participant, "reconcile", leaky_reconcile)
    # Without instrumentation the peek is invisible — the static rules
    # cannot see it either (dynamic attribute path, non-cdss caller).
    run_confederation("memory", {}, CHAOS_SEED, schedule_mode="async")
    with pytest.raises(SchedulerError, match="reconcile phase failed") as info:
        run_confederation(
            "memory",
            {},
            CHAOS_SEED,
            instrument=True,
            schedule_mode="async",
        )
    assert isinstance(info.value.__cause__, LockDisciplineError)


def test_unsynchronized_peek_is_caught_serial(monkeypatch):
    """The same peek under the serial scheduler raises the checker's
    error raw, as every serial failure does."""
    original = Participant.reconcile

    def leaky_reconcile(self):
        len(self.store._log)  # peek outside the lock
        return original(self)

    monkeypatch.setattr(Participant, "reconcile", leaky_reconcile)
    run_confederation("memory", {}, CHAOS_SEED)
    with pytest.raises(LockDisciplineError, match="store lock is not held"):
        run_confederation("memory", {}, CHAOS_SEED, instrument=True)
