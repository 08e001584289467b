"""Fault-tolerance perf: what replication and recovery cost (PR 6).

Section 5.2.2's failure handling is not free: with
``replication_factor=2`` every controller write is shipped to a ring
successor, and a crash + recovery adds takeover promotions and a
rebalance sweep.  This benchmark prices both against the unreplicated
store on the 5-peer evaluation schedule and pins the robustness claim
alongside the cost:

* **k=1** — the paper's unreplicated DHT (the baseline);
* **k=2** — successor replication on, fault-free;
* **k=2 + crash** — the same run suffering a controller-host crash at
  epoch 5 that recovers (rejoins and rebalances) at epoch 10.

All three must emit byte-identical decision streams — replication and
crash-masking may only cost messages and simulated seconds, never
outcomes.  The gated ``speedup`` is the message-overhead ratio
``k1_messages / k2_messages`` (dimensionless, machine-independent): it
falls if replication starts costing more traffic per unit of work.

Emits ``BENCH_faults.json`` at the repository root, gated by
``benchmarks/check_regression.py`` against
``benchmarks/BENCH_baseline.json`` and uploaded as a CI artifact.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.net import FaultPlan, HostCrash
from repro.workload import WorkloadConfig

from benchmarks.check_regression import DEFAULT_BASELINE, baseline_points
from benchmarks.conftest import emit

PEERS = 5
HOSTS = 5
INTERVAL = 3
ROUNDS = 3
SEED = 42
#: k=2 may cost at most this many times the k=1 message count: each
#: controller write gains one replica ship + ack, but reads, batch
#: assembly, and the reconciliation protocol are unreplicated.
REPLICATION_MESSAGE_CEILING = 1.5
#: ... and the crash+recovery run at most this much over fault-free k=2
#: (takeover promotions plus the rebalance sweep).
RECOVERY_MESSAGE_CEILING = 1.3

CRASH_PLAN = FaultPlan(
    seed=6,
    crashes=(HostCrash("host:2", at_epoch=5, recover_at_epoch=10),),
)

#: Seeded and exact: these must *equal* the committed baseline entry, so
#: a refactor of the store cannot move a message or a byte unnoticed.
WIRE_FIELDS = (
    "k1_messages", "k2_messages", "crash_messages",
    "k1_bytes", "k2_bytes", "crash_bytes",
)

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_faults.json"


def _run(replication_factor, faults=None):
    config = ConfederationConfig(
        store="dht",
        store_options={
            "hosts": HOSTS,
            "replication_factor": replication_factor,
        },
        peers=tuple(range(1, PEERS + 1)),
        reconciliation_interval=INTERVAL,
        rounds=ROUNDS,
        final_reconcile=True,
        workload=WorkloadConfig(transaction_size=2, seed=SEED),
        faults=faults,
    )
    decisions = []
    hooks = HookBus()
    hooks.on_decision(
        lambda **kw: decisions.append(
            (kw["participant"], kw["recno"], str(kw["tid"]), str(kw["decision"]))
        )
    )
    with Confederation(config, hooks=hooks) as confed:
        report = confed.run()
        messages = confed.store.network.messages_delivered
        bytes_moved = confed.store.network.bytes_delivered
    return report, decisions, messages, bytes_moved


def test_perf_fault_tolerance(benchmark):
    k1_report, k1_decisions, k1_msgs, k1_bytes = _run(replication_factor=1)
    k2_report, k2_decisions, k2_msgs, k2_bytes = _run(replication_factor=2)
    (
        crash_report,
        crash_decisions,
        crash_msgs,
        crash_bytes,
    ) = benchmark.pedantic(
        lambda: _run(replication_factor=2, faults=CRASH_PLAN),
        rounds=1,
        iterations=1,
    )

    replication_ratio = k2_msgs / k1_msgs
    recovery_ratio = crash_msgs / k2_msgs
    speedup = k1_msgs / k2_msgs

    emit(
        f"Fault tolerance — {PEERS} peers / {HOSTS} hosts, messages:\n"
        f"  k=1 (unreplicated) : {k1_msgs:8d} ({k1_bytes} bytes)\n"
        f"  k=2 (fault-free)   : {k2_msgs:8d} ({k2_bytes} bytes, "
        f"{replication_ratio:.2f}x of k=1, ceiling "
        f"{REPLICATION_MESSAGE_CEILING})\n"
        f"  k=2 crash+recover  : {crash_msgs:8d} ({crash_bytes} bytes, "
        f"{recovery_ratio:.2f}x of fault-free k=2, ceiling "
        f"{RECOVERY_MESSAGE_CEILING}, "
        f"{crash_report.faults.recoveries} recoveries)"
    )

    point = {
        "schema_version": 1,
        "benchmark": "fault_tolerance",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": {
            "peers": PEERS,
            "hosts": HOSTS,
            "interval": INTERVAL,
            "rounds": ROUNDS,
            "seed": SEED,
            "store": "dht",
            "crash": ConfederationConfig(faults=CRASH_PLAN).to_dict()["faults"]["crashes"][0],
        },
        "k1_messages": k1_msgs,
        "k2_messages": k2_msgs,
        "crash_messages": crash_msgs,
        "k1_bytes": k1_bytes,
        "k2_bytes": k2_bytes,
        "crash_bytes": crash_bytes,
        "replication_message_ratio": replication_ratio,
        "recovery_message_ratio": recovery_ratio,
        "speedup": speedup,
        "state_ratio": k2_report.state_ratio,
    }
    _BENCH_JSON.write_text(json.dumps(point, indent=2) + "\n")
    benchmark.extra_info.update(point)

    # The robustness claim: identical outcomes in all three runs.
    assert k2_decisions == k1_decisions
    assert crash_decisions == k1_decisions
    assert crash_report.state_ratio == k1_report.state_ratio
    assert crash_report.faults.injected == {"crash": 1}
    assert crash_report.faults.recoveries == 1
    # The wire did not move: every count equals the committed baseline.
    baseline = baseline_points(DEFAULT_BASELINE)["fault_tolerance"]
    assert {name: point[name] for name in WIRE_FIELDS} == {
        name: baseline[name] for name in WIRE_FIELDS
    }
    # The priced costs stay within their ceilings.
    assert replication_ratio <= REPLICATION_MESSAGE_CEILING, (
        f"replication cost {replication_ratio:.2f}x of the unreplicated "
        f"message count (ceiling {REPLICATION_MESSAGE_CEILING})"
    )
    assert recovery_ratio <= RECOVERY_MESSAGE_CEILING, (
        f"crash+recovery cost {recovery_ratio:.2f}x of fault-free k=2 "
        f"(ceiling {RECOVERY_MESSAGE_CEILING})"
    )
    # Replication is not free: the replica ships really happened.
    assert k2_msgs > k1_msgs
