#!/usr/bin/env python3
"""Fault-tolerant confederations: crashes, lossy links, and restarts.

The paper's Section 5.2 argues a CDSS keeps *all* durable state in the
update store, so everything else may fail: hosts crash, messages get
lost, participants restart from nothing.  This example demonstrates the
PR 6 robustness surface end to end:

1. a declarative, seeded :class:`FaultPlan` attached to the config —
   a controller-host crash that later recovers, lossy protocol links,
   and a mid-run participant crash-restart;
2. successor replication (``replication_factor=2``) masking the crash;
3. the proof that faults changed *nothing*: the decision stream is
   byte-identical to a fault-free run of the same seeded workload;
4. what an **unmaskable** fault looks like: a black-holed protocol
   message exhausts the bounded retry budget and raises
   :class:`RetryExhaustedError` instead of hanging or corrupting.

Run with:  python examples/fault_tolerance.py
"""

from __future__ import annotations

import json

from repro import (
    Confederation,
    ConfederationConfig,
    FaultPlan,
    HostCrash,
    MessageFault,
    ParticipantRestart,
    RetryExhaustedError,
    WorkloadConfig,
)


def run(config: ConfederationConfig):
    """Run the seeded schedule, returning (decision log, report)."""
    decisions = []
    with Confederation(config) as confed:
        confed.hooks.on_decision(
            lambda participant, tid, decision, **_: decisions.append(
                (participant, str(tid), str(decision))
            )
        )
        report = confed.run()
    return decisions, report


def config_with(faults=None, **store_options):
    return ConfederationConfig(
        store="dht",
        store_options={"hosts": 5, "replication_factor": 2, **store_options},
        peers=(1, 2, 3, 4, 5),
        reconciliation_interval=3,
        rounds=3,
        final_reconcile=True,
        workload=WorkloadConfig(transaction_size=2, seed=11),
        faults=faults,
    )


def main() -> None:
    # 1. The fault plan is declarative data — it round-trips through
    #    plain dicts/JSON as part of the config, so chaos
    #    schedules live in files and version control.
    plan = FaultPlan(
        seed=6,
        crashes=(HostCrash("host:2", at_epoch=5, recover_at_epoch=10),),
        messages=(
            MessageFault("txn_stored", "drop", probability=0.2, times=4),
            MessageFault("txn_data", "delay", probability=0.1, times=5),
        ),
        restarts=(ParticipantRestart(participant=3, at_epoch=8),),
    )
    config = config_with(plan)
    assert ConfederationConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    print("Fault plan:")
    print("  crash    host:2 at epoch 5, recovery at epoch 10")
    print("  drop     up to 4 txn_stored acks (p=0.2, seeded)")
    print("  delay    up to 5 txn_data fetches (p=0.1, seeded)")
    print("  restart  participant 3 at epoch 8 (rebuilt from the store)")

    # 2+3. Same seeded workload, with and without the plan.  Successor
    #    replication and bounded retries mask every fault above, so the
    #    decision streams must match byte for byte.
    clean_decisions, _ = run(config_with())
    chaos_decisions, report = run(config_with(faults=plan))
    assert chaos_decisions == clean_decisions
    print(f"\nChaos run made {len(chaos_decisions)} decisions — "
          f"byte-identical to the fault-free run.")

    # 4. The report prices what happened on the way.
    faults = report.faults
    print("What the run survived:")
    print(f"  injected  : {dict(sorted(faults.injected.items()))}")
    print(f"  retries   : {faults.retries} protocol messages re-sent")
    print(f"  recoveries: {faults.recoveries} "
          f"(host rejoin + participant restart)")

    # 5. Unmaskable faults fail loudly, not silently: black-holing every
    #    epoch_contents reply starves reconciliation past the retry
    #    budget.
    black_hole = FaultPlan(
        seed=1,
        messages=(MessageFault("epoch_contents", "drop", probability=1.0),),
    )
    try:
        run(config_with(faults=black_hole, max_retries=2))
    except RetryExhaustedError as exc:
        print(f"\nBlack hole surfaced as RetryExhaustedError:\n  {exc}")
    else:
        raise AssertionError("the black hole should have been fatal")


if __name__ == "__main__":
    main()
