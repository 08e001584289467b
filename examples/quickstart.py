#!/usr/bin/env python3
"""Quickstart: a three-peer collaborative data sharing system.

Builds the smallest interesting CDSS — three bioinformatics curators
sharing a protein-function table — with the unified confederation API:
a declarative :class:`ConfederationConfig` (store backend by registry
name, peers, trust), the :class:`Confederation` facade as a context
manager, and the event hook bus observing every decision.  Then walks
through local edits, publication, reconciliation, tolerated
disagreement, and conflict resolution.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import pathlib
import tempfile

from repro import (
    AttributeDef,
    Confederation,
    ConfederationConfig,
    FaultPlan,
    HookBus,
    Insert,
    MessageFault,
    Modify,
    RelationSchema,
    Resolution,
    Schema,
    WorkloadConfig,
    available_stores,
)


def main() -> None:
    # 1. A shared schema: protein functions, keyed by (organism, protein).
    schema = Schema(
        [
            RelationSchema(
                "F",
                [
                    AttributeDef("organism", str),
                    AttributeDef("protein", str),
                    AttributeDef("function", str),
                ],
                key=("organism", "protein"),
            )
        ]
    )

    # 2. One declarative config: the store backend is picked by name from
    #    the driver registry, and three peers trust each other equally
    #    (priority 1) — conflicts will need manual resolution.
    print(f"Registered store backends: {', '.join(available_stores())}")
    config = ConfederationConfig(store="memory", peers=(1, 2, 3))

    with Confederation.from_config(config, schema=schema) as confed:
        alice, bob, carol = confed.participants

        # 3. Observability is a hook subscription, not engine plumbing:
        #    log every verdict any peer reaches.
        confed.hooks.on_decision(
            lambda participant, tid, decision, **_: print(
                f"    [hook] p{participant} decided {tid}: {decision}"
            )
        )

        # 4. Alice curates a protein and shares her work.
        alice.execute(
            [Insert("F", ("rat", "prot1", "cell-metabolism"), alice.id)]
        )
        alice.execute(
            [
                Modify(
                    "F",
                    ("rat", "prot1", "cell-metabolism"),
                    ("rat", "prot1", "immune-response"),
                    alice.id,
                )
            ]
        )
        alice.publish_and_reconcile()
        print("Alice's instance:", sorted(alice.instance.rows("F")))

        # 5. Bob, who had independently curated the same protein
        #    differently, publishes his version and reconciles.  He keeps
        #    his own value — Alice's conflicting chain is rejected for
        #    *him*, but both versions coexist in the system: this is
        #    tolerated disagreement.
        bob.execute([Insert("F", ("rat", "prot1", "cell-respiration"), bob.id)])
        result = bob.publish_and_reconcile()
        print(f"Bob reconciled: {result.summary()}")
        print("Bob's instance:  ", sorted(bob.instance.rows("F")))
        print(f"State ratio across peers: {confed.state_ratio():.2f}")

        # 6. Carol trusts both equally, so she cannot pick a winner: the
        #    conflicting transactions are deferred into a conflict group.
        result = carol.publish_and_reconcile()
        print(f"Carol reconciled: {result.summary()}")
        for group in carol.open_conflicts():
            print("Carol's open conflict:")
            print(group.describe())

        # 7. Carol resolves the conflict by hand, picking Alice's version.
        [group] = carol.open_conflicts()
        chosen = next(
            index
            for index, option in enumerate(group.options)
            if option.effect == ("rat", "prot1", "immune-response")
        )
        result = carol.resolve([Resolution(group.group_id, chosen)])
        print(f"Carol resolved:  {result.summary()}")
        print("Carol's instance:", sorted(carol.instance.rows("F")))
        print(f"Final state ratio: {confed.state_ratio():.2f}")

        # 8. The store remembers everything: a participant is
        #    reconstructible from its decisions alone (Section 5.2).
        snapshot = confed.snapshot()[carol.id]
        print(
            f"Store knows p{carol.id}: {len(snapshot.applied)} applied, "
            f"{len(snapshot.rejected)} rejected, "
            f"{len(snapshot.deferred)} deferred"
        )
        restored = confed.restore(carol.id)
        assert sorted(restored.instance.rows("F")) == sorted(
            carol.instance.rows("F")
        )
        print("Carol restored from the store: instance matches.")

    # 9. One knob flips Figure 3's reconciliation column: with
    #    network_centric="store" the update store derives each
    #    participant's update extensions and conflict adjacency itself
    #    and ships a fully-assembled batch — the client only checks
    #    state and applies.  Every built-in backend (memory, central,
    #    durable, dht) supports it, and outcomes are identical by
    #    construction.
    nc_config = ConfederationConfig(
        store="memory", peers=(1, 2, 3), network_centric="store"
    )
    with Confederation.from_config(nc_config, schema=schema) as nc_confed:
        publisher, receiver, _ = nc_confed.participants
        publisher.execute(
            [Insert("F", ("rat", "prot9", "signaling"), publisher.id)]
        )
        publisher.publish_and_reconcile()
        receiver.publish_and_reconcile()
        assert receiver.instance.contains_row(
            "F", ("rat", "prot9", "signaling")
        )
        print(
            'network_centric="store": the store assembled the batch, '
            "the client just applied it."
        )

    # 10. Robustness is declarative too: a seeded FaultPlan on the
    #     config schedules host crashes, message drops/duplicates/
    #     delays, and participant restarts — executed deterministically,
    #     and masked by successor replication plus bounded retries.
    #     Here two dropped store acks cost retries, never outcomes.
    chaos_config = ConfederationConfig(
        store="dht",
        store_options={"hosts": 4, "replication_factor": 2},
        peers=(1, 2, 3),
        faults=FaultPlan(
            seed=7,
            messages=(MessageFault("txn_stored", "drop", times=2),),
        ),
    )
    with Confederation.from_config(chaos_config, schema=schema) as chaotic:
        publisher, receiver, _ = chaotic.participants
        publisher.execute(
            [Insert("F", ("rat", "prot2", "transport"), publisher.id)]
        )
        publisher.publish_and_reconcile()
        receiver.publish_and_reconcile()
        assert receiver.instance.contains_row("F", ("rat", "prot2", "transport"))
        faults = chaotic.report().faults
        print(
            f"FaultPlan: {faults.injected.get('drop', 0)} acks dropped, "
            f"{faults.retries} retries, decisions unchanged "
            "(see examples/fault_tolerance.py for the full chaos tour)."
        )

    # 11. The determinism invariants everything above relies on (seeded
    #     RNG substreams, routing on the batch, every store call one
    #     measured store phase) are machine-checked.  CI gates on
    #
    #         PYTHONPATH=src python -m repro.analysis src tests benchmarks examples
    #
    #     which runs the repo-specific AST rules (RPR001-RPR010,
    #     RPR008 retired; add --list-rules for the catalogue) and exits
    #     non-zero on any finding.  A genuinely intended exception is waived in place
    #     with a `# repro: allow[RPRnnn]` comment on the offending line
    #     (or the line above), keeping the justification visible in
    #     review.  The same engine is importable:
    from repro.analysis import run_analysis

    findings = run_analysis([__file__])
    print(f"repro.analysis on this example: {len(findings)} findings")
    assert not findings

    # 12. Reading the wire metrics: on a simulated-network store,
    #     report() carries the protocol mix — `kind_counts` (fragments
    #     delivered per message kind) and `kind_bytes` (that kind's
    #     share of the delivered bytes).  This is how the Figure-3 byte
    #     trade is read: client-centric DHT traffic is dominated by
    #     `txn_data`/`request_txn` (bodies pulled on demand), while the
    #     store-computed path shifts it into coalesced `nc_data`
    #     replies, batched `nc_fetch_batch`/`nc_member_batch` verdict
    #     round-trips, and — across deferral rounds — tiny
    #     `nc_unchanged` digest tokens in place of re-shipped payloads.
    #     The PR 8 wire pass (batching + coalescing + delta-encoded
    #     re-ships) brought that mode from ~2.9x/2.2x down to ≤1.8x
    #     messages and ≤1.5x bytes over client-computed, pinned in
    #     benchmarks/test_perf_dht_nc.py.
    wire_config = ConfederationConfig(
        store="dht",
        store_options={"hosts": 3},
        peers=(1, 2, 3),
        network_centric="store",
    )
    with Confederation.from_config(wire_config, schema=schema) as wired:
        publisher, receiver, _ = wired.participants
        publisher.execute(
            [Insert("F", ("rat", "prot3", "kinase"), publisher.id)]
        )
        publisher.publish_and_reconcile()
        receiver.publish_and_reconcile()
        wire = wired.report()
        top = sorted(
            wire.kind_bytes, key=wire.kind_bytes.get, reverse=True
        )[:3]
        for kind in top:
            print(
                f"wire: {kind:12s} {wire.kind_counts[kind]:4d} fragments"
                f" {wire.kind_bytes[kind]:6d} bytes"
            )
        assert wire.kind_counts.get("nc_data", 0) >= 1

    # 13. Durability: store="durable" keeps the append-only update
    #     store on a real database file (WAL), paging transaction
    #     bodies through a bounded LRU so RAM stays O(open frontier)
    #     while the full history lives on disk.  "Crash" the process by
    #     closing everything, then reopen the same path: registered
    #     participants are adopted and their soft state rebuilt from
    #     persisted counters — O(delta), never a history replay.
    with tempfile.TemporaryDirectory() as scratch:
        db_path = str(pathlib.Path(scratch) / "quickstart.db")
        durable_config = ConfederationConfig(
            store="durable",
            store_options={"path": db_path, "cache_size": 8},
            peers=(1, 2),
        )
        with Confederation.from_config(durable_config, schema=schema) as run1:
            writer, reader = run1.participants
            writer.execute(
                [Insert("F", ("rat", "prot4", "folding"), writer.id)]
            )
            writer.publish_and_reconcile()
            reader.publish_and_reconcile()
            stats = run1.store.page_cache_stats()
            print(
                f"durable: {stats['resident']} bodies resident "
                f"(cache capacity {stats['capacity']}), history on disk"
            )
        # Everything in memory is gone now; only the file survives.
        with Confederation.from_config(durable_config, schema=schema) as run2:
            _, reader2 = run2.participants
            restored = run2.restore(reader2.id)
            assert restored.instance.contains_row(
                "F", ("rat", "prot4", "folding")
            )
            print(
                "durable: reopened the database file, adopted both "
                "participants, restored the reader's replica from disk "
                "(see examples/durable_store.py for the crash-mid-run tour)."
            )

    # 14. Scheduling is a config knob too.  schedule_mode picks the
    #     epoch scheduler: "serial" (the paper's round-robin) or
    #     "async" (edit, publish-barrier and reconcile phases as one
    #     deadline loop — injected store latency becomes a deadline
    #     only the participant that owes it waits for, through the
    #     store's latency clock, so one peer's wire wait overlaps
    #     another's work and even the publish barrier pipelines).  Both
    #     drive the confederation from the caller's thread, and two
    #     async runs of the same seeded workload emit the same global
    #     decision stream.
    def seeded_run(mode):
        config = ConfederationConfig(
            store="memory",
            peers=(1, 2, 3, 4),
            reconciliation_interval=2,
            rounds=2,
            final_reconcile=True,
            schedule_mode=mode,
            workload=WorkloadConfig(transaction_size=2, seed=5),
        )
        stream = []
        hooks = HookBus()
        hooks.on_decision(
            lambda participant, tid, decision, **_: stream.append(
                (participant, str(tid), str(decision))
            )
        )
        with Confederation(config, hooks=hooks) as confed:
            report = confed.run()
        return stream, report

    first_stream, _ = seeded_run("async")
    async_stream, async_report = seeded_run("async")
    assert async_report.scheduler == "async"
    assert async_stream == first_stream
    print(
        f'schedule_mode="async": {async_report.scheduler} scheduler ran '
        f"{async_report.transactions_published} publishes through a "
        "pipelined publish barrier; two runs emit the same global decision stream "
        "byte-for-byte (benchmarks/test_perf_scheduler.py prices the "
        "wall-clock win over serial at 64 peers)."
    )


if __name__ == "__main__":
    main()
