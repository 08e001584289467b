#!/usr/bin/env python3
"""The durable store: a confederation that survives losing everything.

The paper's Section 5.2 keeps *all* durable state in the update store;
PR 9's ``durable`` backend takes that literally — the central append-only
schema on a real database file (WAL), transaction bodies paged through a
bounded LRU, and nothing derived written to disk.  This example walks
the claim end to end:

1. a seeded confederation runs on a database file with a deliberately
   tiny body cache, so history pages from disk while RAM stays bounded;
2. participant 3 crash-restarts mid-run (a declarative
   :class:`ParticipantRestart`) and rebuilds its replica *from the
   file* — the decision stream stays byte-identical to a fault-free
   in-memory run of the same workload;
3. the report prices the run: state ratio, recoveries, cache traffic,
   bytes on disk;
4. the process "dies" (everything closed), and reopening the same path
   adopts the registered participants and restores a replica from
   persisted counters — O(delta), never a history replay.

Run with:  python examples/durable_store.py
"""

from __future__ import annotations

import pathlib
import tempfile

from repro import (
    Confederation,
    ConfederationConfig,
    FaultPlan,
    ParticipantRestart,
    WorkloadConfig,
)


def build_config(store, store_options, faults=None):
    """The shared seeded schedule: 4 peers, 3 rounds, interval 3."""
    return ConfederationConfig(
        store=store,
        store_options=store_options,
        peers=(1, 2, 3, 4),
        reconciliation_interval=3,
        rounds=3,
        workload=WorkloadConfig(transaction_size=2, seed=23),
        faults=faults,
    )


def run(config):
    """Run the schedule; return (decision log, report, snapshots, store)."""
    decisions = []
    with Confederation(config) as confed:
        confed.hooks.on_decision(
            lambda participant, tid, decision, **_: decisions.append(
                (participant, str(tid), str(decision))
            )
        )
        report = confed.run()
        snapshots = {
            p.id: p.instance.snapshot() for p in confed.participants
        }
        stats = (
            confed.store.page_cache_stats()
            if hasattr(confed.store, "page_cache_stats")
            else None
        )
    return decisions, report, snapshots, stats


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        db_path = pathlib.Path(scratch) / "confed.db"

        # 1+2. The same seeded workload twice: in-memory and durable,
        #    the durable run with a crash-restart of participant 3 at
        #    epoch 8 and a body cache of only 8 entries.  Restart
        #    recovery reads the database file; if the file were wrong,
        #    the decision streams would diverge.
        plan = FaultPlan(
            seed=23,
            restarts=(ParticipantRestart(participant=3, at_epoch=8),),
        )
        baseline, _, base_snapshots, _ = run(build_config("memory", {}))
        decisions, report, snapshots, stats = run(
            build_config(
                "durable",
                {"path": str(db_path), "cache_size": 8},
                faults=plan,
            )
        )
        assert decisions == baseline
        assert snapshots == base_snapshots
        print(
            f"durable run: {len(decisions)} decisions, byte-identical to "
            "the in-memory run — including participant 3, which "
            "crash-restarted at epoch 8 and rebuilt from the file."
        )

        # 3. What it cost and what is where.  `resident` is bounded by
        #    the cache; everything else is on disk.
        print("report:")
        print(f"  state ratio    : {report.state_ratio:.2f}")
        print(f"  recoveries     : {report.faults.recoveries}")
        print(
            f"  body cache     : {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['evictions']} evictions, "
            f"peak {stats['peak_resident']}/{stats['capacity']} resident"
        )
        print(f"  bytes on disk  : {db_path.stat().st_size}")

        # 4. Process death: both runs above are fully closed.  Reopen
        #    the same path — crash recovery finishes any dangling
        #    publication epoch, adopts the four registered participants,
        #    and a restored replica matches the pre-crash snapshot.
        reopened_config = build_config(
            "durable", {"path": str(db_path), "cache_size": 8}
        )
        with Confederation(reopened_config) as revived:
            participant = revived.participants[2]
            restored = revived.restore(participant.id)
            assert restored.instance.snapshot() == snapshots[participant.id]
            print(
                f"reopened {db_path.name}: adopted "
                f"{len(revived.participants)} participants, restored "
                f"p{participant.id}'s replica from disk — it matches the "
                "pre-crash snapshot exactly."
            )


if __name__ == "__main__":
    main()
