"""One repetition: one schedule of one workload in this (fresh) process.

The harness starts ``python -m benchmarks.e2e.rep`` once per repetition
and reads one JSON object from its standard output.  Everything between
the parent's spawn timestamp and the first schedule step is set-up;
from then on only calls into ``Participant``/``Confederation`` are on
the end-to-end clock — workload generation and the reference kernel run
in the gaps.  With ``--traced 1`` the same schedule runs under the span
wrappers of :mod:`.spans`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Set

from benchmarks.e2e.reference import REFERENCE_S, kernel
from benchmarks.e2e.spans import Tracer, self_times
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Workload,
    config_for,
    history_batches,
)
from repro.confed import Confederation
from repro.store.durable import DurableUpdateStore
from repro.workload.generator import curated_schema

#: Kernel passes timed right after set-up, whatever the workload: the
#: set-up time is scaled by these alone.
SETUP_KERNEL_SAMPLES = 32


class Meter:
    """The end-to-end clock of one repetition, step by step.

    ``steps[i]`` is the raw clocked time of schedule step ``i`` and
    ``gaps[i]``/``gaps[i + 1]`` the mean reference-kernel time measured
    just before and just after it; the step's times are scaled by
    ``REFERENCE_S`` over the mean of the two.
    """

    def __init__(self, kernel_samples: int, tracer: Optional[Tracer]) -> None:
        self.kernel_samples = kernel_samples
        self.tracer = tracer
        self.started_at = 0.0
        self.setup_cpu = 0.0
        self.steps: List[float] = []
        self.gaps: List[float] = []
        #: Every clocked interval, as (start, end) readings of the clock.
        self.intervals: List[tuple] = []
        #: Per call: (step, raw wall seconds, injected latency it paid).
        self.reconciles: List[tuple] = []
        self.publishes: List[tuple] = []
        self.generate_s = 0.0
        self.attempted = 0

    def gap(self) -> None:
        """Time the reference kernel (outside the clock)."""
        if not self.gaps:
            self.started_at = perf_counter()
            self.setup_cpu = time.process_time()
            passes = max(self.kernel_samples, SETUP_KERNEL_SAMPLES)
        else:
            passes = self.kernel_samples
        self.gaps.append(sum(kernel() for _ in range(passes)) / passes)

    def begin_step(self) -> None:
        """Open the next schedule step."""
        self.gap()
        if self.tracer is not None and self.steps:
            self.tracer.next_step()
        self.steps.append(0.0)

    def add(self, start: float, end: float, calls: int = 1) -> None:
        """Charge the clocked interval ``start``..``end`` to the open step."""
        self.steps[-1] += end - start
        self.attempted += calls
        self.intervals.append((start, end))

    def publish(self, start: float, end: float) -> None:
        """Charge one ``Participant.publish()``."""
        self.publishes.append((len(self.steps) - 1, end - start, 0.0))
        self.add(start, end)

    def reconcile(self, start: float, end: float) -> None:
        """Charge one ``Participant.reconcile()``."""
        self.reconciles.append((len(self.steps) - 1, end - start, 0.0))
        self.add(start, end)

    def clocked(self, spans) -> float:
        """Seconds of root spans that lie inside the clocked intervals.

        Self times sum to their root spans by construction, so this is
        the sum of every layer's self time on the clock; a GC pass the
        harness's own loop triggered between two calls counts too."""
        starts = [start for start, _end in self.intervals]
        total = 0.0
        for _name, start, end, parent, _step in spans:
            if parent < 0:
                index = bisect_right(starts, start) - 1
                if index >= 0 and start <= self.intervals[index][1]:
                    total += end - start
        return total

    def setup_seconds(self, spawned_at: float) -> float:
        """Spawn to first step: the CPU share at reference speed, the rest
        (exec, sleeping out registration latency) as it was."""
        raw = self.started_at - spawned_at
        busy = min(self.setup_cpu, raw)
        return (raw - busy) + busy * REFERENCE_S / self.gaps[0]

    def speed(self, step: int) -> float:
        """The factor that scales step ``step``'s times to reference speed."""
        return REFERENCE_S / ((self.gaps[step] + self.gaps[step + 1]) / 2)

    def scaled_steps(self) -> List[float]:
        """Each step's clocked seconds at reference speed."""
        return [raw * self.speed(i) for i, raw in enumerate(self.steps)]

    def scaled_ms(self, samples: List[tuple]) -> List[float]:
        """Per-call milliseconds: wall at reference speed plus paid latency."""
        return [
            (raw * self.speed(step) + paid) * 1e3 for step, raw, paid in samples
        ]


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB.

    ``VmHWM`` belongs to the address space this program got at exec;
    ``ru_maxrss`` also carries the high-water mark of the parent that
    forked it, so a harness holding a large ``--out`` would inflate it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class DecisionStream:
    """The ``(participant, recno, tid, decision)`` stream of a run."""

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def attach(self, bus) -> "DecisionStream":
        """Subscribe to ``bus`` and return self."""
        bus.on_decision(self)
        return self

    def __call__(self, *, participant, recno, tid, decision, **_ignored) -> None:
        self.events.append(
            (participant, recno, tid.participant, tid.sequence, str(decision))
        )

    def digest(self) -> str:
        """SHA-256 over the stream, in emission order."""
        sha = hashlib.sha256()
        for event in self.events:
            sha.update(("%d:%d:%d.%d:%s\n" % event).encode())
        return sha.hexdigest()

    def undecided(self, published: Set[tuple], peers: List[int]) -> int:
        """Published transactions lacking a decision at some other peer."""
        seen = {(p, origin, seq) for p, _recno, origin, seq, _d in self.events}
        return sum(
            1
            for (origin, seq) in published
            for peer in peers
            if peer != origin and (peer, origin, seq) not in seen
        )


# ----------------------------------------------------------------------
# Drive loops


def drive_serial(confed: Confederation, meter: Meter) -> None:
    """``SerialScheduler.run``, with the clock on the program's calls only."""
    config = confed.config
    generate = confed.generator.transaction_updates
    for round_index in range(config.rounds):
        for pid in [p.id for p in confed.participants]:
            participant = confed.participant(pid)
            meter.begin_step()
            published = 0
            for _ in range(config.reconciliation_interval):
                t0 = perf_counter()
                updates = generate(participant.id, participant.instance)
                t1 = perf_counter()
                meter.generate_s += t1 - t0
                if updates:
                    participant.execute(updates)
                    meter.add(t1, perf_counter())
                    published += 1
            t0 = perf_counter()
            participant.publish()
            t1 = perf_counter()
            participant.reconcile()
            t2 = perf_counter()
            confed.finish_scheduled_epoch(participant, round_index, published)
            t3 = perf_counter()
            meter.publish(t0, t1)
            meter.reconcile(t1, t2)
            meter.add(t2, t3)
    final_reconciles(confed, meter)


def drive_history(confed: Confederation, meter: Meter, batches) -> None:
    """Peer 1 publishes one pre-built batch per epoch; peer 2 reconciles."""
    publisher, consumer = confed.participants
    for epoch_index, batch in enumerate(batches):
        meter.begin_step()
        t0 = perf_counter()
        for updates in batch:
            publisher.execute(updates)
        t1 = perf_counter()
        publisher.publish()
        t2 = perf_counter()
        consumer.reconcile()
        t3 = perf_counter()
        confed.finish_scheduled_epoch(publisher, epoch_index, len(batch))
        t4 = perf_counter()
        meter.add(t0, t1, calls=len(batch))
        meter.publish(t1, t2)
        meter.reconcile(t2, t3)
        meter.add(t3, t4)
    final_reconciles(confed, meter)


def final_reconciles(confed: Confederation, meter: Meter) -> None:
    """One reconcile-only pass, so every transaction reaches every peer."""
    for participant in confed.participants:
        meter.begin_step()
        t0 = perf_counter()
        participant.reconcile()
        meter.reconcile(t0, perf_counter())
    meter.gap()


def drive_scheduler(confed: Confederation, meter: Meter) -> Dict[str, float]:
    """``Confederation.run()`` drives; the harness only watches.

    The scheduler, not the harness, issues ``publish``/``reconcile``, so
    they are clocked through a thin wrapper on each participant.  The
    scheduler awaits a call's injected latency after its synchronous
    segment returns, so what the participant waits for is the segment's
    wall plus the latency the store charged it (read from the store's own
    ledger; one thread, so the delta belongs to the call).  The reference
    kernel is timed once per round from the ``epoch_end`` hook and its
    time taken back out of the wall.  Only the busy part of the wall is
    scaled to reference speed: slept latency does not depend on it.
    """

    perf = confed.store.perf

    def clocked(method, samples):
        def call():
            charged = perf.simulated_seconds
            t0 = perf_counter()
            result = method()
            seconds = perf_counter() - t0
            samples.append((0, seconds, perf.simulated_seconds - charged))
            return result

        return call

    for participant in confed.participants:
        participant.publish = clocked(participant.publish, meter.publishes)
        participant.reconcile = clocked(participant.reconcile, meter.reconciles)
    first = confed.participants[0].id
    inside = 0.0  # seconds the kernel took inside the run's wall

    def on_epoch_end(*, participant, **_ignored) -> None:
        nonlocal inside
        if participant == first:  # once per round
            t0 = perf_counter()
            meter.gap()
            if meter.tracer is not None:
                meter.tracer.next_step()
            inside += perf_counter() - t0

    confed.hooks.on_epoch_end(on_epoch_end)
    meter.begin_step()
    cpu0 = time.process_time()
    t0 = perf_counter()
    confed.run()
    t1 = perf_counter()
    meter.intervals.append((t0, t1))
    wall = t1 - t0 - inside
    busy = max(time.process_time() - cpu0 - inside, 0.0)
    meter.gap()
    # The run is one step: its speed is the mean over every gap.
    kernel_s = statistics.fmean(meter.gaps)
    meter.gaps = [kernel_s, kernel_s]
    idle = max(wall - busy, 0.0)
    # Stored so that scaled_steps() yields idle + busy at reference speed.
    meter.steps[0] = idle / meter.speed(0) + busy
    meter.attempted += 1
    return {"wall_s": wall, "busy_s": busy, "idle_s": idle}


# ----------------------------------------------------------------------
# Tracing


def install_tracing(confed: Confederation, tracer: Tracer, counts: Counter) -> None:
    """Wrap the public methods of the live objects, layer by layer."""
    tracer.wrap(confed.generator, "transaction_updates", "workload.generate")
    tracer.wrap(confed, "finish_scheduled_epoch", "confed.finish_epoch")
    tracer.wrap(confed, "run", "confed.run")
    tracer.wrap(confed.hooks, "emit", "confed.hook_emit")

    def checked(passed: bool) -> None:
        counts["instance.check_passed"] += bool(passed)

    def batched(batch) -> None:
        counts["store.batch_txns"] += len(batch.roots)

    for participant in confed.participants:
        tracer.wrap(participant, "execute", "cdss.execute")
        tracer.wrap(participant, "publish", "cdss.publish")
        tracer.wrap(participant, "reconcile", "cdss.reconcile")
        tracer.wrap(participant.session, "run", "core.session")
        tracer.wrap(participant.instance, "apply_all", "instance.apply")
        tracer.wrap(participant.instance, "apply_set", "instance.apply")
        tracer.wrap(participant.instance, "can_apply_set", "instance.check", checked)
    store = confed.store
    tracer.wrap(store, "publish", "store.publish")
    tracer.wrap(store, "reconciliation_batch", "store.batch", batched)
    tracer.wrap(store, "complete_reconciliation", "store.complete")
    network = getattr(store, "network", None)
    if network is not None:
        tracer.wrap(network, "run", "net.deliver")
        for name in network.node_names():
            tracer.wrap(network.node(name), "handle", "store.dht.handler")
    tracer.install_gc_timer()


# ----------------------------------------------------------------------
# One repetition


def run_rep(args: argparse.Namespace) -> Dict[str, object]:
    """Set up, drive, check and measure one schedule."""
    workload: Workload = WORKLOADS[args.workload]
    sizes = workload.sizes(args.smoke)
    db_path = None
    if workload.store == "durable":
        db_path = Path(args.workdir) / f"history-{args.sub_seed}-{args.traced}.db"
    config = config_for(workload, args.sub_seed, args.smoke, db_path)
    batches = (
        history_batches(args.sub_seed, sizes) if workload.drive == "history" else None
    )
    confed = Confederation.from_config(config)
    stream = DecisionStream().attach(confed.hooks)
    published: Set[tuple] = set()

    def on_publish(*, transactions, **_ignored) -> None:
        published.update((t.tid.participant, t.tid.sequence) for t in transactions)

    confed.hooks.on_publish(on_publish)
    tracer = Tracer() if args.traced else None
    counts: Counter = Counter()
    if tracer is not None:
        install_tracing(confed, tracer, counts)
    meter = Meter(workload.kernel_samples, tracer)
    if args.setup_only:
        # An extra sample of the set-up time: stop where the schedule
        # would start.
        meter.gap()
        confed.close()
        if db_path is not None:
            remove_database(db_path)
        return {"setup_s": meter.setup_seconds(args.spawned_at), "error": None}
    gc_before = gc.get_stats()[2]["collections"]

    result: Dict[str, object] = {
        "workload": workload.name,
        "sub_seed": args.sub_seed,
        "traced": bool(args.traced),
        "error": None,
    }
    extra: Dict[str, float] = {}
    try:
        if workload.drive == "serial":
            drive_serial(confed, meter)
        elif workload.drive == "history":
            drive_history(confed, meter, batches)
        else:
            extra = drive_scheduler(confed, meter)
    except Exception as exc:  # the program failed: report it, do not hide it
        result["error"] = f"{type(exc).__name__}: {exc}"[:400]
        result["attempted"] = meter.attempted + 1
        result["failed"] = 1
        return result
    finally:
        rss_mb = peak_rss_mb()
        if tracer is not None:
            tracer.uninstall()

    scaled = meter.scaled_steps()
    clock_s = sum(scaled)
    raw_clock_s = sum(meter.steps) if workload.drive != "scheduler" else extra["wall_s"]
    report = confed.report()
    store = confed.store
    peers = [p.id for p in confed.participants]
    undecided = stream.undecided(published, peers)
    decisions = Counter(event[4] for event in stream.events)
    checks = {"all_decided": undecided == 0}
    exact = {
        "published": report.transactions_published,
        "messages": store.perf.messages,
        "wire_bytes": sum(report.kind_bytes.values()),
        "accepted": decisions["accept"],
        "rejected": decisions["reject"],
        "deferred": decisions["defer"],
        "cache_hits": report.cache_stats.reuses,
        "cache_misses": report.cache_stats.misses,
        "revalidations": report.cache_stats.revalidations,
        "pair_hits": report.cache_stats.pair_hits,
        "pair_misses": report.cache_stats.pair_misses,
        "net_messages": getattr(getattr(store, "network", None), "messages_delivered", 0),
        "retries": report.faults.retries,
        "faults_injected": report.faults.total_injected,
        "recoveries": report.faults.recoveries,
        "degraded": report.faults.degraded,
    }
    for kind in (
        "nc_data", "nc_adjacency", "txn_data", "record_decision",
        "register_producer", "store_txn",
    ):
        exact[f"bytes.{kind}"] = report.kind_bytes.get(kind, 0)
    quarter = max(1, len(batches) // 4) if batches else 0
    result.update(
        setup_s=meter.setup_seconds(args.spawned_at),
        raw_setup_s=meter.started_at - args.spawned_at,
        clock_s=clock_s,
        raw_clock_s=raw_clock_s,
        generate_s=meter.generate_s,
        speed=clock_s / raw_clock_s if raw_clock_s else 1.0,
        reconcile_ms=meter.scaled_ms(meter.reconciles),
        publish_ms=meter.scaled_ms(meter.publishes),
        decay_ratio=(
            sum(scaled[len(batches) - quarter:len(batches)]) / sum(scaled[:quarter])
            if batches else 0.0
        ),
        attempted=meter.attempted,
        failed=0,
        rss_mb=rss_mb,
        digest=stream.digest(),
        state_ratio=report.state_ratio,
        undecided=undecided,
        exact=exact,
        charged_s=store.perf.simulated_seconds,
        local_s=sum(t.local_seconds for p in confed.participants for t in p.timings),
        gc_gen2=gc.get_stats()[2]["collections"] - gc_before,
        extra=extra,
    )
    if workload.name == "dht-store":
        checks["one_crash_one_recovery"] = (
            report.faults.injected == {"crash": 1}
            and report.faults.recoveries == 1
            and report.faults.degraded == 0
        )
    if tracer is not None:
        spans = tracer.spans()
        result["layers"] = self_times(spans)
        result["traced_counts"] = dict(counts)
        result["clocked_root_s"] = meter.clocked(spans)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(spans))
    if workload.store == "durable":
        result["durable"] = check_durable(confed, db_path, checks)
        if args.verify:
            checks["same_as_memory"] = memory_digest(args, batches) == result["digest"]
    confed.close()
    result["checks"] = checks
    result["attempted"] += len(checks)
    result["failed"] = sum(1 for passed in checks.values() if not passed)
    return result


def check_durable(confed, db_path: Path, checks: Dict[str, bool]):
    """Close, reopen, compare: persistence may cost time, never outcomes."""
    store = confed.store
    stats = store.page_cache_stats()
    count = store.transaction_count()
    durable = {
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "evictions": stats["evictions"],
        "peak_resident": stats["peak_resident"],
        "retired_extensions": store.retired_extension_count(),
    }
    confed.close()
    durable["db_bytes"] = sum(
        os.path.getsize(path)
        for path in (str(db_path), f"{db_path}-wal")
        if os.path.exists(path)
    )
    t0 = perf_counter()
    reopened = DurableUpdateStore(curated_schema(), path=str(db_path))
    durable["reopen_s"] = perf_counter() - t0
    checks["reopen_same_count"] = reopened.transaction_count() == count
    reopened.close()
    remove_database(db_path)
    checks["resident_bounded"] = (
        stats["peak_resident"] <= confed.config.store_options["cache_size"]
    )
    return durable


def remove_database(db_path: Path) -> None:
    """Delete a sqlite database file and its WAL companions."""
    for path in (str(db_path), f"{db_path}-wal", f"{db_path}-shm"):
        if os.path.exists(path):
            os.remove(path)


def memory_digest(args: argparse.Namespace, batches) -> str:
    """The decision digest of the same schedule on the memory store."""
    workload = WORKLOADS["history-memory"]
    confed = Confederation.from_config(
        config_for(workload, args.sub_seed, args.smoke, None)
    )
    stream = DecisionStream().attach(confed.hooks)
    drive_history(confed, Meter(1, None), batches)
    confed.close()
    return stream.digest()


def main(argv: Optional[List[str]] = None) -> int:
    """Run one repetition and print its result as one JSON line."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--sub-seed", type=int, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--verify", type=int, default=0)
    parser.add_argument("--setup-only", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    result = run_rep(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
