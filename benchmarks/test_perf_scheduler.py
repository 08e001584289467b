"""Epoch-scheduler perf: async vs serial.

The serial schedule pays every store wait end to end: while one
participant's messages cross the (simulated) wire, sixty-three others
sit idle (``real_latency=True`` makes the paper's injected delays real
instead of merely accounted; see
:meth:`repro.store.base.UpdateStore.pay_latency`).  The async scheduler
runs the same work in one deadline loop on the caller's thread and lets
each participant wait only for its own latency: each participant's
store phase still executes in ascending id order, but its latency debt
becomes a deadline that only its next segment sleeps until, overlapping
participant *i*'s wait with participant *i+1*'s allocation — the
publish barrier pipelines.  The benchmark
point prices exactly that regime — 64 peers, 4 ms per message — and
pins the async schedule at a fraction of the serial wall clock.

Decisions are unaffected by sleeping, so the pin is pure wall clock on
identical schedule volume.  The point is emitted as
``BENCH_scheduler.json`` at the repository root, gated by
``benchmarks/check_regression.py`` against
``benchmarks/BENCH_baseline.json`` and uploaded as a CI artifact.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.confed import Confederation, ConfederationConfig
from repro.workload import WorkloadConfig

from benchmarks.conftest import emit

ROUNDS = 2
INTERVAL = 2
#: Enough peers that the serialized publish barrier dominates, and
#: wide-area latency per message.
PEERS = 64
LATENCY = 0.004
#: The async schedule must run in at most this fraction of the serial
#: wall clock (measured ≈ 0.2: the serial run pays every round trip in
#: turn, the pipelined one about one per phase).
ASYNC_WALL_CLOCK_CEILING = 0.5

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"


def _run(schedule_mode: str):
    config = ConfederationConfig(
        store="memory",
        store_options={"message_latency": LATENCY, "real_latency": True},
        peers=tuple(range(1, PEERS + 1)),
        reconciliation_interval=INTERVAL,
        rounds=ROUNDS,
        final_reconcile=True,
        schedule_mode=schedule_mode,
        workload=WorkloadConfig(transaction_size=1, seed=91),
    )
    started = time.perf_counter()
    with Confederation.from_config(config) as confederation:
        report = confederation.run()
    return time.perf_counter() - started, report


def test_async_scheduler_pipelines_the_publish_barrier(benchmark):
    serial_wall, serial_report = _run("serial")
    async_wall, async_report = benchmark.pedantic(
        lambda: _run("async"), rounds=1, iterations=1
    )
    ratio = async_wall / serial_wall
    speedup = serial_wall / async_wall

    emit(
        f"Epoch scheduler — {PEERS} peers, memory store with real "
        f"{LATENCY * 1000:.0f} ms/message latency:\n"
        f"  serial   : {serial_wall:7.3f} s wall\n"
        f"  async    : {async_wall:7.3f} s wall\n"
        f"  ratio    : {ratio:7.2f} (ceiling {ASYNC_WALL_CLOCK_CEILING}, "
        f"speedup {speedup:.2f}x)"
    )

    point = {
        "schema_version": 1,
        "benchmark": "epoch_scheduler",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": {
            "peers": PEERS,
            "interval": INTERVAL,
            "rounds": ROUNDS,
            "seed": 91,
            "store": "memory",
            "message_latency": LATENCY,
        },
        "serial_wall_seconds": serial_wall,
        "async_wall_seconds": async_wall,
        "async_vs_serial_ratio": ratio,
        "speedup": speedup,
        "transactions_published": async_report.transactions_published,
        "state_ratio": async_report.state_ratio,
        "budgets_note": "async_vs_serial_ratio budget lives in the baseline",
    }
    _BENCH_JSON.write_text(json.dumps(point, indent=2) + "\n")
    benchmark.extra_info.update(point)

    # Same schedule volume either way; only the wall clock may differ.
    assert (
        async_report.transactions_published
        == serial_report.transactions_published
    )
    assert async_report.scheduler == "async"
    assert ratio <= ASYNC_WALL_CLOCK_CEILING, (
        f"async schedule took {ratio:.2f}x the serial wall clock "
        f"(ceiling {ASYNC_WALL_CLOCK_CEILING})"
    )
