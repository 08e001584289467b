"""Durable-store perf: what full persistence costs at history scale (PR 9).

The ``durable`` backend keeps the entire update history — four times the
shared-memo retention limit and then some — on a database file while
holding only a bounded LRU of transaction bodies in RAM.  This benchmark
prices that against the ``memory`` store on an identical schedule:

* one publisher streams ``EPOCHS x BATCH`` (>= 262144, i.e. 4x the
  65536-entry shared-memo limit) single-insert transactions with unique
  keys — 64 publication epochs;
* a second participant reconciles after every epoch, so every body pages
  from disk through the LRU and every fully-decided extension retires —
  dropped from the shared memo, as on every log: the file holds facts,
  never derived data.

The runs must emit **byte-identical decision streams** — persistence may
only cost time, never outcomes — and the durable store's resident body
count must stay pinned at the configured cache capacity, not the history
size.  The gated ``speedup`` is ``memory_wall / durable_wall`` (both
sides measured in this process on this host, so the ratio is
machine-relative); the ``peak_resident`` budget is absolute — the
bounded-memory claim has no tolerance.

A final reopen of the finished database times crash recovery: O(delta)
counter reloads, never a full-history replay, so it must stay orders of
magnitude under the run itself.

Emits ``BENCH_durable.json`` at the repository root, gated by
``benchmarks/check_regression.py`` against
``benchmarks/BENCH_baseline.json`` and uploaded as a CI artifact.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.model import Insert
from repro.store import DurableUpdateStore
from repro.workload import curated_schema

from benchmarks.conftest import emit

EPOCHS = 64
BATCH = 4096
TOTAL = EPOCHS * BATCH  # 262144 = 4x the shared-memo retention limit
CACHE_SIZE = 1024
#: Crash recovery reloads counters, never the history: reopening the
#: finished multi-hundred-MB database must stay under this many seconds.
REOPEN_CEILING_SECONDS = 2.0

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_durable.json"


def _run(store_name, store_options):
    """The publish/reconcile schedule; returns wall time and outcomes."""
    config = ConfederationConfig(
        store=store_name, store_options=store_options, peers=(1, 2)
    )
    decisions = []
    hooks = HookBus()
    hooks.on_decision(
        lambda **kw: decisions.append(
            (kw["participant"], kw["recno"], str(kw["tid"]), str(kw["decision"]))
        )
    )
    with Confederation(config, hooks=hooks) as confed:
        publisher = confed.participant(1)
        consumer = confed.participant(2)
        start = time.perf_counter()
        serial = 0
        for _epoch in range(EPOCHS):
            for _ in range(BATCH):
                publisher.execute(
                    [Insert("F", (f"k{serial:07d}", f"p{serial:07d}", "bench"), 1)]
                )
                serial += 1
            publisher.publish()
            consumer.reconcile()
        wall = time.perf_counter() - start
        published = confed.store.transaction_count()
        if store_name == "durable":
            cache_stats = confed.store.page_cache_stats()
            retired = confed.store.retired_extension_count()
        else:
            cache_stats = None
            retired = None
    return wall, decisions, published, cache_stats, retired


def test_perf_durable_history_scale(benchmark, tmp_path):
    db_path = tmp_path / "durable-bench.db"
    memory_wall, memory_decisions, memory_published, _, _ = _run("memory", {})
    (
        durable_wall,
        durable_decisions,
        durable_published,
        cache_stats,
        retired,
    ) = benchmark.pedantic(
        lambda: _run(
            "durable", {"path": str(db_path), "cache_size": CACHE_SIZE}
        ),
        rounds=1,
        iterations=1,
    )

    reopen_start = time.perf_counter()
    reopened = DurableUpdateStore(curated_schema(), path=str(db_path))
    reopen_seconds = time.perf_counter() - reopen_start
    recovered_versions = dict(reopened._applied_versions)
    reopened.close()

    speedup = memory_wall / durable_wall
    db_bytes = db_path.stat().st_size

    emit(
        f"Durable store — {TOTAL} transactions over {EPOCHS} epochs, "
        f"page cache {CACHE_SIZE}:\n"
        f"  memory  : {memory_wall:8.2f}s "
        f"({memory_published / memory_wall:8.0f} txn/s)\n"
        f"  durable : {durable_wall:8.2f}s "
        f"({durable_published / durable_wall:8.0f} txn/s, "
        f"{speedup:.2f}x of memory)\n"
        f"  on disk : {db_bytes / 1e6:.1f} MB, {retired} retired "
        f"extensions; resident bodies peaked at "
        f"{cache_stats['peak_resident']} (capacity {CACHE_SIZE})\n"
        f"  reopen  : {reopen_seconds * 1e3:.1f} ms "
        f"(ceiling {REOPEN_CEILING_SECONDS}s)"
    )

    point = {
        "schema_version": 1,
        "benchmark": "durable_history_scale",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": {
            "epochs": EPOCHS,
            "batch": BATCH,
            "total_transactions": TOTAL,
            "cache_size": CACHE_SIZE,
            "store": "durable",
        },
        "published_transactions": durable_published,
        "memory_wall_seconds": memory_wall,
        "durable_wall_seconds": durable_wall,
        "durable_txns_per_second": durable_published / durable_wall,
        "speedup": speedup,
        "reopen_seconds": reopen_seconds,
        "db_bytes": db_bytes,
        "retired_extensions": retired,
        "peak_resident": cache_stats["peak_resident"],
        "page_cache": cache_stats,
    }
    _BENCH_JSON.write_text(json.dumps(point, indent=2) + "\n")
    benchmark.extra_info.update(point)

    # The scale floor: four times the shared-memo retention limit.
    assert durable_published >= 262144
    assert memory_published == durable_published
    # Persistence changes cost, never outcomes: the decision streams —
    # order included — are byte-identical.
    assert durable_decisions == memory_decisions
    # Bounded memory: resident bodies pinned at the cache capacity while
    # the history is 256x larger, and retention let every extension go.
    assert cache_stats["peak_resident"] <= CACHE_SIZE
    assert cache_stats["evictions"] > 0
    assert retired == TOTAL
    # Crash recovery is O(delta): counters reloaded, no history replay.
    assert reopen_seconds < REOPEN_CEILING_SECONDS
    assert recovered_versions and all(
        v > 0 for p, v in recovered_versions.items() if p == 2
    )
