"""DHT perf: fully network-centric batches vs the client-computed store.

PR 5 closed the last quadrant of the paper's Figure 3: the distributed
store now assembles each participant's reconciliation batch — update
extensions derived against that participant's applied set, plus the
pairwise conflict adjacency — inside the (simulated) network.  Figure 3
predicts the trade: client-side reconciliation work drops, communication
rises.  This benchmark quantifies both on a 16-peer DHT run and pins the
client-side win:

* **store-computed** — ``network_centric="store"`` over the default DHT;
* **client-computed** — the paper's distributed store
  (``ship_context_free=False``): every client derives every extension
  and runs conflict detection locally.

Decisions must be byte-identical (the store-side derivation is only
legal because it provably equals the client's own computation); only
where the work happens may differ.

Emits ``BENCH_dht_nc.json`` at the repository root — a machine-readable
trajectory point gated by ``benchmarks/check_regression.py`` against
``benchmarks/BENCH_baseline.json`` and uploaded as a CI artifact
alongside the other ``BENCH_*.json`` points.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.workload import WorkloadConfig

from benchmarks.check_regression import DEFAULT_BASELINE, baseline_points
from benchmarks.conftest import emit

PEERS = 16
HOSTS = 8
INTERVAL = 2
ROUNDS = 2
SEED = 73
#: Store-computed batches must leave the client at most this fraction of
#: the client-computed mode's local reconcile seconds (conservative; see
#: the committed baseline for the measured ratio).
LOCAL_SECONDS_CEILING = 0.60

#: The PR 8 wire-protocol budgets: batched verdict queries, coalesced
#: ``nc_data``, and digest-token delta re-ships must hold the Figure-3
#: communication trade at or below these multiples of the
#: client-computed mode (down from the honest 2.9x / 2.2x the
#: per-member protocol paid).  Gated here and by check_regression.py
#: against the committed baseline's budget entries.
MESSAGE_RATIO_CEILING = 1.8
BYTE_RATIO_CEILING = 1.5

#: Seeded and exact: these must *equal* the committed baseline entry, so
#: a refactor of the store cannot move a message or a byte unnoticed.
WIRE_FIELDS = ("client_messages", "store_messages", "client_bytes", "store_bytes")

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_dht_nc.json"


def _run(network_centric, ship_context_free=True):
    config = ConfederationConfig(
        store="dht",
        store_options={"hosts": HOSTS, "ship_context_free": ship_context_free},
        peers=tuple(range(1, PEERS + 1)),
        reconciliation_interval=INTERVAL,
        rounds=ROUNDS,
        final_reconcile=True,
        network_centric=network_centric,
        workload=WorkloadConfig(transaction_size=2, seed=SEED),
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


def test_perf_dht_store_computed_batches(benchmark):
    client_report, client_decisions, client_msgs, client_bytes = _run(
        network_centric="client", ship_context_free=False
    )
    store_report, store_decisions, store_msgs, store_bytes = benchmark.pedantic(
        lambda: _run(network_centric="store"), rounds=1, iterations=1
    )

    client_local = client_report.mean_local_seconds_per_reconciliation
    store_local = store_report.mean_local_seconds_per_reconciliation
    ratio = store_local / client_local if client_local else float("inf")
    speedup = 1.0 / ratio if ratio else float("inf")
    client_stats = client_report.cache_stats
    store_stats = store_report.cache_stats
    message_ratio = store_msgs / client_msgs
    byte_ratio = store_bytes / client_bytes

    emit(
        f"DHT network-centric — {PEERS} peers / {HOSTS} hosts, "
        f"local s per reconciliation:\n"
        f"  client-computed : {client_local * 1000:8.2f} ms "
        f"({client_stats.misses} local extension computations, "
        f"{client_msgs} fragments, {client_bytes} bytes)\n"
        f"  store-computed  : {store_local * 1000:8.2f} ms "
        f"({store_stats.misses} local extension computations, "
        f"{store_stats.shipped} adopted pre-assembled, "
        f"{store_msgs} fragments, {store_bytes} bytes)\n"
        f"  local ratio     : {ratio:8.2f} "
        f"(ceiling {LOCAL_SECONDS_CEILING}), speedup {speedup:.2f}x\n"
        f"  wire trade      : {message_ratio:.2f}x messages "
        f"(budget {MESSAGE_RATIO_CEILING}x), {byte_ratio:.2f}x bytes "
        f"(budget {BYTE_RATIO_CEILING}x)"
    )

    point = {
        "schema_version": 2,
        "benchmark": "dht_network_centric",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": {
            "peers": PEERS,
            "hosts": HOSTS,
            "interval": INTERVAL,
            "rounds": ROUNDS,
            "seed": SEED,
            "store": "dht",
        },
        "client_computed_local_seconds_per_reconciliation": client_local,
        "store_computed_local_seconds_per_reconciliation": store_local,
        "speedup": speedup,
        "client_messages": client_msgs,
        "store_messages": store_msgs,
        "client_bytes": client_bytes,
        "store_bytes": store_bytes,
        "message_ratio": message_ratio,
        "byte_ratio": byte_ratio,
        # The per-kind protocol mix of both modes — where the wire
        # budget actually goes (report() mirrors Network.kind_counts /
        # kind_bytes; see examples/quickstart.py §12).
        "client_kind_counts": client_report.kind_counts,
        "client_kind_bytes": client_report.kind_bytes,
        "store_kind_counts": store_report.kind_counts,
        "store_kind_bytes": store_report.kind_bytes,
        "store_cache_stats": store_stats.as_dict(),
        "state_ratio": store_report.state_ratio,
    }
    _BENCH_JSON.write_text(json.dumps(point, indent=2) + "\n")
    benchmark.extra_info.update(point)

    # Identical outcomes: the decision stream, order included.
    assert store_decisions == client_decisions
    assert store_report.state_ratio == client_report.state_ratio
    # The wire did not move: every count equals the committed baseline.
    baseline = baseline_points(DEFAULT_BASELINE)["dht_network_centric"]
    assert {name: point[name] for name in WIRE_FIELDS} == {
        name: baseline[name] for name in WIRE_FIELDS
    }
    # Figure 3's trade, measured: the client does materially less...
    assert ratio <= LOCAL_SECONDS_CEILING, (
        f"store-computed batches left the client {ratio:.2f}x of the "
        f"client-computed local time (ceiling {LOCAL_SECONDS_CEILING})"
    )
    assert store_stats.misses < client_stats.misses
    # ...and the network carries more — but the PR 8 wire pass keeps
    # the trade within budget, and every deferral round's pairwise
    # conflict pricing hits the per-participant assembly memo.
    assert store_bytes > client_bytes
    assert message_ratio <= MESSAGE_RATIO_CEILING, (
        f"store-computed mode paid {message_ratio:.2f}x the "
        f"client-computed messages (budget {MESSAGE_RATIO_CEILING}x)"
    )
    assert byte_ratio <= BYTE_RATIO_CEILING, (
        f"store-computed mode paid {byte_ratio:.2f}x the "
        f"client-computed bytes (budget {BYTE_RATIO_CEILING}x)"
    )
    assert store_stats.pair_hits > 0
    # The delta layer really fires: digest tokens flow on the wire.
    assert store_report.kind_counts.get("nc_unchanged", 0) > 0
