"""Figure 3, quantified: client-centric vs. network-centric reconciliation.

Figure 3 is the paper's qualitative trade-off matrix.  For the central
store we implement both columns, so the trade-off it asserts becomes
measurable: network-centric reconciliation shifts work from the client to
the store (local time drops, store-side communication grows), with
identical decisions.
"""

from __future__ import annotations

import gc

from repro.confed import Confederation, ConfederationConfig
from repro.workload import WorkloadConfig, WorkloadGenerator

from benchmarks.conftest import emit


def run_mode(network_centric: str):
    # Start from a collected heap: a full collection owed to what earlier
    # tests in the session left behind would otherwise land in whichever
    # run trips it and count as that mode's local reconciliation time.
    gc.collect()
    config = ConfederationConfig(
        store="memory",
        peers=tuple(range(1, 9)),
        network_centric=network_centric,
    )
    confederation = Confederation.from_config(config)
    store = confederation.store
    participants = confederation.participants

    generator = WorkloadGenerator(WorkloadConfig(transaction_size=2, seed=5))
    for _round in range(4):
        for participant in participants:
            for _ in range(4):
                updates = generator.transaction_updates(
                    participant.id, participant.instance
                )
                if updates:
                    participant.execute(updates)
            participant.publish_and_reconcile()

    local = sum(p.total_local_seconds() for p in participants)
    messages = store.perf.messages
    decisions = {
        p.id: (
            sorted(map(str, p.state.applied)),
            sorted(map(str, p.state.rejected)),
            sorted(map(str, p.state.deferred)),
        )
        for p in participants
    }
    return local, messages, decisions


def test_fig3_network_centric_trades_communication_for_local_work(benchmark):
    client_local, client_messages, client_decisions = benchmark.pedantic(
        lambda: run_mode("client"), rounds=1, iterations=1
    )
    network_local, network_messages, network_decisions = run_mode("store")

    emit(
        "Figure 3 quantified — central store, 8 peers:\n"
        f"  client-centric : local {client_local * 1000:8.1f} ms, "
        f"{client_messages} messages\n"
        f"  network-centric: local {network_local * 1000:8.1f} ms, "
        f"{network_messages} messages"
    )

    # Identical outcomes; the modes differ only in where work happens.
    assert client_decisions == network_decisions
    # Network-centric does less work at the client...
    assert network_local < client_local
    # ...and pays for it in communication with the store.
    assert network_messages > client_messages
    benchmark.extra_info["client_local_ms"] = client_local * 1000
    benchmark.extra_info["network_local_ms"] = network_local * 1000
