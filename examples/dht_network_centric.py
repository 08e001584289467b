#!/usr/bin/env python3
"""The newly opened Figure-3 quadrant: distributed store, network-side work.

The paper's Figure 3 crosses two axes — where the update store lives
(central vs. distributed) and where reconciliation work happens
(client-centric vs. network-centric) — and its implementation left the
"distributed store + network-centric" quadrant as future work: the DHT
shipped raw transactions and every client recomputed every update
extension locally.

The simulated DHT keeps that client-centric path as the paper built it,
and adds the other one: with ``network_centric="store"`` it serves
*fully-assembled* per-participant batches — transaction controllers
derive each participant's extensions against that participant's applied
set over the ring, and the conflict adjacency arrives precomputed, so
the client only checks state, groups, and applies.  This example runs
the quadrant end to end both ways and shows the work moving off the
clients, and what the network pays for it.

Run with:  python examples/dht_network_centric.py
"""

from __future__ import annotations

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.workload import WorkloadConfig


def run(network_centric: str, schedule_mode: str = "serial"):
    """One seeded confederation over the DHT; returns (report, decisions,
    messages, bytes moved)."""
    config = ConfederationConfig(
        store="dht",
        store_options={"hosts": 6},
        peers=tuple(range(1, 7)),
        reconciliation_interval=3,
        rounds=3,
        final_reconcile=True,
        schedule_mode=schedule_mode,
        network_centric=network_centric,
        workload=WorkloadConfig(transaction_size=2, seed=31),
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


def main() -> None:
    print(
        "Client-computed batches carry transaction bodies; store-computed\n"
        "batches carry each participant's extensions and conflict edges,\n"
        "derived by the transaction controllers over the ring.  Both carry\n"
        "the store's shared conflict graph, where a client adopts what\n"
        "another already derived.\n"
    )

    client, client_decisions, client_msgs, client_bytes = run("client")
    store, store_decisions, store_msgs, store_bytes = run("store")

    c, s = client.cache_stats, store.cache_stats
    print("Client-side extension work (6 peers, 3 rounds, seeded):")
    print(
        f"  client-computed: {c.misses:4d} local computations, "
        f"{c.shipped:4d} adopted from another client"
    )
    print(
        f"  store-computed : {s.misses:4d} local computations, "
        f"{s.shipped:4d} adopted from the store or another client"
    )
    print(
        f"  network: {client_msgs} messages / {client_bytes} bytes "
        f"(client-computed) vs {store_msgs} / {store_bytes} (store-computed)"
    )
    assert s.shipped > 0, "the store should serve derived extensions"
    assert s.misses < c.misses, "store-computed batches do less client work"
    assert store_msgs > client_msgs, "derived data travels instead"

    # Byte-identical decisions: adopting a store-computed extension is
    # only legal because it provably equals the local computation.
    assert store_decisions == client_decisions
    assert store.state_ratio == client.state_ratio
    print("\nDecision streams are byte-identical either way.")

    # The same quadrant under the async epoch scheduler: each peer waits
    # only for its own latency, so the publish-order barrier pipelines,
    # and the global decision stream is reproducible.
    async_a = run("store", schedule_mode="async")
    async_b = run("store", schedule_mode="async")
    assert async_a[1] == async_b[1], "async runs must be reproducible"
    print(
        f"Async schedule: {async_a[0].transactions_published} "
        f"transactions published, state ratio "
        f"{async_a[0].state_ratio:.2f}, global decision stream "
        f"reproducible across runs."
    )


if __name__ == "__main__":
    main()
