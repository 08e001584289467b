#!/usr/bin/env python3
"""The newly opened Figure-3 quadrant: distributed store, network-side work.

The paper's Figure 3 crosses two axes — where the update store lives
(central vs. distributed) and where reconciliation work happens
(client-centric vs. network-centric) — and its implementation left the
"distributed store + network-centric" quadrant as future work: the DHT
shipped raw transactions and every client recomputed every update
extension locally.

Since PR 3 the simulated DHT has shipping parity with the central
stores: transaction controllers derive each transaction's *context-free*
update extension once, at publish time, by collecting the antecedent
closure over the ring, and ship it with root deliveries; a
confederation-wide pair memo lets the first peer to compare two shipped
extensions serve all the others.  PR 5 finished the job: with
``network_centric="store"`` the DHT serves *fully-assembled*
per-participant batches — controllers derive each participant's
extensions against that participant's applied set and the conflict
adjacency arrives precomputed, so the client only checks state, groups,
and applies.  This example runs the quadrant end to end in both flavours
and shows the work moving off the clients.

Run with:  python examples/dht_network_centric.py
"""

from __future__ import annotations

from repro.confed import Confederation, ConfederationConfig, HookBus
from repro.workload import WorkloadConfig


def run(
    ship_context_free: bool,
    schedule_mode: str = "serial",
    network_centric="client",
):
    """One seeded confederation over the DHT; returns (report, confed stats)."""
    config = ConfederationConfig(
        store="dht",
        store_options={"hosts": 6, "ship_context_free": ship_context_free},
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
        bytes_moved = confed.store.network.bytes_delivered
    return report, decisions, bytes_moved


def main() -> None:
    print(
        "The DHT's batches carry context-free extensions and the shared\n"
        "conflict graph: extension derivation happens in the network, once\n"
        "per published transaction, instead of at every client.\n"
    )

    shipped, shipped_decisions, shipped_bytes = run(ship_context_free=True)
    local, local_decisions, local_bytes = run(ship_context_free=False)

    s, l = shipped.cache_stats, local.cache_stats
    print("Client-side extension work (6 peers, 3 rounds, seeded):")
    print(
        f"  shipping on : {s.misses:4d} local computations, "
        f"{s.shipped:4d} adopted from the store, "
        f"pair-memo hit rate {s.pair_hit_rate:.0%}"
    )
    print(
        f"  shipping off: {l.misses:4d} local computations, "
        f"{l.shipped:4d} adopted from the store, "
        f"pair-memo hit rate {l.pair_hit_rate:.0%}"
    )
    print(
        f"  network bytes moved: {shipped_bytes} (shipping) vs "
        f"{local_bytes} (client-computed) — derived data travels instead"
    )
    assert s.shipped > 0, "the store should serve derived extensions"
    assert s.misses < l.misses, "shipping must reduce client computations"
    assert shipped_bytes > local_bytes, "shipped extensions cost bandwidth"

    # Byte-identical decisions: adopting a shipped extension is only
    # legal when it provably equals the local computation.
    assert shipped_decisions == local_decisions
    assert shipped.state_ratio == local.state_ratio
    print("\nDecision streams are byte-identical with shipping on and off.")

    # PR 5: the *fully* network-centric batch — the store derives each
    # participant's extensions against its applied set and assembles the
    # conflict adjacency; the client skips its two heaviest phases.
    nc, nc_decisions, nc_bytes = run(
        ship_context_free=True, network_centric="store"
    )
    n = nc.cache_stats
    print(
        f"\nnetwork_centric='store' (fully-assembled batches):\n"
        f"  {n.misses:4d} local computations, "
        f"{n.shipped:4d} adopted pre-assembled, "
        f"network bytes {nc_bytes}"
    )
    assert n.misses < s.misses, "store-computed batches do the least client work"
    assert nc_decisions == local_decisions
    assert nc.state_ratio == local.state_ratio
    print("Decision streams stay byte-identical with store-computed batches.")

    # The same quadrant under the async epoch scheduler: each peer waits
    # only for its own latency, so the publish-order barrier pipelines,
    # and the global decision stream is reproducible.
    async_a = run(ship_context_free=True, schedule_mode="async")
    async_b = run(ship_context_free=True, schedule_mode="async")
    assert async_a[1] == async_b[1], "async runs must be reproducible"
    print(
        f"Async schedule: {async_a[0].transactions_published} "
        f"transactions published, state ratio "
        f"{async_a[0].state_ratio:.2f}, global decision stream "
        f"reproducible across runs."
    )


if __name__ == "__main__":
    main()
