#!/usr/bin/env python3
"""The distributed (DHT-based) update store, end to end.

Runs the same small confederation against the simulated Pastry-style
store of Section 5.2.2 and shows what the paper's Figures 6 and 7 look
like operationally: epochs allocated through the epoch allocator,
transactions scattered across controllers by consistent hashing, and
reconciliation traffic — messages and simulated latency — accounted
per peer.

Run with:  python examples/distributed_store.py
"""

from __future__ import annotations

from repro.confed import Confederation, ConfederationConfig
from repro.model import Insert, Modify


def main() -> None:
    # The DHT backend by registry name.  Its batches carry context-free
    # extensions and the shared conflict graph — extension derivation
    # happens in the network (see
    # examples/dht_network_centric.py for that quadrant in depth).
    config = ConfederationConfig(
        store="dht", store_options={"hosts": 6}, peers=(1, 2, 3)
    )
    confed = Confederation.from_config(config)
    store = confed.store
    p1, p2, p3 = confed.participants

    # p1 curates a protein with a follow-up correction.
    p1.execute([Insert("F", ("rat", "prot1", "glucose metabolism"), 1)])
    p1.execute(
        [
            Modify(
                "F",
                ("rat", "prot1", "glucose metabolism"),
                ("rat", "prot1", "glycogen biosynthesis"),
                1,
            )
        ]
    )
    epoch = p1.publish()
    print(f"p1 published epoch {epoch} through the epoch allocator")
    p1.reconcile()

    # Where did everything land on the ring?
    print("\nRing placement:")
    for host_name, host in sorted(store._hosts.items()):
        roles = []
        if host.epoch_counter:
            roles.append(f"epoch allocator (counter={host.epoch_counter})")
        if host.epochs:
            roles.append(f"epoch controller for {sorted(host.epochs)}")
        if host.txns:
            ids = ", ".join(str(t) for t in sorted(host.txns))
            roles.append(f"transaction controller for {ids}")
        if roles:
            print(f"  {host_name}: " + "; ".join(roles))

    # p2 reconciles: watch the retrieval protocol's cost.
    before = store.perf.snapshot()
    result = p2.publish_and_reconcile()
    delta = store.perf.minus(before)
    print(f"\np2 reconciled: {result.summary()}")
    print(
        f"  messages: {delta.messages}, simulated network time: "
        f"{delta.simulated_seconds * 1000:.2f} ms"
    )
    assert p2.instance.contains_row("F", ("rat", "prot1", "glycogen biosynthesis"))

    # p3 modifies p2's imported copy; p1 then imports a chain that
    # crosses three peers, fetched by antecedent-forwarding (Figure 7).
    p3.publish_and_reconcile()
    p3.execute(
        [
            Modify(
                "F",
                ("rat", "prot1", "glycogen biosynthesis"),
                ("rat", "prot1", "glycogen catabolism"),
                3,
            )
        ]
    )
    p3.publish_and_reconcile()

    before = store.perf.snapshot()
    result = p1.publish_and_reconcile()
    delta = store.perf.minus(before)
    print(f"\np1 imported the cross-peer chain: {result.summary()}")
    print(
        f"  messages: {delta.messages}, simulated network time: "
        f"{delta.simulated_seconds * 1000:.2f} ms"
    )
    print(f"  p1's row: {p1.instance.get('F', ('rat', 'prot1'))}")
    assert p1.instance.contains_row("F", ("rat", "prot1", "glycogen catabolism"))

    # p2 catches up on p3's revision; now everyone agrees.
    p2.publish_and_reconcile()
    print(f"\nAfter p2 catches up, state ratio = {confed.state_ratio():.2f}")
    assert confed.state_ratio() == 1.0


if __name__ == "__main__":
    main()
