"""Figure 12: the effect on reconciliation time as peers are added.

Paper's shape: average time per reconciliation grows with the number of
participants for both stores (more transactions to consider and, for the
DHT, more messages), with the distributed store paying more store time
than the central one; reconciliation nevertheless stays inexpensive.
"""

from __future__ import annotations

from benchmarks.bench import fig12_rows, format_table

from benchmarks.conftest import emit

PEERS = (10, 25, 50)


def test_fig12_participants_vs_reconciliation_time(benchmark):
    rows = benchmark.pedantic(
        lambda: fig12_rows(peer_counts=PEERS, interval=4, rounds=2),
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            "Figure 12 — average time per reconciliation "
            "(interval 4, size-1 transactions)",
            ["peers", "store", "store s", "local s", "total s"],
            rows,
        )
    )
    benchmark.extra_info["rows"] = rows
    totals = {(peers, store): total for peers, store, _s, _l, total in rows}
    store_s = {(peers, store): s for peers, store, s, _l, _t in rows}

    # Shape 1: cost per reconciliation grows with the confederation size.
    for store in ("central", "distributed"):
        assert totals[(50, store)] > totals[(10, store)]

    # Shape 2: the distributed store pays more store time than the central
    # store at every scale (message traffic).
    for peers in PEERS:
        assert store_s[(peers, "distributed")] > store_s[(peers, "central")]
