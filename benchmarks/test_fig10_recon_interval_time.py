"""Figure 10: reconciliation interval vs. total reconciliation time per
participant, split into store time and local time, for both stores.

Paper's shape: with the central store, small reconciliation intervals
(many reconciliations) are significantly more expensive in total; with
the distributed store the total is dominated by per-transaction message
traffic (antecedent chasing), so the penalty for frequent reconciliation
is negligible.  Store time dominates local time in both.
"""

from __future__ import annotations

from benchmarks.bench import fig10_rows, format_table

from benchmarks.conftest import emit

INTERVALS = (4, 20, 48)
TXNS_PER_PEER = 48


def test_fig10_interval_vs_total_reconciliation_time(benchmark):
    rows = benchmark.pedantic(
        lambda: fig10_rows(
            intervals=INTERVALS, transactions_per_peer=TXNS_PER_PEER
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            "Figure 10 — total reconciliation time per participant (10 peers, "
            f"{TXNS_PER_PEER} size-1 txns per peer)",
            ["interval", "store", "store s", "local s", "total s"],
            rows,
        )
    )
    benchmark.extra_info["rows"] = rows
    totals = {(ri, store): total for ri, store, _s, _l, total in rows}
    store_time = {(ri, store): s for ri, store, s, _l, _t in rows}

    # Shape 1: for the central store, reconciling at interval 4 (12x more
    # reconciliations) pays clearly more *store* time than interval 48 —
    # the per-reconciliation round-trip cost that drives the paper's
    # central-store curve.  (Local time is workload compute, roughly
    # constant in total across intervals, and wall-clock noisy; the store
    # component is where the figure's effect lives.)
    assert store_time[(4, "central")] > store_time[(48, "central")] * 1.5

    # Shape 2: the distributed store's penalty for frequent reconciliation
    # is comparatively small — its cost tracks the transaction volume.
    central_spread = store_time[(4, "central")] / store_time[(48, "central")]
    distributed_spread = (
        store_time[(4, "distributed")] / store_time[(48, "distributed")]
    )
    assert distributed_spread < central_spread

    # Shape 3: the distributed store is store-time dominated at every
    # interval (antecedent-chasing messages dominate).
    for interval in INTERVALS:
        row_total = totals[(interval, "distributed")]
        assert store_time[(interval, "distributed")] > row_total * 0.5
