"""Figure 9: the effect of reconciliation interval on state ratio.

Paper's shape: reconciling less frequently (more size-1 transactions
between reconciliations) slightly increases the state ratio — longer
unsynchronised transaction chains conflict more.  The rise is gentle:
from about 1.2 at interval 1 to about 2 at interval 20.
"""

from __future__ import annotations

from benchmarks.bench import fig9_rows, format_table

from benchmarks.conftest import emit

INTERVALS = (1, 2, 4, 8, 12, 16, 20)


def test_fig9_reconciliation_interval_vs_state_ratio(benchmark):
    rows = benchmark.pedantic(
        lambda: fig9_rows(intervals=INTERVALS, transactions_per_peer=40),
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            "Figure 9 — reconciliation interval vs state ratio "
            "(10 peers, size-1 transactions)",
            ["interval", "state ratio"],
            rows,
        )
    )
    ratios = dict(rows)
    benchmark.extra_info["rows"] = rows

    # Shape: infrequent reconciliation diverges more than frequent.
    assert ratios[INTERVALS[-1]] > ratios[1]
    # The most synchronised configuration stays close to agreement.
    assert ratios[1] < 1.8
    # The rise is gentle, not explosive.
    assert ratios[INTERVALS[-1]] < 4.0
