"""Figure 8: the effect of transaction size on state ratio.

Paper's shape: going from single-update transactions to two-update
transactions sharply increases the state ratio; further size increases
have negligible effect (the curve plateaus between roughly 2.5 and 3.5).
"""

from __future__ import annotations

from benchmarks.bench import fig8_rows, format_table

from benchmarks.conftest import emit

SIZES = (1, 2, 3, 4, 6, 8, 10)


def test_fig8_transaction_size_vs_state_ratio(benchmark):
    rows = benchmark.pedantic(
        lambda: fig8_rows(sizes=SIZES, updates_between_recons=8, rounds=5),
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            "Figure 8 — transaction size vs state ratio "
            "(10 peers, 8 updates between reconciliations)",
            ["txn size", "state ratio"],
            rows,
        )
    )
    ratios = dict(rows)
    benchmark.extra_info["rows"] = rows

    # Shape 1: multi-update transactions fragment state noticeably more
    # than single-update ones.
    assert ratios[2] > ratios[1]

    # Shape 2: beyond size 2 the curve plateaus — every larger size stays
    # within a modest band of the size-2 ratio, far below linear growth.
    for size in SIZES[1:]:
        assert ratios[size] <= ratios[2] * 1.6
        assert ratios[size] >= ratios[1]

    # Sanity: ratios live in [1, #peers].
    for ratio in ratios.values():
        assert 1.0 <= ratio <= 10.0
