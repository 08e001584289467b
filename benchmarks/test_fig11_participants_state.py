"""Figure 11: the change in state ratio as the number of peers grows.

Paper's shape: more participants means more (mutually conflicting)
updates, so the state ratio grows — but decidedly sublinearly in the
number of peers, "indicating a high level of sharing among even large
numbers of peers".
"""

from __future__ import annotations

from benchmarks.bench import fig11_rows, format_table

from benchmarks.conftest import emit

PEERS = (5, 10, 20, 35, 50)


def test_fig11_participants_vs_state_ratio(benchmark):
    rows = benchmark.pedantic(
        lambda: fig11_rows(peer_counts=PEERS, interval=4, rounds=2),
        rounds=1,
        iterations=1,
    )
    emit(
        format_table(
            "Figure 11 — number of participants vs state ratio "
            "(interval 4, size-1 transactions)",
            ["peers", "state ratio"],
            rows,
        )
    )
    ratios = dict(rows)
    benchmark.extra_info["rows"] = rows

    # Shape 1: divergence grows with the confederation size.
    assert ratios[50] > ratios[5]

    # Shape 2: growth is decidedly sublinear — scaling peers 10x scales
    # the ratio far less than 10x.
    assert ratios[50] / ratios[5] < 10 * 0.5

    # Sanity: every ratio is within [1, peers].
    for peers, ratio in rows:
        assert 1.0 <= ratio <= peers
