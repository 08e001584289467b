"""A performance number tier-1 can gate on: function calls, not seconds.

Wall time on a shared box swings by a quarter between identical runs;
the number of calls a seeded schedule makes under ``cProfile`` does not
move at all — with or without ``PYTHONHASHSEED``.  So the engine's hot
path is budgeted in calls: a reduced ``eval-conflict`` schedule (the
benchmark's 10 peers on a Zipf key pool, three rounds instead of ten —
well under a second) must stay within 2 % of the count measured when the
budget was last set, must make no Python-level call to hash, compare
or order a :class:`~repro.model.transactions.TransactionId` — the type
is a tuple precisely so that identity arithmetic stays in C — and must
compare no more extension pairs than it did then: the engine withholds
the roots CheckState rejected from FindConflicts, which halved the
pairwise comparisons, and a change that hands them back shows there
long before it shows in the total.

A change that trips the budget either made the engine do more (find out
what: the failure lists the most-called functions) or knowingly traded
calls for something else — then re-measure and say so where the budget
is set.  ``.claude/skills/verify/SKILL.md`` has the recipe.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import pytest

from repro.confed import Confederation, ConfederationConfig
from repro.model.transactions import TransactionId
from repro.workload import WorkloadConfig

#: Calls ``Confederation.run()`` makes on the schedule below: 336,323
#: as of PR 23 (372,491 before it, 548,882 before PR 22), plus 2 %.
CALL_BUDGET = 343_050

#: ``direct_conflict_points`` calls among them — pairwise comparisons,
#: all participants: 312 as of PR 23 (538 before it), plus 2 %.
COMPARISON_BUDGET = 318

_IDENTITY_DUNDERS = frozenset(
    f"__{name}__"
    for name in ("hash", "eq", "ne", "lt", "le", "gt", "ge", "getstate", "setstate")
)


def profiled_schedule() -> pstats.Stats:
    """Run the reduced schedule with only ``run()`` under the profiler."""
    config = ConfederationConfig(
        store="memory",
        peers=tuple(range(1, 11)),
        workload=WorkloadConfig(transaction_size=1, seed=7000),
        reconciliation_interval=4,
        rounds=3,
        final_reconcile=True,
    )
    profile = cProfile.Profile()
    with Confederation.from_config(config) as confed:
        profile.enable()
        try:
            confed.run()
        finally:
            profile.disable()
    return pstats.Stats(profile)


def test_the_engine_stays_inside_its_call_budget():
    if sys.getprofile() is not None:
        pytest.skip("another profiler is active: counts would not be comparable")
    stats = profiled_schedule()
    rows = stats.stats  # (file, line, function) -> (cc, nc, tt, ct, callers)
    interpreted = {
        key: row[1]
        for key, row in rows.items()
        if key[2] in _IDENTITY_DUNDERS
        and key[0].replace("\\", "/").endswith("model/transactions.py")
    }
    assert not interpreted, f"identity arithmetic re-entered Python: {interpreted}"
    # (Generated dunders live in "<string>", not in the module: the
    # class must not carry any of its own.)
    assert not _IDENTITY_DUNDERS & set(vars(TransactionId))
    busiest = sorted(rows.items(), key=lambda item: -item[1][1])[:12]
    listing = "\n".join(
        f"  {row[1]:>8}  {key[0].rsplit('/', 1)[-1]}:{key[1]} {key[2]}"
        for key, row in busiest
    )
    assert stats.total_calls <= CALL_BUDGET, (
        f"{stats.total_calls} calls, budget {CALL_BUDGET}; most called:\n{listing}"
    )
    compared = sum(row[1] for key, row in rows.items() if key[2] == "direct_conflict_points")
    assert 0 < compared <= COMPARISON_BUDGET, (
        f"{compared} pairwise comparisons, budget {COMPARISON_BUDGET}: is "
        "FindConflicts being handed roots CheckState rejected?"
    )
