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

The accept path has a twin budget of its own: one publisher and one
consumer, single-insert transactions on unique keys — no root shares an
antecedent or a key, so none may be compared, and what a root costs must
not grow with what the others share.

Two more schedules nobody reads a conflict group on — the ``wan-async``
workload's shape, and the ``eval-conflict`` one with store-computed
batches — have budgets of their own and must build no
:class:`~repro.core.conflicts.ConflictGroup` at all: groups are built
when read, and a reconcile does not read them.

A change that trips the budget either made the engine do more (find out
what: the failure lists the most-called functions) or knowingly traded
calls for something else — then re-measure and say so where the budget
is set.  ``.claude/skills/verify/SKILL.md`` has the recipe.
"""

from __future__ import annotations

import cProfile
import sys
from typing import List, Optional, Tuple

import pytest

from repro.confed import Confederation, ConfederationConfig
from repro.core.conflicts import ConflictGroup
from repro.model.transactions import TransactionId
from repro.model.updates import Insert
from repro.workload import WorkloadConfig

#: Calls ``Confederation.run()`` makes on the schedule below, counted per
#: code object (:func:`calls_per_code`): 243,010, plus 2 %, since DoGroup
#: tests each survivor once, the conflict index neither copies a lone
#: bucket nor counts per pair, and CheckState probes the instance's dicts
#: and reads the member set as a field (267,641 before).  265,594 while
#: conflict groups were built only when read (272,743 while every
#: reconcile kept them).  The ``pstats`` total folds the generated
#: dataclass ``__init__``s into one row.  Before that it read 275,714
#: (since flatten traces in one pass), 327,994 in a fresh process before
#: that, 336,323 as of PR 23, 372,491 before that, 548,882 before PR 22.
CALL_BUDGET = 247_870

#: ``direct_conflict_points`` calls among them — pairwise comparisons,
#: all participants: 312 as of PR 23 (538 before it), plus 2 %.
COMPARISON_BUDGET = 318

_IDENTITY_DUNDERS = frozenset(
    f"__{name}__"
    for name in ("hash", "eq", "ne", "lt", "le", "gt", "ge", "getstate", "setstate")
)


def eval_conflict(**overrides) -> ConfederationConfig:
    """The reduced ``eval-conflict`` schedule: 10 peers, three rounds."""
    return ConfederationConfig(
        store="memory",
        peers=tuple(range(1, 11)),
        workload=WorkloadConfig(transaction_size=1, seed=7000),
        reconciliation_interval=4,
        rounds=3,
        final_reconcile=True,
        **overrides,
    )


def wan_async() -> ConfederationConfig:
    """The ``wan-async`` workload's shape — 32 peers, interval 2, the
    async schedule — with no real latency and three rounds."""
    return ConfederationConfig(
        store="memory",
        peers=tuple(range(1, 33)),
        workload=WorkloadConfig(transaction_size=1, seed=7000),
        reconciliation_interval=2,
        rounds=3,
        final_reconcile=True,
        schedule_mode="async",
    )


def profiled_schedule(config: Optional[ConfederationConfig] = None) -> cProfile.Profile:
    """Run ``config`` (the reduced ``eval-conflict`` schedule by default)
    with only ``run()`` under the profiler."""
    config = config or eval_conflict()
    profile = cProfile.Profile()
    with Confederation.from_config(config) as confed:
        profile.enable()
        try:
            confed.run()
        finally:
            profile.disable()
    return profile


def calls_per_code(profile: cProfile.Profile) -> List[Tuple[int, object]]:
    """``(calls, code)`` per code object the profile saw, busiest first
    (``code`` is a string for a builtin).  Not ``pstats``: it keys rows
    by file, line and name, so the generated dataclass ``__init__``s,
    all ``<string>:2``, share one row holding one of their counts, and
    which one can change between runs."""
    return sorted(
        ((entry.callcount, entry.code) for entry in profile.getstats()),
        key=lambda row: -row[0],
    )


def _calls_to(rows: List[Tuple[int, object]], name: str) -> int:
    """Calls to every code object named ``name``."""
    return sum(calls for calls, code in rows if getattr(code, "co_name", None) == name)


def test_the_engine_stays_inside_its_call_budget():
    if sys.getprofile() is not None:
        pytest.skip("another profiler is active: counts would not be comparable")
    rows = calls_per_code(profiled_schedule())
    interpreted = [
        (calls, code)
        for calls, code in rows
        if getattr(code, "co_name", None) in _IDENTITY_DUNDERS
        and code.co_filename.replace("\\", "/").endswith("model/transactions.py")
    ]
    assert not interpreted, f"identity arithmetic re-entered Python: {interpreted}"
    # (Generated dunders live in "<string>", not in the module: the
    # class must not carry any of its own.)
    assert not _IDENTITY_DUNDERS & set(vars(TransactionId))
    listing = "\n".join(
        f"  {calls:>8}  {code}"
        if isinstance(code, str)
        else f"  {calls:>8}  {code.co_filename.rsplit('/', 1)[-1]}:{code.co_firstlineno} "
        f"{code.co_name}"
        for calls, code in rows[:12]
    )
    calls = sum(calls for calls, _code in rows)
    assert calls <= CALL_BUDGET, (
        f"{calls} calls, budget {CALL_BUDGET}; most called:\n{listing}"
    )
    compared = _calls_to(rows, "direct_conflict_points")
    assert 0 < compared <= COMPARISON_BUDGET, (
        f"{compared} pairwise comparisons, budget {COMPARISON_BUDGET}: is "
        "FindConflicts being handed roots CheckState rejected?"
    )


#: Calls the accept-path schedule below makes, counted per code object
#: (:func:`calls_per_code`): 343,864 (167.9 per transaction), plus 2 %,
#: since CheckState probes the instance's dicts and DoGroup tests each
#: survivor once (362,296, 176.9, before).  It was 358,224 (174.9) when
#: last set, 360,353 (176.0) while every reconcile kept conflict groups,
#: and 401,337 (196.0) while a root with no antecedent was still walked
#: and sorted, its updates concatenated and its key index built to be
#: filed.
ACCEPT_CALL_BUDGET = 350_741

#: Epochs x single-insert transactions of the accept-path schedule.
ACCEPT_EPOCHS, ACCEPT_BATCH = 8, 256


def profiled_accept_path() -> cProfile.Profile:
    """Peer 1 publishes ``ACCEPT_BATCH`` single-insert transactions on
    unique keys per epoch and peer 2 reconciles them, with only the
    participants' calls under the profiler (the inputs are built first)."""
    batches = [
        [
            [Insert("F", ("org", f"P{epoch * ACCEPT_BATCH + n:07d}", "fn"), 1)]
            for n in range(ACCEPT_BATCH)
        ]
        for epoch in range(ACCEPT_EPOCHS)
    ]
    profile = cProfile.Profile()
    config = ConfederationConfig(store="memory", peers=(1, 2))
    with Confederation.from_config(config) as confed:
        publisher, consumer = confed.participants
        for batch in batches:
            profile.enable()
            try:
                for updates in batch:
                    publisher.execute(updates)
                publisher.publish()
                consumer.reconcile()
            finally:
                profile.disable()
    return profile


def test_a_root_that_shares_nothing_stays_inside_its_call_budget():
    if sys.getprofile() is not None:
        pytest.skip("another profiler is active: counts would not be comparable")
    rows = calls_per_code(profiled_accept_path())
    calls = sum(calls for calls, _code in rows)
    compared = _calls_to(rows, "direct_conflict_points")
    assert compared == 0, f"{compared} pairwise comparisons on a schedule with no shared key"
    assert calls <= ACCEPT_CALL_BUDGET, (
        f"{calls} calls ({calls / (ACCEPT_EPOCHS * ACCEPT_BATCH):.1f} per transaction), "
        f"budget {ACCEPT_CALL_BUDGET}"
    )


#: The schedules nobody reads a conflict group on: per name, the config,
#: its call budget and its ``direct_conflict_points`` budget — the
#: counts measured in a fresh process, plus 2 %; the comparison budgets
#: are those set once groups were built only when read.  ``wan-async``:
#: 1,079,682 calls since DoGroup tests each survivor once, the index
#: copies no lone bucket and CheckState probes the instance's dicts
#: (1,294,913 before; 1,277,562 when groups were first built only when
#: read, 1,384,056 and 2,485 comparisons while every reconcile kept
#: them), and 2,468 comparisons.  ``eval-conflict`` with store-computed
#: batches: 281,581 calls (310,936 before; 312,404 when last set,
#: 325,848 when each client re-indexed its deferred set only to group
#: it) and 538 comparisons, all of them the store's.
GROUPLESS = {
    "wan-async": (wan_async, 1_101_275, 2_517),
    "eval-conflict-store": (lambda: eval_conflict(network_centric="store"), 287_212, 549),
}


@pytest.mark.parametrize("name", sorted(GROUPLESS))
def test_a_run_that_reads_no_group_builds_none(name, monkeypatch):
    if sys.getprofile() is not None:
        pytest.skip("another profiler is active: counts would not be comparable")
    config, call_budget, comparison_budget = GROUPLESS[name]
    built = []
    init = ConflictGroup.__init__

    def counted(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConflictGroup, "__init__", counted)
    rows = calls_per_code(profiled_schedule(config()))
    assert built == [], f"{len(built)} conflict groups built that nothing read"
    calls = sum(calls for calls, _code in rows)
    assert calls <= call_budget, f"{calls} calls, budget {call_budget}"
    compared = _calls_to(rows, "direct_conflict_points")
    assert 0 < compared <= comparison_budget, (
        f"{compared} pairwise comparisons, budget {comparison_budget}"
    )
