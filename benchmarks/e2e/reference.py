"""The reference kernel the harness reads this box's current speed from.

The benchmark runs on a shared machine whose effective CPU speed moves
by tens of percent for tens of seconds at a time (measured: the same
schedule, same seed, same process, takes 10.0 to 14.6 s in consecutive
blocks).  No amount of repetition inside a 20-second run averages that
out, so the harness times this fixed kernel in the gaps between clocked
calls — never inside the clock — and scales every clocked duration to
the speed at which the kernel takes :data:`REFERENCE_S`.

The kernel is plain interpreter work of the kind the program does (tuple
keys into a dict, small-object allocation, a sort, a set build) and
touches nothing under ``src/``: a change to the program cannot make it
faster.  It is part of the instrument; a change that claims a gain may
not edit it.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Seconds one kernel pass takes at the speed all times are scaled to
#: (this box in its common fast state).  Only its constancy matters.
REFERENCE_S = 0.001


def _first(value):
    return value[0]


def kernel() -> float:
    """Run one pass; returns its wall seconds.

    The cyclic collector is paused for the pass (its garbage is acyclic):
    a collection triggered here would walk the program's heap, and the
    kernel's time must not depend on how much the program has stored.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        for index in range(3000):
            table[(index % 89, str(index))] = (index, index + 1, [index])
        ordered = sorted(table.values(), key=_first, reverse=True)
        kept = {value[1] for value in ordered if value[0] % 3}
        seconds = perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if len(kept) != 2000:  # keeps the work observable, never true
        raise AssertionError("reference kernel changed")
    return seconds
