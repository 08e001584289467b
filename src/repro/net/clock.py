"""Latency clocks: the seam between simulated latency and wall time.

Stores *charge* injected per-message latency to their
:class:`~repro.store.base.PerfCounters` — that ledger is always
simulated time.  Whether the charge is also *paid* in wall time (the
paper's experiments injected the delays for real) is a separate
decision, and this module owns it: every payment in the tree goes
through a :class:`LatencyClock`, never through an inline ``time.sleep``:
latency paid in one place is latency the async schedule can defer.

The epoch schedule (:mod:`repro.confed.scheduler`) runs its work as
*segments*, each one participant's, through :meth:`LatencyClock.segment`,
then waits out what is left with :meth:`LatencyClock.settle`.  The base
class runs a segment at once and has nothing to settle.  Two
implementations:

* :class:`BlockingLatencyClock` — the default on every store: pay by
  blocking the calling thread, so the serial schedule (and any direct
  store use) pays each round trip end to end.
* :class:`AsyncLatencyClock` — swapped in by the ``async`` schedule
  for the duration of a run: a payment made inside a participant's
  segment *accrues* to that segment's debt instead of blocking, and the
  segment's end plus its debt is the time the participant is *due*
  again.  Only that participant's next segment sleeps until then, so
  every other participant's segments run while its latency is
  outstanding.

The store-side entry point is
:meth:`repro.store.base.UpdateStore.pay_latency`, which consults the
store's ``real_latency`` flag and delegates the actual wait to the
store's ``clock`` attribute.
"""

from __future__ import annotations

import abc
import time
from typing import Callable, Dict, Hashable, Optional


class LatencyClock(abc.ABC):
    """How charged simulated latency is converted into wall time."""

    @abc.abstractmethod
    def pay(self, seconds: float) -> None:
        """Pay ``seconds`` of injected latency (caller gates ``> 0``)."""

    def segment(self, key: Hashable, work: Callable[..., object], *args) -> None:
        """Run ``work(*args)`` as one segment of ``key``'s: here at once,
        each payment inside it made as it is charged."""
        work(*args)

    def settle(self) -> None:
        """Wait until no latency is outstanding: here none ever is."""


class BlockingLatencyClock(LatencyClock):
    """Pay latency by blocking the calling thread (the default)."""

    def pay(self, seconds: float) -> None:
        """Block for ``seconds``.

        This module's sleeps are the only sanctioned blocking sleeps in
        the tree: every other module pays latency through a
        :class:`LatencyClock`.
        """
        time.sleep(seconds)


def _sleep_until(deadline: float) -> None:
    """Block until ``time.monotonic()`` reaches ``deadline``."""
    while (wait := deadline - time.monotonic()) > 0:
        time.sleep(wait)


class AsyncLatencyClock(LatencyClock):
    """Accrue latency per participant; each one waits only for its own.

    Work runs as *segments* (:meth:`segment`), one at a time on the
    caller's thread.  :meth:`pay` adds to the open segment's debt, and
    the participant is due again at the segment's end plus that debt —
    a recorded deadline on the monotonic clock.  Only that participant's
    next segment sleeps until it.  A payment made outside any segment
    blocks at once, so latency is never dropped.
    """

    def __init__(self) -> None:
        """Start with nothing due and nothing paid."""
        self._due: Dict[Hashable, float] = {}
        self._debt: Optional[float] = None  # the open segment's, if any
        #: Total seconds charged through this clock and waited out.
        self.total_paid = 0.0

    def pay(self, seconds: float) -> None:
        """Accrue ``seconds`` to the open segment's debt, or block for
        them when no segment is open."""
        if self._debt is None:
            self.total_paid += seconds
            time.sleep(seconds)
        else:
            self._debt += seconds

    @property
    def outstanding(self) -> Dict[Hashable, float]:
        """Participant -> due time, for every one not yet due."""
        now = time.monotonic()
        return {key: due for key, due in self._due.items() if due > now}

    def segment(self, key: Hashable, work: Callable[..., object], *args) -> None:
        """Run ``work(*args)`` as one segment of ``key``'s once ``key``
        is due; the segment's debt is ``key``'s alone."""
        _sleep_until(self._due.get(key, 0.0))
        self._debt = 0.0
        try:
            work(*args)
        finally:
            debt, self._debt = self._debt, None
            self._due[key] = time.monotonic() + debt
            self.total_paid += debt

    def settle(self) -> None:
        """Wait until no participant has latency outstanding."""
        _sleep_until(max(self._due.values(), default=0.0))
