"""Latency clocks: the seam between simulated latency and wall time.

Stores *charge* injected per-message latency to their
:class:`~repro.store.base.PerfCounters` — that ledger is always
simulated time.  Whether the charge is also *paid* in wall time (the
paper's experiments injected the delays for real) is a separate
decision, and this module owns it: every payment in the tree goes
through a :class:`LatencyClock`, never through an inline ``time.sleep``
(rule RPR010 pins this — a stray blocking sleep on the async schedule
would stall the whole event loop).

Two implementations:

* :class:`BlockingLatencyClock` — the default on every store: pay by
  blocking the calling thread, so the serial schedule (and any direct
  store use) pays each round trip end to end.
* :class:`AsyncLatencyClock` — installed by the asyncio epoch scheduler
  for the duration of a run: a payment made inside a participant's
  synchronous segment *accrues* to that segment's debt instead of
  blocking, and the segment's end plus its debt is the time the
  participant is *due* again.  Coalescing a segment's payments into one
  deadline is wall-time equivalent (nothing yields between them anyway)
  and is what lets every other participant's segments run while one
  participant's latency is outstanding.

The store-side entry point is
:meth:`repro.store.base.UpdateStore.pay_latency`, which consults the
store's ``real_latency`` flag and delegates the actual wait to the
store's ``clock`` attribute.
"""

from __future__ import annotations

import abc
import asyncio
import time
from typing import Callable, Dict, Hashable, Optional


class LatencyClock(abc.ABC):
    """How charged simulated latency is converted into wall time."""

    @abc.abstractmethod
    def pay(self, seconds: float) -> None:
        """Pay ``seconds`` of injected latency (caller gates ``> 0``)."""


class BlockingLatencyClock(LatencyClock):
    """Pay latency by blocking the calling thread (the default)."""

    def pay(self, seconds: float) -> None:
        """Block for ``seconds``.

        This is the one sanctioned blocking sleep in the tree: every
        other module pays latency through a :class:`LatencyClock`, and
        rule RPR010 flags any direct ``time.sleep`` elsewhere.
        """
        time.sleep(seconds)


class AsyncLatencyClock(LatencyClock):
    """Accrue latency per participant; each one waits only for its own.

    Work runs as synchronous *segments* (:meth:`segment`).  :meth:`pay`
    adds to the open segment's debt, and the participant is due again at
    the segment's end plus that debt — a recorded deadline, not a timer
    started at segment end (that would count only from when the loop
    next got control).  Only that participant's next segment waits for
    it; ``workers`` caps how many may have latency outstanding at once.
    Debt accrued outside any segment is awaited by :meth:`drain`; with
    no running loop (a store used standalone while this clock is
    installed) :meth:`pay` blocks, so latency is never dropped.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        """Start with nothing due and nothing paid."""
        self._workers = workers
        self._due: Dict[Hashable, float] = {}
        self._debt = 0.0  # accrued since a segment last closed
        #: Total seconds charged through this clock and waited out.
        self.total_paid = 0.0

    def pay(self, seconds: float) -> None:
        """Accrue ``seconds`` to the open segment's debt."""
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            time.sleep(seconds)
            return
        self._debt += seconds

    @property
    def outstanding(self) -> Dict[Hashable, float]:
        """Participant -> due time, for every one not yet due."""
        now = asyncio.get_running_loop().time()
        return {key: due for key, due in self._due.items() if due > now}

    async def segment(self, key: Hashable, work: Callable[..., object], *args) -> None:
        """Run ``work(*args)`` as one synchronous segment of ``key``'s
        once ``key`` is due and the ``workers`` cap admits it; the
        segment's debt is ``key``'s alone."""
        loop = asyncio.get_running_loop()
        while True:
            others = self.outstanding
            until = others.pop(key, 0.0)
            if self._workers is not None and len(others) >= self._workers:
                until = max(until, sorted(others.values())[-self._workers])
            if until <= loop.time():
                break
            await asyncio.sleep(until - loop.time())
        try:
            work(*args)
        finally:
            self._due[key] = loop.time() + self._debt
            self.total_paid += self._debt
            self._debt = 0.0

    async def drain(self) -> None:
        """Await the debt accrued outside any segment."""
        debt, self._debt = self._debt, 0.0
        self.total_paid += debt
        await asyncio.sleep(debt)

    async def settle(self) -> None:
        """Wait until no participant has latency outstanding."""
        while self.outstanding:
            loop = asyncio.get_running_loop()
            await asyncio.sleep(max(self._due.values()) - loop.time())
