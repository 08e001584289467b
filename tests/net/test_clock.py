"""The latency-clock seam: blocking vs awaitable payment."""

from __future__ import annotations

import time

import pytest

from repro.net.clock import (
    AsyncLatencyClock,
    BlockingLatencyClock,
    LatencyClock,
)
from repro.store.base import UpdateStore
from repro.store.memory import MemoryUpdateStore
from repro.workload import curated_schema


class TestBlockingClock:
    def test_is_the_latency_clock_default(self):
        store = MemoryUpdateStore(curated_schema())
        assert isinstance(store.clock, BlockingLatencyClock)
        assert isinstance(store.clock, LatencyClock)

    def test_pay_blocks_for_the_requested_seconds(self):
        clock = BlockingLatencyClock()
        started = time.perf_counter()
        clock.pay(0.02)
        assert time.perf_counter() - started >= 0.015

    def test_pay_latency_routes_through_the_clock(self):
        class CountingClock(LatencyClock):
            """Records payments instead of waiting."""

            def __init__(self):
                self.paid = []

            def pay(self, seconds):
                self.paid.append(seconds)

        store = MemoryUpdateStore(curated_schema(), real_latency=True)
        store.clock = clock = CountingClock()
        store.pay_latency(0.25)
        store.pay_latency(0.0)  # gated: nothing to pay
        assert clock.paid == [0.25]

    def test_no_payment_without_real_latency(self):
        class ExplodingClock(LatencyClock):
            """Fails the test if any payment reaches it."""

            def pay(self, seconds):
                raise AssertionError("paid latency on a simulated-only store")

        store = MemoryUpdateStore(curated_schema())  # real_latency=False
        store.clock = ExplodingClock()
        store.pay_latency(0.25)  # charged, never paid

    def test_every_update_store_carries_a_clock(self):
        assert isinstance(UpdateStore.pay_latency, object)
        store = MemoryUpdateStore(curated_schema())
        assert hasattr(store, "clock")


class TestBaseClock:
    """What every clock inherits: a segment runs at once, and there is
    nothing to settle, so the blocking clock needs no case of its own."""

    def test_a_segment_runs_its_work_at_once(self):
        clock = BlockingLatencyClock()
        ran = []
        clock.segment(1, lambda *args: ran.append(args), "a", 2)
        assert ran == [("a", 2)]

    def test_a_segment_propagates_its_exception(self):
        def work():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            BlockingLatencyClock().segment(1, work)

    def test_a_payment_inside_a_segment_is_made_there(self):
        events = []

        class RecordingClock(LatencyClock):
            """Logs payments in the order they are made."""

            def pay(self, seconds):
                events.append(("pay", seconds))

        clock = RecordingClock()
        clock.segment(1, lambda: (clock.pay(0.5), events.append(("after", 1))))
        assert events == [("pay", 0.5), ("after", 1)]

    def test_settle_returns_without_waiting(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"settle slept {seconds}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        clock = BlockingLatencyClock()
        clock.segment(1, lambda: None)
        assert clock.settle() is None


class TestAsyncClock:
    def test_a_segment_makes_only_its_own_participant_wait(self):
        clock = AsyncLatencyClock()
        starts = []

        def work(name, seconds):
            starts.append((name, time.monotonic()))
            clock.pay(seconds)
            clock.pay(seconds)  # payments within a segment coalesce

        clock.segment(1, work, "1a", 0.02)
        ended = time.monotonic()
        # Due at the segment's end plus its debt: a recorded time.
        due = clock.outstanding[1]
        assert starts[0][1] + 0.04 <= due <= ended + 0.04
        assert set(clock.outstanding) == {1}
        clock.segment(2, work, "2a", 0.0)  # not held up by 1
        clock.segment(1, work, "1b", 0.0)  # waits out its own
        times = dict(starts)
        assert times["2a"] < due
        assert times["1b"] >= due
        assert clock.total_paid == 0.04

    def test_every_participant_may_have_latency_outstanding_at_once(self):
        # No cap on how many participants are in flight: each segment
        # waits only for its own participant's debt.
        clock = AsyncLatencyClock()
        starts = {}

        def work(key):
            starts[key] = time.monotonic()
            clock.pay(0.02)

        for key in (1, 2, 3, 4):
            clock.segment(key, work, key)
        outstanding = dict(clock.outstanding)
        assert set(outstanding) == {1, 2, 3, 4}
        assert max(starts.values()) < min(outstanding.values())
        assert clock.total_paid == pytest.approx(0.08)

    def test_a_failed_segment_still_charges_its_participant(self):
        clock = AsyncLatencyClock()

        def work():
            clock.pay(0.01)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            clock.segment(1, work)
        assert set(clock.outstanding) == {1}
        assert clock.total_paid == 0.01

    def test_settle_waits_until_no_latency_is_outstanding(self):
        clock = AsyncLatencyClock()
        for key in (1, 2):
            clock.segment(key, clock.pay, 0.01 * key)
        due = clock.outstanding[2]
        clock.settle()
        assert clock.outstanding == {}
        assert time.monotonic() >= due

    def test_pay_outside_a_segment_blocks_at_once(self):
        # Latency charged between segments (a fault-plan restart at an
        # epoch end, or a store used standalone while the async clock
        # happens to be installed) is paid there and then, and counted:
        # latency is never silently dropped.
        clock = AsyncLatencyClock()
        started = time.perf_counter()
        clock.pay(0.02)
        assert time.perf_counter() - started >= 0.015
        assert clock.total_paid == 0.02
        assert clock.outstanding == {}
