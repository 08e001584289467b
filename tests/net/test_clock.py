"""The latency-clock seam: blocking vs awaitable payment."""

from __future__ import annotations

import asyncio
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


class TestAsyncClock:
    def test_a_segment_makes_only_its_own_participant_wait(self):
        clock = AsyncLatencyClock()
        starts = []

        async def main():
            loop = asyncio.get_running_loop()

            def work(name, seconds):
                starts.append((name, loop.time()))
                clock.pay(seconds)
                clock.pay(seconds)  # payments within a segment coalesce

            await clock.segment(1, work, "1a", 0.02)
            ended = loop.time()
            # Due at the segment's end plus its debt: a recorded time.
            due = clock.outstanding[1]
            assert starts[0][1] + 0.04 <= due <= ended + 0.04
            assert set(clock.outstanding) == {1}
            await clock.segment(2, work, "2a", 0.0)  # not held up by 1
            await clock.segment(1, work, "1b", 0.0)  # waits out its own
            return due

        due = asyncio.run(main())
        times = dict(starts)
        assert times["2a"] < due
        assert times["1b"] >= due
        assert clock.total_paid == 0.04

    def test_every_participant_may_have_latency_outstanding_at_once(self):
        # No cap on how many participants are in flight: each segment
        # waits only for its own participant's debt.
        clock = AsyncLatencyClock()
        starts = {}

        async def main():
            loop = asyncio.get_running_loop()

            def work(key):
                starts[key] = loop.time()
                clock.pay(0.02)

            for key in (1, 2, 3, 4):
                await clock.segment(key, work, key)
            return dict(clock.outstanding)

        outstanding = asyncio.run(main())
        assert set(outstanding) == {1, 2, 3, 4}
        assert max(starts.values()) < min(outstanding.values())
        assert clock.total_paid == pytest.approx(0.08)

    def test_a_failed_segment_still_charges_its_participant(self):
        clock = AsyncLatencyClock()

        def work():
            clock.pay(0.01)
            raise RuntimeError("boom")

        async def main():
            with pytest.raises(RuntimeError):
                await clock.segment(1, work)
            return set(clock.outstanding)

        assert asyncio.run(main()) == {1}
        assert clock.total_paid == 0.01

    def test_drain_awaits_what_was_paid_outside_any_segment(self):
        clock = AsyncLatencyClock()

        async def main():
            clock.pay(0.02)
            started = time.perf_counter()
            await clock.drain()
            return time.perf_counter() - started

        assert asyncio.run(main()) >= 0.015
        assert clock.total_paid == 0.02

    def test_settle_waits_until_no_latency_is_outstanding(self):
        clock = AsyncLatencyClock()

        async def main():
            for key in (1, 2):
                await clock.segment(key, clock.pay, 0.01 * key)
            due = clock.outstanding[2]
            await clock.settle()
            assert clock.outstanding == {}
            return asyncio.get_running_loop().time(), due

        now, due = asyncio.run(main())
        assert now >= due

    def test_pay_outside_a_running_loop_degrades_to_blocking(self):
        # A store used standalone while the async clock happens to be
        # installed must still pay — latency is never silently dropped.
        clock = AsyncLatencyClock()
        started = time.perf_counter()
        clock.pay(0.02)
        assert time.perf_counter() - started >= 0.015
        assert clock.total_paid == 0.0
