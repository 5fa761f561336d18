"""VirtualClock: ordering, deadlines, drive(), and cancelled-sleep tombstones."""

import asyncio

import pytest

from repro.service import DeadlineExceeded, VirtualClock, WallClock, with_deadline


def run(coro):
    return asyncio.run(coro)


def test_wall_clock_is_the_running_loops_time():
    async def main():
        clock = WallClock()
        t0 = clock.now()
        await clock.sleep(0.005)
        assert clock.now() - t0 >= 0.004
        # with_deadline works identically against real time.
        value = await with_deadline(clock, asyncio.sleep(0, "ok"), 1.0)
        assert value == "ok"

    run(main())


def test_sleep_fires_in_time_order():
    async def main():
        clock = VirtualClock()
        fired = []

        async def sleeper(delay, tag):
            await clock.sleep(delay)
            fired.append((clock.now(), tag))

        tasks = [
            asyncio.ensure_future(sleeper(d, t))
            for d, t in [(3.0, "c"), (1.0, "a"), (2.0, "b")]
        ]
        await clock.advance(5.0)
        await asyncio.gather(*tasks)
        assert fired == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert clock.now() == 5.0

    run(main())


def test_equal_deadlines_fire_in_schedule_order():
    async def main():
        clock = VirtualClock()
        fired = []

        async def sleeper(tag):
            await clock.sleep(10.0)
            fired.append(tag)

        for tag in ("first", "second", "third"):
            asyncio.ensure_future(sleeper(tag))
        await clock.advance(10.0)
        assert fired == ["first", "second", "third"]

    run(main())


def test_zero_sleep_is_a_yield():
    async def main():
        clock = VirtualClock()
        await clock.sleep(0)
        assert clock.now() == 0.0
        assert clock.pending_timers == 0

    run(main())


def test_negative_sleep_rejected():
    async def main():
        clock = VirtualClock()
        with pytest.raises(ValueError):
            await clock.sleep(-1.0)
        with pytest.raises(ValueError):
            await clock.advance(-1.0)

    run(main())


def test_causal_chain_completes_within_one_advance():
    """Timer -> task -> second sleep -> task, all inside advance()."""

    async def main():
        clock = VirtualClock()
        steps = []

        async def chain():
            await clock.sleep(1.0)
            steps.append(("woke", clock.now()))
            await clock.sleep(2.0)
            steps.append(("done", clock.now()))

        task = asyncio.ensure_future(chain())
        await clock.advance(10.0)
        await task
        assert steps == [("woke", 1.0), ("done", 3.0)]

    run(main())


def test_with_deadline_task_wins():
    async def main():
        clock = VirtualClock()

        async def quick():
            await clock.sleep(1.0)
            return "value"

        result_task = asyncio.ensure_future(
            with_deadline(clock, quick(), timeout=5.0)
        )
        await clock.advance(2.0)
        assert await result_task == "value"

    run(main())


def test_with_deadline_timeout_cancels_task():
    async def main():
        clock = VirtualClock()
        cancelled = []

        async def slow():
            try:
                await clock.sleep(100.0)
            except asyncio.CancelledError:
                cancelled.append(True)
                raise

        result_task = asyncio.ensure_future(
            with_deadline(clock, slow(), timeout=1.0)
        )
        await clock.advance(2.0)
        with pytest.raises(DeadlineExceeded):
            await result_task
        assert cancelled == [True]

    run(main())


def test_with_deadline_none_is_unbounded():
    async def main():
        clock = VirtualClock()

        async def quick():
            return 42

        assert await with_deadline(clock, quick(), timeout=None) == 42

    run(main())


def test_simultaneous_finish_prefers_task():
    """Task and timer due at the same instant: the value wins."""

    async def main():
        clock = VirtualClock()

        async def exact():
            await clock.sleep(3.0)
            return "made it"

        result_task = asyncio.ensure_future(
            with_deadline(clock, exact(), timeout=3.0)
        )
        await clock.advance(3.0)
        assert await result_task == "made it"

    run(main())


def test_drive_runs_awaitable_to_completion():
    async def main():
        clock = VirtualClock()

        async def worker():
            await clock.sleep(5.0)
            await clock.sleep(7.0)
            return clock.now()

        assert await clock.drive(worker()) == 12.0

    run(main())


def test_drive_detects_deadlock():
    async def main():
        clock = VirtualClock()

        async def stuck():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(RuntimeError, match="deadlock"):
            await clock.drive(stuck())

    run(main())


def test_run_until_is_absolute_and_monotonic():
    async def main():
        clock = VirtualClock(start=10.0)
        await clock.run_until(25.0)
        assert clock.now() == 25.0
        await clock.run_until(5.0)  # already past: no-op
        assert clock.now() == 25.0

    run(main())


def test_cancelled_sleep_leaves_tombstone_not_crash():
    async def main():
        clock = VirtualClock()

        async def sleeper():
            await clock.sleep(4.0)

        task = asyncio.ensure_future(sleeper())
        await asyncio.sleep(0)
        task.cancel()
        await clock.advance(10.0)  # tombstone dropped unfired
        assert clock.now() == 10.0

    run(main())
