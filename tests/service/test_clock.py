"""VirtualClock: ordering, deadlines, drive(), cancelled-sleep tombstones,
and how many event-loop turns the clock's own plumbing costs."""

import asyncio
from unittest import mock

import pytest

from repro.service import (
    CacheNode,
    DeadlineExceeded,
    InMemoryBackend,
    InMemoryBroker,
    NodeConfig,
    Origin,
    RetryConfig,
    ServiceParams,
    VirtualClock,
    WallClock,
    with_deadline,
)


def run(coro):
    return asyncio.run(coro)


class CountingLoop(asyncio.SelectorEventLoop):
    """A stock selector loop that counts its turns (``_run_once`` calls)."""

    turns = 0

    def _run_once(self):
        self.turns += 1
        super()._run_once()


def run_counted(main):
    """Run ``main(loop)`` on a fresh :class:`CountingLoop`."""
    loop = CountingLoop()
    try:
        return loop.run_until_complete(main(loop))
    finally:
        loop.close()


class RecordingVirtualClock(VirtualClock):
    """Keeps every timer handle :meth:`call_later` hands out."""

    def __init__(self):
        super().__init__()
        self.handles = []

    def call_later(self, delay, callback):
        handle = super().call_later(delay, callback)
        self.handles.append(handle)
        return handle


class RecordingWallClock(WallClock):
    """Keeps every ``loop.call_later`` handle :meth:`call_later` hands out."""

    def __init__(self):
        self.handles = []

    def call_later(self, delay, callback):
        handle = super().call_later(delay, callback)
        self.handles.append(handle)
        return handle


def test_wall_clock_is_the_running_loops_time():
    async def main():
        clock = RecordingWallClock()
        t0 = clock.now()
        await clock.sleep(0.005)
        assert clock.now() - t0 >= 0.004
        # with_deadline works identically against real time, and a call
        # that beats its deadline leaves no live loop timer behind.
        value = await with_deadline(clock, asyncio.sleep(0, "ok"), 1.0)
        assert value == "ok"
        assert [h.cancelled() for h in clock.handles] == [True]

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


def test_call_later_fires_in_heap_order_with_sleeps():
    async def main():
        clock = VirtualClock()
        fired = []

        async def sleeper():
            await clock.sleep(2.0)
            fired.append(("sleep", clock.now()))

        task = asyncio.ensure_future(sleeper())
        await asyncio.sleep(0)  # the sleep takes its eid first
        clock.call_later(2.0, lambda: fired.append(("timer", clock.now())))
        clock.call_later(1.0, lambda: fired.append(("early", clock.now())))
        disarmed = clock.call_later(1.5, lambda: fired.append(("disarmed", 0)))
        disarmed.cancel()
        await clock.advance(3.0)
        await task
        assert fired == [("early", 1.0), ("sleep", 2.0), ("timer", 2.0)]
        with pytest.raises(ValueError):
            clock.call_later(-1.0, lambda: None)

    run(main())


def test_with_deadline_starts_no_task():
    """The deadline is a clock timer on the caller's own task: no second
    task runs the call."""

    async def main():
        clock = RecordingVirtualClock()

        async def slow():
            await clock.sleep(3.0)
            return "done"

        before = asyncio.all_tasks()
        caller = asyncio.ensure_future(with_deadline(clock, slow(), timeout=5.0))
        await clock.advance(1.0)
        assert asyncio.all_tasks() - before == {caller}
        assert len(clock.handles) == 1 and not clock.handles[0].cancelled()
        await clock.advance(3.0)
        assert await caller == "done"
        assert clock.handles[0].cancelled()  # disarmed: a tombstone
        assert asyncio.all_tasks() == before

    run(main())


def test_caller_cancel_propagates_and_disarms_the_deadline():
    async def main():
        clock = RecordingVirtualClock()
        inner = []

        async def slow():
            try:
                await clock.sleep(100.0)
            except asyncio.CancelledError:
                inner.append("cancelled")
                raise

        caller = asyncio.ensure_future(with_deadline(clock, slow(), timeout=5.0))
        await clock.advance(1.0)
        caller.cancel()
        with pytest.raises(asyncio.CancelledError):
            await caller
        assert inner == ["cancelled"]
        assert [h.cancelled() for h in clock.handles] == [True]
        await clock.advance(10.0)  # past the old deadline: nothing fires
        assert inner == ["cancelled"]

    run(main())


def test_swallowed_cancel_still_exceeds_the_deadline():
    async def main():
        clock = VirtualClock()

        async def stubborn():
            try:
                await clock.sleep(100.0)
            except asyncio.CancelledError:
                return "swallowed"

        caller = asyncio.ensure_future(with_deadline(clock, stubborn(), timeout=1.0))
        await clock.advance(2.0)
        with pytest.raises(DeadlineExceeded):
            await caller

    run(main())


def test_wall_clock_deadline_expires_and_cancels_the_call():
    async def main():
        clock = RecordingWallClock()
        inner = []

        async def hang():
            try:
                await asyncio.sleep(10.0)
            except asyncio.CancelledError:
                inner.append("cancelled")
                raise

        with pytest.raises(DeadlineExceeded):
            await with_deadline(clock, hang(), 0.01)
        assert inner == ["cancelled"]
        assert len(clock.handles) == 1

    run(main())


def test_idle_advance_takes_no_loop_turns():
    """Nothing due and nothing runnable: advancing is pure bookkeeping."""

    async def main(loop):
        clock = VirtualClock()
        turns = loop.turns
        await clock.advance(5.0)
        await clock.run_until(7.0)
        await clock.run_until(6.0)
        assert clock.now() == 7.0
        return loop.turns - turns

    assert run_counted(main) == 0


#: The turn-count pin's node: ``ts`` over an L2 with a 0.05 s round trip.
PARAMS = ServiceParams(broadcast_interval=20.0, db_size=50, cache_capacity=16, seed=7)


async def _pinned_node(clock, loop):
    """The pins' node, started and past its first reports at t = 45 s;
    returns it with the function that stops it."""
    broker = InMemoryBroker()
    origin = Origin("ts", PARAMS, clock=clock, broker=broker)
    node = CacheNode(
        "ts",
        PARAMS,
        backend=InMemoryBackend(origin, 0.05),
        broker=broker,
        clock=clock,
        config=NodeConfig(
            retry=RetryConfig(
                attempts=2, base_delay=0.05, jitter=0.0, attempt_timeout=0.5
            ),
            deadline=0.5,
        ),
    )
    await node.start()
    origin_task = loop.create_task(origin.run())
    await clock.run_until(45.0)

    async def stop():
        origin.stop()
        origin_task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await origin_task
        await node.stop()

    return node, stop


def test_node_get_loop_turns_are_pinned():
    """An L2-miss get costs 2 loop turns and an L1 hit none.

    The get, its retried L2 attempt and the fetch all run on the
    driver's own task, up to the fetch's round-trip sleep.  The turns
    are: the drive's pump firing that sleep, and the get resuming with
    the answer.  The L1 hit never suspends, so it takes no turn at all.
    A change that adds plumbing turns to the hot path shows up here
    before it shows up in a benchmark.
    """

    async def main(loop):
        clock = VirtualClock()
        node, stop = await _pinned_node(clock, loop)
        turns = loop.turns
        miss = await clock.drive(node.get(3))
        miss_turns = loop.turns - turns
        turns = loop.turns
        hit = await clock.drive(node.get(3))
        hit_turns = loop.turns - turns
        await stop()
        return miss.source, miss_turns, hit.source, hit_turns

    assert run_counted(main) == ("l2", 2, "l1", 0)


def test_calls_that_never_suspend_arm_no_timer():
    """An L1 hit, and a deadline around an awaitable that returns at
    once, leave the clock's heap as they found it."""

    async def main(loop):
        clock = VirtualClock()
        node, stop = await _pinned_node(clock, loop)
        await clock.drive(node.get(3))
        timers = clock.pending_timers
        hit = await clock.drive(node.get(3))
        assert hit.source == "l1"
        assert clock.pending_timers == timers

        async def quick():
            return "now"

        assert await with_deadline(clock, quick(), 1.0) == "now"
        assert clock.pending_timers == timers
        await stop()

    run_counted(main)


def run_guarded(coro, seconds=10.0):
    """Run *coro*; a stalled virtual timeline fails after *seconds* of
    real time instead of hanging the suite."""
    loop = asyncio.new_event_loop()
    guard = loop.call_later(seconds, loop.stop)
    try:
        return loop.run_until_complete(coro)
    finally:
        guard.cancel()
        loop.close()


#: ``Task.cancelling()``/``uncancel()`` exist (Python 3.11+).
COUNTS_CANCELS = hasattr(asyncio.Task, "uncancel")


def test_nested_deadlines_inner_expires_first():
    async def main():
        clock = VirtualClock()
        seen = []

        async def middle():
            try:
                await with_deadline(clock, clock.sleep(100.0), 1.0)
            except DeadlineExceeded:
                seen.append(("inner", clock.now()))
            await clock.sleep(100.0)

        with pytest.raises(DeadlineExceeded):
            await clock.drive(with_deadline(clock, middle(), 5.0))
        seen.append(("outer", clock.now()))
        if COUNTS_CANCELS:
            assert asyncio.current_task().cancelling() == 0
        return seen

    assert run_guarded(main()) == [("inner", 1.0), ("outer", 5.0)]


def test_nested_deadlines_outer_expires_first():
    """The outer expiry passes through the inner deadline as a plain
    cancellation; only the outer converts it, and both timers end
    disarmed."""

    async def main():
        clock = RecordingVirtualClock()
        seen = []

        async def middle():
            try:
                await with_deadline(clock, clock.sleep(100.0), 5.0)
            except DeadlineExceeded:
                seen.append(("inner", clock.now()))
            except asyncio.CancelledError:
                seen.append(("cancelled", clock.now()))
                raise

        with pytest.raises(DeadlineExceeded):
            await clock.drive(with_deadline(clock, middle(), 1.0))
        assert [h.cancelled() for h in clock.handles] == [True, True]
        await clock.advance(10.0)  # past the inner deadline: nothing fires
        return seen

    assert run_guarded(main()) == [("cancelled", 1.0)]


@pytest.mark.skipif(not COUNTS_CANCELS, reason="Task.cancelling() is 3.11+")
def test_deadline_takes_its_cancel_request_back():
    async def main():
        clock = VirtualClock()
        task = asyncio.current_task()

        async def stubborn():
            try:
                await clock.sleep(10.0)
            except asyncio.CancelledError:
                return "swallowed"

        for body in (clock.sleep(10.0), stubborn()):
            with pytest.raises(DeadlineExceeded):
                await clock.drive(with_deadline(clock, body, 1.0))
            assert task.cancelling() == 0

    run_guarded(main())


def test_drive_awaits_a_future_and_a_task():
    async def main():
        clock = VirtualClock()
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        clock.call_later(1.0, lambda: None)
        clock.call_later(2.0, lambda: fut.set_result("future"))
        assert await clock.drive(fut) == "future"
        assert clock.now() == 2.0

        async def worker():
            await clock.sleep(3.0)
            return "task"

        assert await clock.drive(loop.create_task(worker())) == "task"
        assert clock.now() == 5.0

    run_guarded(main())


class Boom(Exception):
    pass


def test_drive_raises_errors_before_and_after_a_suspension():
    async def main():
        clock = VirtualClock()
        loop = asyncio.get_running_loop()

        async def early():
            raise Boom("early")

        with pytest.raises(Boom, match="early"):
            await clock.drive(early())
        assert clock.pending_timers == 0

        fired = []

        async def late():
            # Queued behind this step: a timer due with the sleep but
            # holding the later eid.
            loop.call_soon(
                lambda: clock.call_later(1.0, lambda: fired.append(clock.now()))
            )
            await clock.sleep(1.0)
            raise Boom("late")

        with pytest.raises(Boom, match="late"):
            await clock.drive(late())
        # Whatever was due at the failing instant fired before the raise.
        assert fired == [1.0]
        assert clock.pending_timers == 0

    run_guarded(main())


def test_drive_raises_a_failing_timer_callback():
    """A timer callback that raises ends the drive with its error, after
    the awaitable's cleanup, instead of stalling the pump."""

    async def main():
        clock = VirtualClock()
        cleaned = []

        def explode():
            raise Boom("timer")

        async def wait():
            try:
                await clock.sleep(5.0)
            finally:
                cleaned.append(clock.now())

        clock.call_later(1.0, explode)
        with pytest.raises(Boom, match="timer"):
            await clock.drive(wait())
        assert cleaned == [1.0]

    run_guarded(main())


def test_drive_and_deadline_keep_the_fifo_slot():
    """Entered while callbacks are runnable, the awaitable's first step
    runs behind them, where a new task's first step would have run."""

    async def main():
        clock = VirtualClock()
        loop = asyncio.get_running_loop()
        order = []

        async def first_step():
            order.append("step")

        for enter in (clock.drive, lambda aw: with_deadline(clock, aw, 1.0)):
            order.clear()
            loop.call_soon(order.append, "queued")
            await enter(first_step())
            assert order == ["queued", "step"]

    run_guarded(main())


def test_deadlock_raises_after_cleanup_and_leaves_no_task():
    async def main():
        clock = VirtualClock()
        cleaned = []

        async def stuck():
            try:
                await asyncio.get_running_loop().create_future()
            finally:
                cleaned.append(clock.now())

        clock.call_later(2.0, lambda: None)
        before = asyncio.all_tasks()
        with pytest.raises(RuntimeError, match="deadlock"):
            await clock.drive(stuck())
        assert cleaned == [2.0]
        assert asyncio.all_tasks() == before
        if COUNTS_CANCELS:
            assert asyncio.current_task().cancelling() == 0

    run_guarded(main())


def test_virtual_clock_needs_a_ready_queue():
    class ForeignLoop:
        """A loop that keeps no CPython ready queue."""

    async def main():
        with mock.patch.object(asyncio, "get_running_loop", ForeignLoop):
            with pytest.raises(TypeError, match="ForeignLoop"):
                await VirtualClock().advance(1.0)

    run(main())


def test_a_second_driver_is_refused_while_a_drive_runs():
    """Two drivers of one clock would each yield to the other forever;
    the second to start raises instead, and the first still finishes."""

    async def main():
        clock = VirtualClock()

        async def work():
            await clock.sleep(5.0)
            return clock.now()

        driving = asyncio.ensure_future(clock.drive(work()))
        await asyncio.sleep(0)  # the drive starts and waits on its sleep
        with pytest.raises(RuntimeError, match="in progress"):
            await clock.advance(10.0)
        with pytest.raises(RuntimeError, match="in progress"):
            await clock.run_until(0.0)
        refused = work()
        with pytest.raises(RuntimeError, match="in progress"):
            await clock.drive(refused)
        refused.close()
        assert await driving == 5.0
        await clock.advance(1.0)  # the clock is free again
        assert clock.now() == 6.0

    run_guarded(main())


def test_a_drive_is_refused_while_an_advance_runs():
    async def main():
        clock = VirtualClock()
        woke = []

        async def sleeper():
            await clock.sleep(4.0)
            woke.append(clock.now())

        sleeping = asyncio.ensure_future(sleeper())
        advancing = asyncio.ensure_future(clock.advance(10.0))
        await asyncio.sleep(0)  # the advance starts and drains the loop
        refused = sleeper()
        with pytest.raises(RuntimeError, match="in progress"):
            await clock.drive(refused)
        refused.close()
        await advancing
        await sleeping
        assert woke == [4.0] and clock.now() == 10.0

    run_guarded(main())


def test_a_driver_nested_in_a_driven_awaitable_is_refused():
    async def main():
        clock = VirtualClock()

        async def inner():
            await clock.sleep(1.0)

        async def outer():
            await clock.sleep(2.0)
            nested = inner()
            with pytest.raises(RuntimeError, match="in progress"):
                await clock.drive(nested)
            nested.close()
            with pytest.raises(RuntimeError, match="in progress"):
                await clock.advance(1.0)
            await clock.sleep(1.0)
            return clock.now()

        assert await clock.drive(outer()) == 3.0
        await clock.run_until(5.0)  # the clock is free again
        assert clock.now() == 5.0

    run_guarded(main())
