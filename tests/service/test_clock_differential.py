"""The task-free ``VirtualClock.drive`` and ``with_deadline`` against the
task-based versions they replaced.

:class:`_TaskClock` and :func:`_task_with_deadline` keep the earlier
implementations as the reference: ``drive`` ran its awaitable as a task
and advanced time between drains of the loop, and a deadline ran its
awaitable as a second task that a clock timer cancelled.  Generated
scripts run several tasks with clock sleeps, loop yields, timers, outside
cancels and deadlines (nested ones among them), and drive one more
script to completion.  The ``(virtual time, task, event)`` log, every
task's outcome and the driven script's outcome must be the same under
both.

Two rules keep the comparison exact, and the service's call sites keep
both:

* every delay is a multiple of 0.25 s, so the reference's advance
  targets (``now + (when - now)``) land on the entries' own instants;
* a deadline body's last wait is a clock sleep, after which it ends in a
  bare return or raise.  The new caller continues in the step in which
  its awaitable returns, one hop earlier than when it awaited a task;
  that hop is invisible when the step was woken alone by a clock fire.
  Outside cancels come from clock timers for the same reason.
"""

import asyncio
import heapq
from functools import partial

from hypothesis import given
from hypothesis import strategies as st

from repro.service import DeadlineExceeded, VirtualClock, with_deadline
from repro.service.clock import _Timer

# -- the reference: the task-based drive and deadline -------------------------


async def _drain_loop():
    ready = asyncio.get_running_loop()._ready
    while ready:
        await asyncio.sleep(0)


class _TaskClock(VirtualClock):
    """``VirtualClock`` with the task-based ``advance``/``drive``."""

    __slots__ = ()

    async def advance(self, dt):
        if dt < 0:
            raise ValueError("cannot advance time backwards")
        target = self._now + dt
        await _drain_loop()
        while True:
            when = self._heap[0][0] if self._heap else None
            if when is None or when > target:
                break
            fired_when, _eid, entry = heapq.heappop(self._heap)
            if entry.cancelled():
                continue
            self._now = fired_when
            if isinstance(entry, _Timer):
                entry.callback()
            else:
                entry.set_result(None)
            await _drain_loop()
        self._now = target
        await _drain_loop()

    async def run_until(self, when):
        if when > self._now:
            await self.advance(when - self._now)
        else:
            await _drain_loop()

    async def drive(self, awaitable):
        task = asyncio.ensure_future(awaitable)
        await _drain_loop()
        while not task.done():
            when = self._heap[0][0] if self._heap else None
            if when is None:
                task.cancel()
                raise RuntimeError(
                    "virtual deadlock: awaitable pending with no timers scheduled"
                )
            await self.advance(max(0.0, when - self._now))
        return task.result()


async def _task_with_deadline(clock, awaitable, timeout):
    if timeout is None:
        return await awaitable
    task = asyncio.ensure_future(awaitable)
    expired = False
    timer = None

    def _expire():
        nonlocal expired
        expired = task.cancel()

    def _arm():
        nonlocal timer
        timer = clock.call_later(timeout, _expire)

    arming = asyncio.get_running_loop().call_soon(_arm)
    try:
        value = await task
    except asyncio.CancelledError:
        if not expired:
            raise
    finally:
        arming.cancel()
        if timer is not None:
            timer.cancel()
    if expired:
        raise DeadlineExceeded(f"dependency call exceeded {timeout}s budget")
    return value


# -- scripts ------------------------------------------------------------------

#: Far past the longest script: every task has finished by then.
HORIZON = 1_000.0

SLEEPS = st.sampled_from([0.25, 0.5, 1.0, 1.5])
TIMERS = st.sampled_from([0.0, 0.25, 0.5, 1.0])
BUDGETS = st.sampled_from([0.5, 1.0, 1.75, 2.5])


def _ops(depth):
    leaf = st.one_of(
        st.tuples(st.just("sleep"), SLEEPS),
        st.tuples(st.just("yield")),
        st.tuples(st.just("timer"), TIMERS),
        st.tuples(st.just("cancel"), SLEEPS, st.integers(0, 3)),
    )
    if depth == 0:
        return st.lists(leaf, max_size=3)
    deadline = st.tuples(
        st.just("deadline"),
        BUDGETS,
        _ops(depth - 1),
        SLEEPS,
        st.sampled_from(["return", "raise", "swallow"]),
    )
    return st.lists(st.one_of(leaf, deadline), max_size=4)


SCRIPTS = st.tuples(
    st.lists(_ops(2), max_size=3),  # background tasks
    _ops(2),  # the driven script
    st.sampled_from(["return", "raise"]),  # how the driven script ends
)


class Failed(Exception):
    pass


def _outcome(task):
    if task.cancelled():
        return ("cancelled",)
    error = task.exception()
    if error is not None:
        return ("raised", type(error).__name__, str(error))
    return ("result", task.result())


async def _scenario(script, clock, deadline):
    """Play *script* on *clock* with *deadline* as the timeout primitive."""
    background, driven, driven_end = script
    loop = asyncio.get_running_loop()
    log = []
    tasks = []

    def note(who, what):
        log.append((clock.now(), who, what))

    def cancel(who, j):
        if tasks:
            note(who, f"cancels t{j % len(tasks)}")
            tasks[j % len(tasks)].cancel()

    async def body(who, ops, last, end):
        try:
            for op in ops:
                await play(who, op)
            note(who, f"last sleep {last}")
            await clock.sleep(last)
        except asyncio.CancelledError:
            if end != "swallow":
                raise
            return "swallowed"
        if end == "raise":
            raise Failed(who)
        return "returned"

    async def play(who, op):
        kind = op[0]
        note(who, kind)
        if kind == "sleep":
            await clock.sleep(op[1])
        elif kind == "yield":
            await asyncio.sleep(0)
        elif kind == "timer":
            clock.call_later(op[1], partial(note, "timer", who))
        elif kind == "cancel":
            clock.call_later(op[1], partial(cancel, who, op[2]))
        else:
            _, budget, ops, last, end = op
            try:
                value = await deadline(clock, body(who, ops, last, end), budget)
            except DeadlineExceeded:
                note(who, "exceeded")
            except Failed:
                note(who, "failed")
            else:
                note(who, value)

    async def script_task(who, ops):
        try:
            for op in ops:
                await play(who, op)
        except asyncio.CancelledError:
            note(who, "cancelled")
            return "cancelled"
        return "done"

    async def driven_script():
        for op in driven:
            await play("d", op)
        if driven_end == "raise":
            raise Failed("d")
        return "driven"

    tasks.extend(
        loop.create_task(script_task(f"t{i}", ops))
        for i, ops in enumerate(background)
    )
    try:
        value = await clock.drive(driven_script())
    except Failed as exc:
        note("main", f"drive raised {exc}")
    else:
        note("main", f"drive returned {value}")
    await clock.run_until(HORIZON)
    assert all(task.done() for task in tasks)
    assert asyncio.all_tasks() == {asyncio.current_task()}
    return log, [_outcome(task) for task in tasks]


def _play(script, clock, deadline):
    loop = asyncio.new_event_loop()
    # A wall-clock guard: a stalled virtual timeline fails, not hangs.
    guard = loop.call_later(10.0, loop.stop)
    try:
        return loop.run_until_complete(_scenario(script, clock, deadline))
    finally:
        guard.cancel()
        loop.close()


@given(SCRIPTS)
def test_task_free_clock_matches_the_task_based_reference(script):
    want = _play(script, _TaskClock(), _task_with_deadline)
    got = _play(script, VirtualClock(), with_deadline)
    assert got == want


def test_scripts_exercise_every_outcome():
    """A fixed script hits expiry, return, raise, a swallowed cancel,
    nesting and outside cancels, so the property above is not vacuous."""
    script = (
        [
            [("deadline", 1.0, [("sleep", 0.5)], 1.5, "return"),
             ("deadline", 2.5, [("deadline", 0.5, [], 1.0, "swallow")], 0.25, "raise")],
            [("cancel", 0.25, 1), ("timer", 0.0),
             ("deadline", 1.75, [("yield",), ("sleep", 1.0)], 0.25, "return")],
            [("cancel", 0.5, 2),
             ("deadline", 2.5, [("sleep", 1.0)], 1.0, "swallow"), ("sleep", 0.25)],
        ],
        [("sleep", 0.25), ("deadline", 1.75, [], 1.0, "return"), ("yield",)],
        "raise",
    )
    log, outcomes = _play(script, VirtualClock(), with_deadline)
    assert (log, outcomes) == _play(script, _TaskClock(), _task_with_deadline)
    events = {what for _, _, what in log}
    assert {
        "exceeded", "failed", "returned", "swallowed", "cancelled",
        "cancels t1", "cancels t2", "drive raised d",
    } <= events
    assert outcomes == [("result", "done"), ("result", "cancelled"), ("result", "done")]
