"""Injected time: wall clock vs. the DES-backed virtual clock.

Everything in :mod:`repro.service` that waits — SWR timers, retry
backoff, breaker reset windows, the IR watchdog, dependency deadlines —
waits through a :class:`Clock`, never through ``asyncio.sleep`` or the
loop's own timers directly.  Production uses :class:`WallClock` (the
running loop's monotonic time and ``loop.call_later``); tests and
benchmarks use :class:`VirtualClock`, which keeps pending sleeps and
timer callbacks in one ``heapq`` of ``(when, eid, entry)`` tuples — the
same eid-tie-broken schedule the DES kernel keeps — and fires them when
the driver calls :meth:`VirtualClock.advance`.  Unique eids make the
heap order strict, so every virtual-time campaign is byte-reproducible.

:func:`with_deadline` is the service's single timeout primitive: it runs
an awaitable as a task and arms a clock timer (:meth:`Clock.call_later`)
that cancels that task when the budget runs out; only that cancellation
becomes :class:`~repro.service.errors.DeadlineExceeded`.  The timer is
armed just after the task's first step, so when both are due at the same
instant the awaitable's own sleeps hold the lower eids and its result
wins — a deterministic tie-break the virtual-time tests rely on.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Awaitable, Callable, List, Protocol, Tuple, TypeVar, Union

from .errors import DeadlineExceeded

__all__ = ["Clock", "VirtualClock", "WallClock", "with_deadline"]

T = TypeVar("T")


class _Timer:
    """A callback entry in :class:`VirtualClock`'s heap; cancel = tombstone."""

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback: Callable[[], None] | None = callback

    def cancel(self) -> None:
        self.callback = None

    def cancelled(self) -> bool:
        return self.callback is None


#: One virtual-clock entry: ``(when, eid, wakeup future or timer callback)``.
_TimerEntry = Tuple[float, int, Union["asyncio.Future[None]", _Timer]]


class Cancellable(Protocol):
    """What :meth:`Clock.call_later` returns: a timer that can be disarmed."""

    def cancel(self) -> None: ...


class Clock(Protocol):
    """The injected time source every service component waits through."""

    def now(self) -> float:
        """Current time in seconds (monotonic within one clock)."""
        ...

    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for *delay* seconds of this clock."""
        ...

    def call_later(self, delay: float, callback: Callable[[], None]) -> Cancellable:
        """Run *callback* once, *delay* seconds of this clock from now."""
        ...


class WallClock:
    """Real time: the running event loop's monotonic clock."""

    __slots__ = ()

    def now(self) -> float:
        return asyncio.get_running_loop().time()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)

    def call_later(
        self, delay: float, callback: Callable[[], None]
    ) -> asyncio.TimerHandle:
        return asyncio.get_running_loop().call_later(delay, callback)


class VirtualClock:
    """Deterministic manual time for asyncio, backed by a DES-style heap.

    Tasks call :meth:`sleep` (or arm :meth:`call_later`); the driving
    test calls :meth:`advance` (or :meth:`run_until`) to fire due entries
    in strict ``(when, eid)`` order, letting all woken tasks run to their
    next suspension point between consecutive fires.  Only this clock
    waits in virtual time — a task blocked on real
    ``asyncio.sleep(dt > 0)`` would stall the virtual timeline, so
    virtual-time code must route every wait through the clock
    (``asyncio.sleep(0)`` yields are fine).
    """

    __slots__ = ("_now", "_eid", "_heap")

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._eid = 0
        self._heap: List[_TimerEntry] = []

    def now(self) -> float:
        return self._now

    @property
    def pending_timers(self) -> int:
        """Number of scheduled (possibly cancelled) sleeps and timers."""
        return len(self._heap)

    async def sleep(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("cannot sleep a negative delay")
        loop = asyncio.get_running_loop()
        if delay == 0:
            # A pure yield: let every other runnable task have a turn.
            await asyncio.sleep(0)
            return
        fut: asyncio.Future[None] = loop.create_future()
        self._eid += 1
        heapq.heappush(self._heap, (self._now + delay, self._eid, fut))
        await fut

    def call_later(self, delay: float, callback: Callable[[], None]) -> _Timer:
        """Schedule *callback* at ``now + delay``; it runs inside the
        :meth:`advance` that reaches it, like a sleep's wake-up, and
        ``cancel()`` leaves a tombstone that never fires."""
        if delay < 0:
            raise ValueError("cannot schedule a negative delay")
        timer = _Timer(callback)
        self._eid += 1
        heapq.heappush(self._heap, (self._now + delay, self._eid, timer))
        return timer

    def _peek_when(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    async def advance(self, dt: float) -> None:
        """Move time forward by *dt*, firing due entries in heap order.

        Between consecutive fires (and once more at the end) the loop is
        drained: every task made runnable gets to run until it suspends
        again, so causal chains (timer → refresh task → backend call →
        next sleep) complete within one ``advance`` call.
        """
        if dt < 0:
            raise ValueError("cannot advance time backwards")
        target = self._now + dt
        await _drain_loop()
        while True:
            when = self._peek_when()
            if when is None or when > target:
                break
            fired_when, _eid, entry = heapq.heappop(self._heap)
            # A cancelled sleep (its task was torn down) or a disarmed
            # timer (its deadline was met) is a tombstone: drop it unfired.
            if entry.cancelled():
                continue
            self._now = fired_when
            if isinstance(entry, _Timer):
                assert entry.callback is not None
                entry.callback()
            else:
                entry.set_result(None)
            await _drain_loop()
        self._now = target
        await _drain_loop()

    async def run_until(self, when: float) -> None:
        """Advance to absolute time *when* (no-op if already past it)."""
        if when > self._now:
            await self.advance(when - self._now)
        else:
            await _drain_loop()

    async def drive(self, awaitable: Awaitable[T]) -> T:
        """Run *awaitable* to completion, advancing time as needed.

        The driver's way to await work that itself sleeps on this clock
        (retry backoff, deadline timers): between drains, time jumps to
        the next pending timer.  Raises if the awaitable deadlocks — is
        still pending with no timer left to fire.
        """
        task = asyncio.ensure_future(awaitable)
        await _drain_loop()
        while not task.done():
            when = self._peek_when()
            if when is None:
                task.cancel()
                raise RuntimeError(
                    "virtual deadlock: awaitable pending with no timers scheduled"
                )
            await self.advance(max(0.0, when - self._now))
        return task.result()


async def _drain_loop() -> None:
    """Yield until every currently-runnable task has suspended.

    Uses the loop's ready queue when available (CPython exposes it as
    ``_ready``): an empty queue means no other callback is runnable, so
    an idle drain returns without a loop turn, and a busy one yields
    until the queue empties.  Falls back to a fixed burst of yields on
    loops that hide their queue.
    """
    loop = asyncio.get_running_loop()
    ready: Any = getattr(loop, "_ready", None)
    if ready is None:
        for _ in range(32):
            await asyncio.sleep(0)
        return
    while ready:
        await asyncio.sleep(0)


async def with_deadline(
    clock: Clock, awaitable: Awaitable[T], timeout: float | None
) -> T:
    """Await *awaitable*, but give up after *timeout* clock seconds.

    The awaitable runs as a task, and a :meth:`Clock.call_later` timer
    cancels that task when the budget runs out; the caller awaits the
    task itself, so the task's cleanup has run when
    :class:`DeadlineExceeded` raises.  A task that swallows the cancel
    still ends in :class:`DeadlineExceeded`.  The caller's own
    cancellation propagates as ``CancelledError`` (and cancels the task
    and disarms the timer).  The timer is armed just after the task's
    first step, so when the awaitable finishes at the deadline instant
    its result wins — a deterministic preference, not a race.
    """
    if timeout is None:
        return await awaitable
    task = asyncio.ensure_future(awaitable)
    expired = False
    timer: Cancellable | None = None

    def _expire() -> None:
        nonlocal expired
        expired = task.cancel()

    def _arm() -> None:
        nonlocal timer
        timer = clock.call_later(timeout, _expire)

    # FIFO ready queue: this runs right after the task's first step.
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
