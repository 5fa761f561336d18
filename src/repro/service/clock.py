"""Injected time: wall clock vs. the DES-backed virtual clock.

Everything in :mod:`repro.service` that waits — SWR timers, retry
backoff, breaker reset windows, the IR watchdog — sleeps through a
:class:`Clock`, never through ``asyncio.sleep`` directly.  Production
uses :class:`WallClock` (the running loop's monotonic time);
tests and benchmarks use :class:`VirtualClock`, which stores pending
sleeps in a ``heapq`` of ``(when, eid, future)`` tuples — the same
eid-tie-broken schedule the DES kernel keeps — and fires them when the
driver calls :meth:`VirtualClock.advance`.  Unique eids make the heap
order strict, so every virtual-time campaign is byte-reproducible.

:func:`with_deadline` is the service's single timeout primitive: it
races an awaitable against ``clock.sleep(timeout)`` and converts a loss
into :class:`~repro.service.errors.DeadlineExceeded`.  When both finish
inside the same scheduling quantum the awaitable wins — a deterministic
tie-break the virtual-time tests rely on.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Awaitable, List, Protocol, Tuple, TypeVar

from .errors import DeadlineExceeded

__all__ = ["Clock", "VirtualClock", "WallClock", "with_deadline"]

T = TypeVar("T")

#: One virtual-clock timer: ``(when, eid, wakeup future)``.
_TimerEntry = Tuple[float, int, "asyncio.Future[None]"]


class Clock(Protocol):
    """The injected time source every service component waits through."""

    def now(self) -> float:
        """Current time in seconds (monotonic within one clock)."""
        ...

    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for *delay* seconds of this clock."""
        ...


class WallClock:
    """Real time: the running event loop's monotonic clock."""

    __slots__ = ()

    def now(self) -> float:
        return asyncio.get_running_loop().time()

    async def sleep(self, delay: float) -> None:
        await asyncio.sleep(delay)


class VirtualClock:
    """Deterministic manual time for asyncio, backed by a DES-style heap.

    Tasks call :meth:`sleep`; the driving test calls :meth:`advance` (or
    :meth:`run_until`) to fire due timers in strict ``(when, eid)``
    order, letting all woken tasks run to their next suspension point
    between consecutive fires.  Only :meth:`sleep` waits on this clock —
    a task blocked on real ``asyncio.sleep(dt > 0)`` would stall the
    virtual timeline, so virtual-time code must route every wait through
    the clock (``asyncio.sleep(0)`` yields are fine).
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
        """Number of scheduled (possibly cancelled) sleeps."""
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

    def _peek_when(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    async def advance(self, dt: float) -> None:
        """Move time forward by *dt*, firing due timers in heap order.

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
            fired_when, _eid, fut = heapq.heappop(self._heap)
            # A cancelled sleep (its waiter lost a with_deadline race or
            # its task was torn down) is a tombstone: drop it unfired.
            if fut.cancelled():
                continue
            self._now = fired_when
            fut.set_result(None)
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
    ``_ready``): after our own yield resumes, an empty queue means no
    other callback is runnable.  Falls back to a fixed burst of yields
    on loops that hide their queue.
    """
    loop = asyncio.get_running_loop()
    ready: Any = getattr(loop, "_ready", None)
    if ready is None:
        for _ in range(32):
            await asyncio.sleep(0)
        return
    while True:
        await asyncio.sleep(0)
        if not len(ready):
            return


async def with_deadline(
    clock: Clock, awaitable: Awaitable[T], timeout: float | None
) -> T:
    """Await *awaitable*, but give up after *timeout* clock seconds.

    On timeout the inner task is cancelled (and awaited, so its cleanup
    runs) and :class:`DeadlineExceeded` raises.  When both the awaitable
    and the timer complete in the same scheduling quantum the awaitable's
    result wins — a deterministic preference, not a race.
    """
    if timeout is None:
        return await awaitable
    loop = asyncio.get_running_loop()
    task = asyncio.ensure_future(awaitable)
    timer = asyncio.ensure_future(clock.sleep(timeout))
    gate: asyncio.Future[None] = loop.create_future()

    def _wake(_done: "asyncio.Future[Any]") -> None:
        if not gate.done():
            gate.set_result(None)

    task.add_done_callback(_wake)
    timer.add_done_callback(_wake)
    try:
        await gate
    except asyncio.CancelledError:
        # The caller itself was cancelled: tear both racers down.
        task.cancel()
        timer.cancel()
        raise
    if task.done():
        timer.cancel()
        return task.result()
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass
    raise DeadlineExceeded(f"dependency call exceeded {timeout}s budget")
