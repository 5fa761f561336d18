"""Injected time: wall clock vs. the DES-backed virtual clock.

Everything in :mod:`repro.service` that waits — SWR timers, retry
backoff, breaker reset windows, the IR watchdog, dependency deadlines —
waits through a :class:`Clock`, never through ``asyncio.sleep`` or the
loop's own timers directly.  Production uses :class:`WallClock` (the
running loop's monotonic time and ``loop.call_later``); tests and
benchmarks use :class:`VirtualClock`, which keeps pending sleeps and
timer callbacks in one ``heapq`` of ``(when, eid, entry)`` tuples — the
same eid-tie-broken schedule the DES kernel keeps — and fires them when
the driver calls :meth:`VirtualClock.advance` or awaits
:meth:`VirtualClock.drive`.  Unique eids make the heap order strict, so
every virtual-time campaign is byte-reproducible.

Neither :meth:`VirtualClock.drive` nor :func:`with_deadline` starts a
task: both run their awaitable on the caller's own task, so a call that
never suspends (an L1 hit) costs no task, no loop handle and no loop
turn.  :func:`with_deadline` is the service's single timeout primitive:
a :meth:`Clock.call_later` timer, armed at the awaitable's first
suspension, cancels the caller's task when the budget runs out (the
scheme of ``asyncio.timeout``), and that cancellation becomes
:class:`~repro.service.errors.DeadlineExceeded`.  Because the timer is
armed right after the first step, when both are due at the same instant
the awaitable's own sleeps hold the lower eids and its result wins — a
deterministic tie-break the virtual-time tests rely on.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import sys
import types
from contextvars import ContextVar
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Generator,
    List,
    Protocol,
    Tuple,
    TypeVar,
    Union,
)

from .errors import DeadlineExceeded

__all__ = ["Clock", "VirtualClock", "WallClock", "with_deadline"]

T = TypeVar("T")

#: The innermost :func:`with_deadline` running on this task, as its
#: ``(task, arm)``.  A deadline entered inside another arms the enclosing
#: one first: a nested deadline ends the enclosing awaitable's first step,
#: so the enclosing timer takes a lower eid than anything the inner body
#: schedules.  A task created inside a deadline inherits the value, hence
#: the task in the pair.
_ENCLOSING: ContextVar[
    Tuple["asyncio.Task[Any]", Callable[[object], None]] | None
] = ContextVar("repro.service.clock.enclosing", default=None)


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
    (``asyncio.sleep(0)`` yields are fine).  The clock steps by the
    loop's ready queue, which every CPython ``BaseEventLoop`` keeps; on
    a loop without one it raises ``TypeError``.

    One driver at a time: :meth:`advance`, :meth:`run_until` or
    :meth:`drive` raises ``RuntimeError`` if it starts while another is
    in progress on the same clock, from another task or nested inside a
    driven awaitable.  Two drivers would each yield to the other's
    wake-up forever and never fire an entry.
    """

    __slots__ = ("_now", "_eid", "_heap", "_driving")

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._eid = 0
        self._heap: List[_TimerEntry] = []
        #: Whether an advance, run_until or drive is in progress.
        self._driving = False

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
        """Schedule *callback* at ``now + delay``; it runs when the clock
        reaches it, like a sleep's wake-up, and ``cancel()`` leaves a
        tombstone that never fires."""
        if delay < 0:
            raise ValueError("cannot schedule a negative delay")
        timer = _Timer(callback)
        self._eid += 1
        heapq.heappush(self._heap, (self._now + delay, self._eid, timer))
        return timer

    def _fire_next(self, until: float) -> Union["asyncio.Future[None]", _Timer, None]:
        """Fire the first live entry due by *until*, moving time to its
        instant; return it, or None when nothing live is due.

        The one fire rule of :meth:`advance` and :meth:`drive`.  A
        cancelled sleep (its task was torn down) or a disarmed timer
        (its deadline was met) is a tombstone: popped, never fired.
        """
        heap = self._heap
        while heap and heap[0][0] <= until:
            when, _eid, entry = heapq.heappop(heap)
            if entry.cancelled():
                continue
            self._now = when
            if isinstance(entry, _Timer):
                assert entry.callback is not None
                entry.callback()
            else:
                entry.set_result(None)
            return entry
        return None

    def _claim(self) -> None:
        """Mark a driver in progress; refuse a second one."""
        if self._driving:
            raise RuntimeError(
                "another advance, run_until or drive is in progress on "
                "this clock; only one may drive it at a time"
            )
        self._driving = True

    async def advance(self, dt: float) -> None:
        """Move time forward by *dt*, firing due entries in heap order.

        Between consecutive fires (and once more at the end) the loop is
        drained: every task made runnable gets to run until it suspends
        again, so causal chains (timer → refresh task → backend call →
        next sleep) complete within one ``advance`` call.
        """
        if dt < 0:
            raise ValueError("cannot advance time backwards")
        self._claim()
        try:
            target = self._now + dt
            await _drain_loop()
            while self._fire_next(target) is not None:
                await _drain_loop()
            self._now = target
            await _drain_loop()
        finally:
            self._driving = False

    async def run_until(self, when: float) -> None:
        """Advance to absolute time *when* (no-op if already past it)."""
        if when > self._now:
            await self.advance(when - self._now)
            return
        self._claim()
        try:
            await _drain_loop()
        finally:
            self._driving = False

    async def drive(self, awaitable: Awaitable[T]) -> T:
        """Run *awaitable* to completion on the caller's task, advancing
        time as needed.

        The driver's way to await work that itself sleeps on this clock
        (retry backoff, deadline timers).  While the awaitable waits, a
        :class:`_Pump` fires the next live entry each time the loop has
        nothing else to run, so time jumps from one pending timer to the
        next exactly as repeated :meth:`advance` calls would.  Once the
        awaitable is done, whatever else is due at that instant fires
        too if the pump fired at all; otherwise (an awaitable that never
        waited on the clock) the loop is only drained.  Raises
        ``RuntimeError`` if the awaitable deadlocks — is still pending
        with nothing runnable and no timer left to fire — after the
        awaitable has been cancelled and its cleanup has run, and before
        touching the awaitable if another driver is in progress.
        """
        loop = asyncio.get_running_loop()
        ready = _ready_queue(loop)
        self._claim()
        try:
            pump = _Pump(self, loop, ready)
            try:
                value = await _step_through(awaitable, pump.on_suspend, ready)
            except BaseException as exc:
                await pump.finish(settle=isinstance(exc, Exception))
                raise
            await pump.finish(settle=True)
            return value
        finally:
            self._driving = False


class _Pump:
    """:meth:`VirtualClock.drive`'s stand-in for a driver task.

    While the driven awaitable waits, one loop callback is queued.  Each
    time it runs with the ready queue empty it fires the clock's next
    live entry and queues itself again — unless the entry was the future
    the awaitable waits on: the awaitable re-queues the pump if it
    suspends again.  With callbacks still runnable it just queues itself
    behind them, as a drain yields.
    """

    __slots__ = (
        "_clock", "_loop", "_ready", "_task", "_waiting", "_handle",
        "_fired", "_failure",
    )

    def __init__(
        self, clock: VirtualClock, loop: asyncio.AbstractEventLoop, ready: Deque[Any]
    ) -> None:
        self._clock = clock
        self._loop = loop
        self._ready = ready
        self._task = asyncio.current_task(loop)
        self._waiting: object = None
        self._handle: asyncio.Handle | None = None
        #: Whether the pump has fired: the drive then settles by advance(0).
        self._fired = False
        #: What ended the drive early: a deadlock or a failing timer callback.
        self._failure: BaseException | None = None

    def on_suspend(self, waiting: object) -> None:
        self._waiting = waiting
        if self._handle is None:
            self._handle = self._loop.call_soon(self._run)

    def _run(self) -> None:
        if self._ready:
            self._handle = self._loop.call_soon(self._run)
            return
        self._handle = None
        self._fired = True
        try:
            entry = self._clock._fire_next(math.inf)
        except Exception as exc:
            self._abort(exc)
            return
        if entry is None:
            self._abort(RuntimeError(
                "virtual deadlock: awaitable pending with no timers scheduled"
            ))
        elif entry is not self._waiting:
            self._handle = self._loop.call_soon(self._run)

    def _abort(self, failure: BaseException) -> None:
        # Cancel the awaitable where it waits, so its cleanup runs before
        # drive() raises the failure.
        self._failure = failure
        assert self._task is not None
        self._task.cancel()

    async def finish(self, settle: bool) -> None:
        """Dequeue the pump and raise what aborted the drive, if anything.

        Else, if *settle*: once the pump has fired, fire all that is
        still due at this instant, the order a driver looping on
        :meth:`VirtualClock.advance` gives; without a fire, only drain
        the loop.
        """
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        failure = self._failure
        if failure is not None:
            assert self._task is not None
            _uncancel(self._task)
            raise failure from None
        if not settle:
            return
        if self._fired:
            # The drive's own settle: its claim passes to the advance.
            self._clock._driving = False
            await self._clock.advance(0.0)
        else:
            await _drain_loop()


@types.coroutine
def _step_through(
    awaitable: Awaitable[T], on_suspend: Callable[[Any], None], ready: Any
) -> Generator[Any, Any, T]:
    """Run *awaitable* inside the current task, as ``yield from`` would.

    Values the task sends and exceptions it throws are forwarded to the
    awaitable's ``__await__()`` iterator, and ``on_suspend(future)`` is
    called each time the awaitable suspends, before the task sees the
    future.  If *ready* (the loop's ready queue) is non-empty on entry,
    one bare yield comes first, so the first step runs behind the
    callbacks already queued, where a new task's first step would run.
    """
    steps = awaitable.__await__()
    value: Any = None
    error: BaseException | None = None
    yielded: Any = None
    suspend = bool(ready)
    while True:
        if suspend:
            try:
                value, error = (yield yielded), None
            except BaseException as exc:
                value, error = None, exc
        try:
            yielded = steps.send(value) if error is None else steps.throw(error)
        except StopIteration as stop:
            result: T = stop.value
            return result
        on_suspend(yielded)
        suspend = True


def _ready_queue(loop: asyncio.AbstractEventLoop) -> Deque[Any]:
    """The loop's FIFO of runnable callbacks (CPython's ``_ready``)."""
    ready: Deque[Any] | None = getattr(loop, "_ready", None)
    if ready is None:
        raise TypeError(
            f"VirtualClock needs an event loop with a ready queue; "
            f"{type(loop).__name__} has none"
        )
    return ready


def _uncancel(task: "asyncio.Task[Any]") -> None:
    """Withdraw one cancel request from *task*: a deadline or a deadlock
    that cancelled the caller's task takes its request back, so
    ``Task.cancelling()`` reads as before (tasks count them on 3.11+)."""
    if sys.version_info >= (3, 11):
        task.uncancel()


async def _drain_loop() -> None:
    """Yield until every currently-runnable callback has run.

    An empty ready queue means nothing else is runnable, so an idle
    drain returns without a loop turn, and a busy one yields until the
    queue empties.
    """
    ready = _ready_queue(asyncio.get_running_loop())
    while ready:
        await asyncio.sleep(0)


async def with_deadline(
    clock: Clock, awaitable: Awaitable[T], timeout: float | None
) -> T:
    """Await *awaitable*, but give up after *timeout* clock seconds.

    The awaitable runs on the caller's own task.  At its first
    suspension a :meth:`Clock.call_later` timer is armed that cancels
    the caller's task when the budget runs out.  Once that timer has
    fired, the cancellation that ends the awaitable becomes
    :class:`DeadlineExceeded`, raised after the awaitable's cleanup has
    run (and also when the awaitable swallowed the cancel); where
    ``Task.uncancel`` exists (3.11+) the deadline withdraws its cancel
    request, so ``Task.cancelling()`` is back where it was.  A
    cancellation that ends the awaitable before the budget runs out
    propagates as ``CancelledError`` and disarms the timer.  Nested
    deadlines on one task each convert only their own expiry, and a
    nested deadline's entry arms the enclosing one's timer (it ends
    that one's first step).

    Because the timer is armed just after the first step, when the
    awaitable finishes at the deadline instant its result wins — a
    deterministic preference, not a race — and an awaitable that never
    suspends arms no timer at all.  The caller continues in the step in
    which the awaitable returns, one hop earlier than when the awaitable
    ran as a task of its own; ``asyncio.timeout`` does the same.
    """
    if timeout is None:
        return await awaitable
    budget: float = timeout
    loop = asyncio.get_running_loop()
    task = asyncio.current_task(loop)
    if task is None:
        raise RuntimeError("with_deadline must run inside a task")
    expired = False
    timer: Cancellable | None = None

    def expire() -> None:
        nonlocal expired
        expired = True
        task.cancel()

    def arm(_waiting: object) -> None:
        nonlocal timer
        if timer is None:
            timer = clock.call_later(budget, expire)

    enclosing = _ENCLOSING.get()
    if enclosing is not None and enclosing[0] is task:
        enclosing[1](None)
    token = _ENCLOSING.set((task, arm))
    # WallClock may run on a loop that keeps no CPython ready queue; its
    # awaitable then takes no FIFO slot (nothing there needs the order).
    ready = getattr(loop, "_ready", ())
    try:
        value = await _step_through(awaitable, arm, ready)
    except asyncio.CancelledError:
        if not expired:
            raise
    finally:
        if timer is not None:
            timer.cancel()
        _ENCLOSING.reset(token)
    if not expired:
        return value
    _uncancel(task)
    raise DeadlineExceeded(f"dependency call exceeded {timeout}s budget")
