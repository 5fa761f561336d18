"""Core event types for the discrete-event simulation kernel.

An :class:`Event` is the unit of coordination: processes yield events to
suspend until the event is *processed* (its callbacks run).  The lifecycle
is ``pending -> triggered (scheduled on the heap) -> processed``.

The kernel is deliberately close in spirit to process-oriented simulation
packages such as CSIM (used by the paper) and simpy: the rest of the
library only relies on the small surface defined here.

Hot-path notes (see docs/PERFORMANCE.md): the single-waiter case — one
process yielding one event — is by far the dominant wait pattern, so it
bypasses the callback list entirely through the ``_proc`` slot, and
:class:`Timeout` construction inlines both the base initialiser and the
heap push.  Every specialization preserves the exact ``(time, priority,
eid)`` schedule sequence and is pinned by the kernel golden tests.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:
    from .environment import Environment
    from .process import Process

# Scheduling priorities.  Lower values are popped first among events that
# share a timestamp.  URGENT is used for interrupts and kernel-internal
# wake-ups, HIGH for model events that must precede normal activity in the
# same instant (e.g. database updates commit before a report is built).
URGENT = 0
HIGH = 1
NORMAL = 5
LOW = 9

PENDING = object()


class Event:
    """An event that may succeed with a value or fail with an exception.

    Parameters
    ----------
    env:
        The :class:`~repro.des.environment.Environment` the event lives in.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_defused", "_proc")

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        #: Set True to suppress the unhandled-failure check for this event.
        self._defused = False
        #: Single-waiter fast path: the process suspended on this event,
        #: when it is the *first* waiter.  Resumed before ``callbacks``
        #: (i.e. in exactly the order the old append-only list produced).
        self._proc: Optional[Process] = None

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception).

        Raises
        ------
        AttributeError
            If the event has not been triggered yet.
        """
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with *value*.

        The event is scheduled for processing at the current simulation time.
        Returns the event for chaining.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._heap, (env._now, priority, eid, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with *exception*.

        Processes waiting on the event will have the exception thrown at
        their ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._heap, (env._now, priority, eid, self))
        return self

    def _mark_processed(self) -> None:
        self._processed = True
        self.callbacks = None


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Created via :meth:`Environment.timeout`; triggers itself immediately on
    construction.  The constructor is fully inlined — base initialiser and
    heap push included — because one of these is allocated per classic
    ``yield env.timeout(d)``, the second-hottest yield in the simulator.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        env: Environment,
        delay: float,
        value: Any = None,
        priority: int = NORMAL,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self._proc = None
        self.delay = delay
        env._eid = eid = env._eid + 1
        heappush(env._heap, (env._now + delay, priority, eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class _Wakeup:
    """Reusable heap token for the kernel's timeout fast lane.

    The dominant event pattern by far is a process sleeping for a fixed
    delay.  ``yield <seconds>`` (or ``yield env.sleep(seconds)``)
    schedules one of these instead of a full :class:`Timeout`: no
    callback list, no pending/triggered lifecycle — just the owning
    process, which the run loop resumes directly.

    Each process owns exactly *one* token, allocated with the process
    and re-armed per sleep by stamping ``eid`` with the sleep's heap
    insertion id: a process sleeps at most once at a time, and eids are
    never reused, so a popped heap entry resumes the process iff its eid
    still matches the token's.  An interrupt cancels the pending sleep
    by resetting ``eid`` to 0 (no entry ever carries eid 0), which
    leaves the stale heap entry to be skipped on pop.  The class-level
    attributes let the token duck-type as a processed, successful event
    for tracers and for :meth:`Process._resume`.
    """

    __slots__ = ("proc", "eid")

    ok = True
    processed = True
    callbacks = None
    _ok = True
    _value = None
    value = None
    _defused = True

    def __init__(self, proc: Process) -> None:
        self.proc = proc
        self.eid = 0

    def __repr__(self) -> str:
        return f"<_Wakeup for {self.proc!r}>"


class AnyOf(Event):
    """Event that fires as soon as the first of *events* fires.

    Succeeds with that child event as its value, or fails with its
    exception if it failed; later children are ignored.  An empty list
    succeeds at once (with None).
    """

    __slots__ = ()

    def __init__(self, env: Environment, events: Iterable[Event]) -> None:
        super().__init__(env)
        events = list(events)
        for event in events:
            if event.env is not env:
                raise ValueError("events of a condition must share one environment")
        if not events:
            self.succeed()
            return
        for event in events:
            if event._processed:
                self._check(event)
            else:
                # Unprocessed events always carry a callback list.
                event.callbacks.append(self._check)  # type: ignore[union-attr]

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if event._ok:
            self.succeed(event)
        else:
            self.fail(event._value)
