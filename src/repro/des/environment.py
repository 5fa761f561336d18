"""The simulation environment: clock, event heap, and run loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple, Union

from .errors import StopSimulation
from .event import AnyOf, Event, NORMAL, Timeout, _Wakeup
from .process import Process

Infinity = float("inf")


class Environment:
    """A discrete-event simulation environment.

    Events are processed in ``(time, priority, insertion order)`` order,
    which makes runs fully deterministic for a fixed seed.

    The schedule is a list of ``(when, priority, eid, payload)`` tuples
    sifted by the C ``heapq``.  Eids are unique, so ``(when, priority,
    eid)`` is a strict total order: the pop sequence is fully determined
    by the schedule and never reaches a payload comparison.

    Parameters
    ----------
    initial_time:
        Simulation clock value at construction (default 0.0).
    """

    __slots__ = ("_now", "_heap", "_eid", "_tracer")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Entries are (time, priority, eid, Event-or-_Wakeup); the payload
        # stays Any because the wakeup fast lane only duck-types Event.
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._eid = 0
        self._tracer: Optional[Callable[[float, Any], None]] = None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={len(self._heap)}>"

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled (the kernel's throughput unit)."""
        return self._eid

    def set_tracer(self, tracer: Optional[Callable[[float, Any], None]]) -> None:
        """Install (or remove, with None) an event tracer.

        The tracer is called as ``tracer(time, event)`` for every
        processed event — see :class:`repro.des.trace.TraceRecorder`.
        The run loop samples the tracer once per :meth:`run` call, so
        install it before running (changing it from inside a callback
        takes effect at the next run).
        """
        self._tracer = tracer

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(
        self, delay: float, value: Any = None, priority: int = NORMAL
    ) -> Timeout:
        """Create an event that fires after *delay* simulated seconds."""
        return Timeout(self, delay, value, priority)

    def timeout_at(
        self, when: float, value: Any = None, priority: int = NORMAL
    ) -> Event:
        """Create an event that fires at the absolute simulated time *when*.

        ``timeout(when - now)`` lands at ``now + (when - now)``, which
        floating-point rounding can put one ulp away from *when*; this
        schedules *when* itself.  Ties order like :meth:`timeout`, by
        ``(time, priority, insertion order)``.
        """
        now = self._now
        if when < now:
            raise ValueError(f"when={when} lies in the past (now={now})")
        event = Event(self)
        event._ok = True
        event._value = value
        self._eid = eid = self._eid + 1
        heapq.heappush(self._heap, (when, priority, eid, event))
        return event

    def sleep(self, delay: float) -> float:
        """Fast-lane sleep token: ``yield env.sleep(d)``.

        Equivalent to ``yield env.timeout(d)`` at NORMAL priority —
        identical ``(time, priority, insertion-order)`` scheduling — but
        avoids allocating an Event and its callback list: the kernel
        re-arms the process's reusable wakeup token, which the run loop
        resumes directly (see :meth:`Process._resume`).  Yielding the
        bare number works too; this spelling exists for readability.
        Use :meth:`timeout` when a value, a non-default priority, or a
        joinable event is needed.
        """
        return float(delay)

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Start a new :class:`Process` from *generator*."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires with the first of *events* to fire."""
        return AnyOf(self, events)

    # -- scheduling & run loop ----------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._heap[0][0] if self._heap else Infinity

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the schedule drains.
            * a number — run until the clock reaches that time.
            * an :class:`Event` — run until that event is processed and
              return its value.
        """
        until_event: Optional[Event] = None
        if until is None:
            stop_at = Infinity
        elif isinstance(until, Event):
            until_event = until
            stop_at = Infinity
            if until_event.processed:
                return until_event.value
            # Unprocessed events always carry a callback list.
            until_event.callbacks.append(_StopCallback())  # type: ignore[union-attr]
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} lies in the past (now={self._now})"
                )

        # Inlined dispatch loop: heap access, the wakeup fast lane, the
        # single-waiter resume and the processed-marking are hot enough at
        # full scale that method and property indirections measurably cost
        # (see docs/PERFORMANCE.md).
        try:
            heap = self._heap
            pop = heapq.heappop
            wakeup_cls = _Wakeup
            bounded = stop_at != Infinity
            tracer = self._tracer  # set_tracer applies from the next run
            while heap:
                if bounded and heap[0][0] > stop_at:
                    self._now = stop_at
                    return None
                when, _prio, _eid, event = pop(heap)
                self._now = when
                if event.__class__ is wakeup_cls:
                    if tracer is not None:
                        tracer(when, event)
                    event.proc._resume(event)
                    continue
                if tracer is not None:
                    tracer(when, event)
                callbacks = event.callbacks
                event._processed = True
                event.callbacks = None
                proc = event._proc
                if proc is not None:
                    event._proc = None
                    proc._resume(event)
                    for callback in callbacks:
                        callback(event)
                    continue
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused and not callbacks:
                    # A failed event nobody waited on: surface the error
                    # instead of silently dropping it.
                    raise event.value
        except StopSimulation as stop:
            return stop.value
        if until_event is not None:
            raise RuntimeError(
                "run(until=event) exhausted the schedule before the event fired"
            )
        if stop_at is not Infinity:
            self._now = stop_at
        return None


class _StopCallback:
    """Callback object that unwinds :meth:`Environment.run`."""

    __slots__ = ()

    def __call__(self, event: Event) -> None:
        if event.ok:
            raise StopSimulation(event.value)
        raise event.value
