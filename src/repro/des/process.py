"""Coroutine processes driven by the simulation environment.

A process wraps a Python generator.  Each ``yield`` hands the kernel an
:class:`~repro.des.event.Event`; the process is resumed with the event's
value once it is processed (or has the failure exception thrown in).

``_resume`` is the hottest function in the kernel — it runs once per
processed event — so it reads event state through slots (``_ok``,
``_value``) rather than properties, caches the generator's bound
``send``, and registers as an event's first waiter through the
``Event._proc`` slot instead of appending to the callback list.  All of
it preserves the exact ``(time, priority, eid)`` schedule sequence of
the straightforward implementation (kernel golden tests).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator

from .event import Event, NORMAL, PENDING, Timeout, URGENT, _Wakeup

if TYPE_CHECKING:
    from .environment import Environment


class _Failure:
    """Minimal failed-event stand-in for throwing into the generator."""

    __slots__ = ("_value",)

    ok = False
    _ok = False

    def __init__(self, exc: BaseException) -> None:
        self._value = exc

    @property
    def value(self) -> BaseException:
        return self._value


class Process(Event):
    """An executing process; also an event that fires when the process ends.

    The process-as-event succeeds with the generator's return value, or
    fails with the exception that escaped the generator.  Other processes
    may therefore ``yield proc`` to join on it.
    """

    __slots__ = ("_generator", "_send", "_wake", "_cb", "name")

    def __init__(
        self,
        env: Environment,
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        # Inlined Event.__init__ (a megacell promotes ~10^6 processes).
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self._proc = None
        self._generator = generator
        self._send: Callable[[Any], Any] = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        self._cb: Callable[[Any], None] = self._resume
        #: The process's reusable sleep token (also used for kick-off).
        self._wake = wake = _Wakeup(self)
        # Kick the process off at the current time: the first resume sends
        # None into the generator, which is exactly what the wake token
        # delivers — no throwaway init Event needed.
        env._eid = eid = env._eid + 1
        heappush(env._heap, (env._now, URGENT, eid, wake))

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    # -- kernel plumbing ---------------------------------------------------

    def _resume(self, event: Any) -> None:
        """Advance the generator with *event*'s outcome.

        *event* is an :class:`Event`, a :class:`_Wakeup` token, or a
        :class:`_Failure` stand-in — only the ``_ok``/``_value`` duck
        surface is touched, hence the ``Any``.
        """
        env = self.env
        send = self._send
        while True:
            try:
                if event._ok:
                    next_target = send(event._value)
                else:
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value, priority=URGENT)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(exc, priority=URGENT)
                return

            cls: Any = next_target.__class__
            if cls is Timeout and next_target.env is env:
                # Dominant event yield: a fresh private timeout — first
                # (sole) waiter, nothing processed, no callbacks yet.
                # Anything unusual (shared, already processed, foreign)
                # falls through to the generic path below.
                if (
                    next_target._proc is None
                    and not next_target._processed
                    and not next_target.callbacks
                ):
                    next_target._proc = self
                    return
            if cls is not float and cls is not int:
                if isinstance(next_target, Event):
                    if next_target.env is not env:
                        self._generator.throw(
                            ValueError(
                                "yielded event belongs to a different environment"
                            )
                        )
                        return
                    if next_target._processed:
                        # Already processed: resume synchronously.
                        event = next_target
                        continue
                    if next_target._proc is None and not next_target.callbacks:
                        # First waiter: take the single-waiter fast slot.
                        next_target._proc = self
                    else:
                        next_target.callbacks.append(self._cb)  # type: ignore[union-attr]
                    return
                if isinstance(next_target, (float, int)):
                    # numpy floating scalars subclass float; normalise.
                    next_target = float(next_target)
                else:
                    self._generator.throw(
                        TypeError(f"process yielded a non-event: {next_target!r}")
                    )
                    return
            # Timeout fast lane: a bare number of seconds sleeps without
            # allocating anything but the heap entry — the process's own
            # wake token goes on the heap, and the run loop resumes the
            # process directly (same (time, priority, eid) ordering as
            # env.timeout at NORMAL priority).
            if next_target < 0:
                event = _Failure(ValueError(f"negative delay {next_target}"))
                continue
            env._eid = eid = env._eid + 1
            heappush(env._heap, (env._now + next_target, NORMAL, eid, self._wake))
            return
