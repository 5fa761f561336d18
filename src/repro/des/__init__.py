"""Process-oriented discrete-event simulation kernel.

A from-scratch replacement for the CSIM package the paper used: coroutine
processes, an event heap with deterministic (time, priority, FIFO)
ordering, named random streams, and statistics monitors.

Quick example::

    from repro.des import Environment

    def clock(env, name, tick):
        while True:
            yield env.timeout(tick)
            print(name, env.now)

    env = Environment()
    env.process(clock(env, "fast", 1))
    env.run(until=3)
"""

from .environment import Environment, Infinity
from .errors import StopSimulation
from .event import AnyOf, Event, HIGH, LOW, NORMAL, Timeout, URGENT
from .monitor import Counter, Histogram, MetricSet, Tally, TimeWeighted
from .process import Process
from .rng import RandomStream, RandomStreams
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "Histogram",
    "HIGH",
    "Infinity",
    "LOW",
    "MetricSet",
    "NORMAL",
    "Process",
    "RandomStream",
    "RandomStreams",
    "StopSimulation",
    "Tally",
    "TraceRecord",
    "TraceRecorder",
    "TimeWeighted",
    "Timeout",
    "URGENT",
]
