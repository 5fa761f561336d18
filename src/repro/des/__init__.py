"""Process-oriented discrete-event simulation kernel.

A from-scratch replacement for the CSIM package the paper used: coroutine
processes, an event heap with deterministic (time, priority, FIFO)
ordering, waitable stores, named random streams, and statistics
monitors.

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
from .errors import EmptySchedule, Interrupt, SimulationError, StopSimulation
from .event import AnyOf, Event, HIGH, LOW, NORMAL, Timeout, URGENT
from .monitor import Counter, Histogram, MetricSet, Tally, TimeWeighted
from .process import Process
from .queues import PriorityItem, PriorityStore, Store
from .rng import RandomStream, RandomStreams
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "AnyOf",
    "Counter",
    "EmptySchedule",
    "Environment",
    "Event",
    "Histogram",
    "HIGH",
    "Infinity",
    "Interrupt",
    "LOW",
    "MetricSet",
    "NORMAL",
    "PriorityItem",
    "PriorityStore",
    "Process",
    "RandomStream",
    "RandomStreams",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Tally",
    "TraceRecord",
    "TraceRecorder",
    "TimeWeighted",
    "Timeout",
    "URGENT",
]
