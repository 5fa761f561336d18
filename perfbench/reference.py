"""A fixed pure-Python reference loop that gauges the host's current speed.

The benchmark runs on a few cores of a shared host whose neighbours slow
every instruction by up to ~70 % for tens of seconds at a time.  Process
CPU time does not hide that: the CPU is busy for us, only slower.  The
runner times this loop between the workload's timed units and scales its
timings by ``REFERENCE_S`` over a low percentile of the loop's times
(see ``run.host_factor``).

The loop imports nothing from the program, so a change to the program
cannot move it.  It does the kinds of work the simulator's hot paths do:
generator resumption, a ``heapq`` of tuples, method calls on slotted
objects and dict updates.
"""

from __future__ import annotations

import heapq
import time

#: CPU seconds :func:`loop` takes on an undisturbed core of the reference
#: host (a 2-vCPU x86-64 cloud VM, CPython 3).  Normalised timings are
#: CPU seconds at that speed.
REFERENCE_S = 0.018


class _Item:
    __slots__ = ("key", "version", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.version = 0
        self.hits = 0

    def touch(self, version: int) -> bool:
        if version > self.version:
            self.version = version
            return True
        self.hits += 1
        return False


def _producer(n: int, items, heap):
    for i in range(n):
        item = items[(i * 7919) % len(items)]
        heapq.heappush(heap, (i * 0.37 % 11.0, i, item))
        yield item.touch(i & 31)


def loop() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    items = [_Item(k) for k in range(512)]
    heap: list = []
    seen: dict = {}
    for gen in [_producer(2_000, items, heap) for _ in range(8)]:
        for fresh in gen:
            seen[fresh] = seen.get(fresh, 0) + 1
    while heap:
        when, _, item = heapq.heappop(heap)
        seen[item.key] = when
    return len(seen)


def time_loop() -> float:
    """CPU seconds of one :func:`loop`."""
    c0 = time.process_time()
    loop()
    return time.process_time() - c0
