"""Layer attribution for a traced pass: boundary spans plus a profile.

Two instruments, each used on its own pass of the same workload:

* **Spans.** :func:`install` wraps each layer's public calls at the name
  the caller looks up (class attributes, and the module global
  ``repro.service.node.call_with_retry``).  A span is one synchronous
  call, or one resumption of a wrapped coroutine, so asyncio tasks that
  interleave on one loop never overlap.  A layer's self time is its
  spans' time minus the time of their child spans.  Spans stay in memory
  (the first :data:`KEEP_SPANS` verbatim, all of them as totals) and are
  written out once the run ends.
* **Profile.** Kernel and actor code runs as generator bodies resumed by
  ``Environment.run`` and cannot be wrapped.  The time no span covers is
  split over source packages in proportion to their deterministic
  profiler (``cProfile``) self time outside the boundaries, found by
  propagating each call edge's share of time spent under a boundary.

Tracing must change no modelled number: the runner compares the program
counters of the untraced, span and profile passes.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import pstats
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Set, Tuple

import repro.service.node as service_node
from repro.cache import ClientCache
from repro.db import Database
from repro.net import Channel
from repro.schemes.base import ClientPolicy, ServerPolicy
from repro.schemes.session import ClientSession
from repro.service import CacheNode, VirtualClock
from repro.sim import PopulationPool

#: Raw spans kept verbatim for the span dump; totals cover every span.
KEEP_SPANS = 100_000

#: Span names of the boundaries whose time counts as that layer's.
LAYER_OF_SPAN = {
    "Channel.send": "net",
    "ClientCache.lookup": "cache",
    "ClientCache.invalidate": "cache",
    "ServerPolicy.build_report": "reports",
    "ClientPolicy.on_report": "schemes",
    "ClientSession.offer_report": "schemes",
    "Database.apply_update": "db",
    "PopulationPool.seed_parked": "population",
    "PopulationPool.try_absorb": "population",
    "CacheNode.get": "service",
    "call_with_retry": "service.retry",
    "VirtualClock.advance": "service.clock",
    "VirtualClock.run_until": "service.clock",
    "VirtualClock.drive": "service.clock",
}


class Tracer:
    """In-memory span recorder: a stack of open spans plus totals."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self._clock = time.perf_counter
        #: Self seconds per layer (span time minus child span time).
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds per span name.
        self.total_s: Dict[str, float] = defaultdict(float)
        #: Calls per span name (one per call, not per coroutine step).
        self.calls: Counter = Counter()
        #: Seconds covered by root spans (no open parent).
        self.root_s = 0.0
        self.n_spans = 0
        #: ``(name, start, end, parent name or "")`` of the first spans.
        self.spans: List[Tuple[str, float, float, str]] = []
        #: Bits of every report the wrapped ``build_report`` returned.
        self.report_bits = 0.0

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def leave(self) -> None:
        end = self._clock()
        name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[LAYER_OF_SPAN[name]] += duration - child
        self.total_s[name] += duration
        self.n_spans += 1
        stack = self._stack
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        else:
            self.root_s += duration
            parent = ""
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((name, start, end, parent))

    @property
    def open_spans(self) -> int:
        return len(self._stack)


class _Steps:
    """Await a coroutine, timing each resumption as one span."""

    __slots__ = ("_coro", "_name", "_tracer")

    def __init__(self, coro, name: str, tracer: Tracer) -> None:
        self._coro = coro
        self._name = name
        self._tracer = tracer

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self._tracer.enter(self._name)
        try:
            return self._coro.send(value)
        finally:
            self._tracer.leave()

    def throw(self, *exc):
        self._tracer.enter(self._name)
        try:
            return self._coro.throw(*exc)
        finally:
            self._tracer.leave()

    def close(self):
        self._coro.close()


def _wrap(fn: Callable, name: str, tracer: Tracer) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def span_async(*args, **kwargs):
            tracer.calls[name] += 1
            return await _Steps(fn(*args, **kwargs), name, tracer)

        return span_async

    enter, leave, calls = tracer.enter, tracer.leave, tracer.calls
    if name == "ServerPolicy.build_report":

        @functools.wraps(fn)
        def span_report(*args, **kwargs):
            calls[name] += 1
            enter(name)
            try:
                report = fn(*args, **kwargs)
            finally:
                leave()
            tracer.report_bits += report.size_bits
            return report

        return span_report

    @functools.wraps(fn)
    def span(*args, **kwargs):
        calls[name] += 1
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return span


def _subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def boundaries() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` of every wrapped call site."""
    out: List[Tuple[object, str, str]] = [
        (Channel, "send", "Channel.send"),
        (ClientCache, "lookup", "ClientCache.lookup"),
        (ClientCache, "invalidate", "ClientCache.invalidate"),
        (ClientSession, "offer_report", "ClientSession.offer_report"),
        (Database, "apply_update", "Database.apply_update"),
        (PopulationPool, "seed_parked", "PopulationPool.seed_parked"),
        (PopulationPool, "try_absorb", "PopulationPool.try_absorb"),
        (CacheNode, "get", "CacheNode.get"),
        (service_node, "call_with_retry", "call_with_retry"),
        (VirtualClock, "advance", "VirtualClock.advance"),
        (VirtualClock, "run_until", "VirtualClock.run_until"),
        (VirtualClock, "drive", "VirtualClock.drive"),
    ]
    # Every scheme overrides the policy hooks: wrap each definition.
    for base, attr, name in (
        (ServerPolicy, "build_report", "ServerPolicy.build_report"),
        (ClientPolicy, "on_report", "ClientPolicy.on_report"),
    ):
        for cls in _subclasses(base):
            if attr in vars(cls):
                out.append((cls, attr, name))
    return out


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary; returns the function that restores them."""
    originals = []
    for owner, attr, name in boundaries():
        fn = vars(owner)[attr]
        originals.append((owner, attr, fn))
        setattr(owner, attr, _wrap(fn, name, tracer))

    def uninstall() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return uninstall


# -- profile attribution --------------------------------------------------------

#: Source-path markers, most specific first.
_PACKAGES = (
    ("/src/repro/des/", "des"),
    ("/src/repro/net/", "net"),
    ("/src/repro/cache/", "cache"),
    ("/src/repro/reports/", "reports"),
    ("/src/repro/schemes/", "schemes"),
    ("/src/repro/db/", "db"),
    ("/src/repro/sim/population.py", "population"),
    ("/src/repro/sim/", "sim"),
    ("/src/repro/service/retry.py", "service.retry"),
    ("/src/repro/service/clock.py", "service.clock"),
    ("/src/repro/service/", "service"),
    ("/src/repro/", "other"),
    ("/perfbench/", "other"),
)


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to; ``stdlib`` outside the repo."""
    path = filename.replace("\\", "/")
    for marker, layer in _PACKAGES:
        if marker in path:
            return layer
    return "stdlib"


def _code_key(fn: Callable) -> Tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def boundary_keys() -> Set[Tuple[str, int, str]]:
    return {_code_key(vars(owner)[attr]) for owner, attr, _ in boundaries()}


def profile(run: Callable[[], object]) -> Tuple[object, pstats.Stats]:
    """Run *run* under ``cProfile``; returns its value and the stats."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        value = run()
    finally:
        prof.disable()
    return value, pstats.Stats(prof)


def profile_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Each layer's share of all profiler self time, grouped by package."""
    out: Dict[str, float] = defaultdict(float)
    for f, (_cc, _nc, tt, _ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        out[layer_of_file(f[0])] += tt
    total = sum(out.values())
    return {k: v / total for k, v in sorted(out.items())} if total else {}


def unspanned_self_by_layer(stats: pstats.Stats) -> Dict[str, float]:
    """Profiler self seconds per layer, outside every boundary call.

    ``inside[f]`` is the share of ``f``'s time spent with a boundary on
    the stack: 1 for a boundary, else the time-weighted mean over its
    call edges of the caller's share (fixed point over the call graph).
    """
    boundary = boundary_keys()
    table = stats.stats  # type: ignore[attr-defined]
    inside = {f: (1.0 if f in boundary else 0.0) for f in table}
    for _ in range(100):
        delta = 0.0
        for f, (_cc, _nc, _tt, _ct, callers) in table.items():
            if f in boundary or not callers:
                continue
            weight = sum(edge[3] for edge in callers.values())
            if weight <= 0.0:
                continue
            share = sum(edge[3] * inside.get(c, 0.0) for c, edge in callers.items())
            share /= weight
            delta = max(delta, abs(share - inside[f]))
            inside[f] = share
        if delta < 1e-9:
            break
    out: Dict[str, float] = defaultdict(float)
    for f, (_cc, _nc, tt, _ct, callers) in table.items():
        if f in boundary:
            continue
        covered = sum(edge[2] * inside.get(c, 0.0) for c, edge in callers.items())
        out[layer_of_file(f[0])] += max(0.0, tt - covered)
    return dict(out)
