"""Statistics collectors for simulation outputs.

Four collector styles cover the metrics the paper reports:

* :class:`Counter` — monotone totals (queries answered, bits sent).
* :class:`Tally` — running mean/min/max of a sample sequence (report
  size).
* :class:`Histogram` — a tally plus log-scale buckets for percentile
  estimates (query latency).
* :class:`TimeWeighted` — time-integral of a piecewise-constant level
  (channel busy fraction).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, Optional


class Counter:
    """A named monotone counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter; negative increments are rejected."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Tally:
    """Online mean/min/max of observed samples."""

    __slots__ = ("name", "count", "_mean", "min", "max")

    def __init__(self, name: str = "tally") -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self._mean += (value - self._mean) / self.count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    def __repr__(self) -> str:
        return f"<Tally {self.name} n={self.count} mean={self.mean:.4g}>"


class TimeWeighted:
    """Time-weighted average of a piecewise-constant level."""

    __slots__ = ("name", "_level", "_last_time", "_area", "_start")

    def __init__(
        self, env_now: float = 0.0, level: float = 0.0, name: str = "level"
    ) -> None:
        self.name = name
        self._level = level
        self._last_time = env_now
        self._area = 0.0
        self._start = env_now

    def set(self, level: float, now: float) -> None:
        """Change the level at time *now* (accumulates the closed interval)."""
        if now < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._level * (now - self._last_time)
        self._last_time = now
        self._level = level

    def average(self, now: float) -> float:
        """Time average over ``[start, now]`` (0.0 for an empty interval)."""
        span = now - self._start
        if span <= 0:
            return 0.0
        return (self._area + self._level * (now - self._last_time)) / span

    def __repr__(self) -> str:
        return f"<TimeWeighted {self.name} level={self._level}>"


class Histogram:
    """Log-scale histogram for long-tailed samples (e.g. query latency).

    Buckets are powers of two times *base*: bucket k counts samples in
    ``[base * 2^k, base * 2^(k+1))``; an underflow bucket catches smaller
    values.  Gives percentile estimates without storing samples.
    """

    __slots__ = ("name", "base", "_counts", "_underflow", "_tally")

    def __init__(self, base: float = 0.001, name: str = "histogram") -> None:
        if base <= 0:
            raise ValueError("base must be positive")
        self.name = name
        self.base = base
        self._counts: Dict[int, int] = {}
        self._underflow = 0
        self._tally = Tally(name)

    def observe(self, value: float) -> None:
        """Record one sample (negative values are rejected)."""
        if value < 0:
            raise ValueError("histogram samples must be non-negative")
        self._tally.observe(value)
        if value < self.base:
            self._underflow += 1
            return
        bucket = int(math.floor(math.log2(value / self.base)))
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    @property
    def count(self) -> int:
        """Number of samples."""
        return self._tally.count

    @property
    def mean(self) -> float:
        """Exact sample mean."""
        return self._tally.mean

    @property
    def max(self) -> Optional[float]:
        """Exact sample maximum."""
        return self._tally.max

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (upper edge of the covering bucket)."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        count = self._tally.count
        if count == 0:
            return 0.0
        target = q * count
        seen = self._underflow
        if seen >= target:
            return self.base
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen >= target:
                return self.base * 2.0 ** (bucket + 1)
        return self._tally.max if self._tally.max is not None else 0.0

    def buckets(self) -> Dict[float, int]:
        """``{bucket lower edge: count}`` including the underflow bucket."""
        out: Dict[float, int] = {0.0: self._underflow} if self._underflow else {}
        for bucket in sorted(self._counts):
            out[self.base * 2.0**bucket] = self._counts[bucket]
        return out

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricSet:
    """A named bag of collectors with lazy creation.

    Lets model components record into ``metrics.counter("x").add(...)``
    without pre-registration; the runner snapshots everything at the end.
    """

    __slots__ = ("counters", "tallies", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.tallies: Dict[str, Tally] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Fetch-or-create the counter *name*."""
        try:
            return self.counters[name]
        except KeyError:
            c = Counter(name)
            self.counters[name] = c
            return c

    def tally(self, name: str) -> Tally:
        """Fetch-or-create the tally *name*."""
        try:
            return self.tallies[name]
        except KeyError:
            t = Tally(name)
            self.tallies[name] = t
            return t

    def histogram(self, name: str, base: float = 0.001) -> Histogram:
        """Fetch-or-create the histogram *name*."""
        try:
            return self.histograms[name]
        except KeyError:
            h = Histogram(base=base, name=name)
            self.histograms[name] = h
            return h

    # -- bound handles -------------------------------------------------------
    #
    # ``metrics.counter("x").add()`` costs a method call plus a dict
    # lookup on every event; actors on the hot path resolve their names
    # once at construction and keep the returned handle.  The bind_*
    # spellings are aliases of the fetch-or-create accessors — they exist
    # so call sites document that the lookup is deliberately hoisted.

    def bind_counter(self, name: str) -> Counter:
        """Resolve *name* once; call ``.add()`` on the returned handle."""
        return self.counter(name)

    def bind_tally(self, name: str) -> Tally:
        """Resolve *name* once; call ``.observe()`` on the handle."""
        return self.tally(name)

    def bind_histogram(self, name: str, base: float = 0.001) -> Histogram:
        """Resolve *name* once; call ``.observe()`` on the handle."""
        return self.histogram(name, base=base)

    def snapshot(self) -> Dict[str, float]:
        """Flatten every collector into a ``{name: value}`` dict.

        A histogram flattens like a tally (``.count``, ``.mean``,
        ``.max``, read from its own tally) plus ``.p50``/``.p95``/``.p99``.
        """
        out: Dict[str, float] = {}
        for name, c in self.counters.items():
            out[name] = c.value
        histogram_tallies = ((name, h._tally) for name, h in self.histograms.items())
        for name, t in chain(self.tallies.items(), histogram_tallies):
            out[f"{name}.count"] = t.count
            out[f"{name}.mean"] = t.mean
            out[f"{name}.max"] = t.max if t.max is not None else 0.0
        for name, h in self.histograms.items():
            out[f"{name}.p50"] = h.percentile(0.50)
            out[f"{name}.p95"] = h.percentile(0.95)
            out[f"{name}.p99"] = h.percentile(0.99)
        return out
