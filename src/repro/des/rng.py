"""Deterministic, named random-number streams.

Every stochastic component of the simulation (update generator, each
client's query pattern, think times, disconnections, ...) draws from its
own named stream so that

* runs are reproducible given a master seed, and
* changing how often one component draws does not perturb the others
  (common random numbers across scheme comparisons).

Stream seeds are derived from ``sha256(master_seed || name)`` so they do
not depend on creation order.  Nor do they depend on *when* a stream
derives its generator: a deferred stream derives it on its first draw
and then yields exactly what an eager one does.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, List, Sequence, Union

import numpy as np


def _derive_entropy(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def _generator(seed: int, name: str) -> np.random.Generator:
    """The generator behind stream *name* of master *seed*: the one
    derivation of every stream, eager or deferred."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(_derive_entropy(seed, name)))
    )


class _Deferred:
    """Stands in for a deferred stream's generator until its first draw.

    The first attribute a draw method reads here derives the generator,
    puts it in the stream's place and hands the attribute on.  From then
    on the stream draws straight from its generator: the draw methods
    pay nothing for the deferral.
    """

    __slots__ = ("_stream", "_seed")

    def __init__(self, stream: "RandomStream", seed: int) -> None:
        self._stream = stream
        self._seed = seed

    def __getattr__(self, attr: str) -> Any:
        if attr.startswith("__"):
            # copy, pickle and friends probe for protocol methods; a
            # probe is not a draw.
            raise AttributeError(attr)
        stream = self._stream
        gen = stream._gen = _generator(self._seed, stream.name)
        return getattr(gen, attr)


class RandomStream:
    """A single named stream with the distributions the model needs.

    A *deferred* stream derives its generator on its first draw instead
    of now, which saves the derivation for a stream that is never drawn.
    """

    __slots__ = ("name", "_gen")

    def __init__(self, seed: int, name: str, deferred: bool = False) -> None:
        self.name = name
        self._gen: "np.random.Generator | _Deferred" = (
            _Deferred(self, seed) if deferred else _generator(seed, name)
        )

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given *mean* (not rate)."""
        if mean < 0:
            raise ValueError("mean must be non-negative")
        if mean == 0:
            return 0.0
        return float(self._gen.exponential(mean))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        return float(self._gen.uniform(low, high))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return int(self._gen.integers(low, high + 1))

    def bernoulli(self, p: float) -> bool:
        """True with probability *p*."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        return bool(self._gen.random() < p)

    def bernoulli_exponentials(
        self, n: int, p: float, mean: float
    ) -> "np.ndarray[Any, Any]":
        """*n* trials of :meth:`bernoulli` (*p*), each followed on heads by
        :meth:`exponential` (*mean*): the variates, NaN where a coin
        landed tails.

        Makes exactly the draws of those scalar calls, in their order,
        and leaves the stream where they would.  Coins and variates
        interleave, so neither can be drawn as a block; what this saves
        is a Python call frame per draw.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        if mean < 0:
            raise ValueError("mean must be non-negative")
        coin = self._gen.random
        if mean == 0:
            draws = (0.0 if coin() < p else math.nan for _ in range(n))
        else:
            variate = self._gen.exponential
            draws = (variate(mean) if coin() < p else math.nan for _ in range(n))
        return np.fromiter(draws, dtype=float, count=n)

    def uniforms(self, n: int) -> List[float]:
        """The stream's next *n* uniform floats in ``[0, 1)``, as a list.

        Equal to *n* successive draws of the scalar ``random()`` that
        :meth:`bernoulli` compares against: PCG64 fills an array with the
        same ``next_double`` sequence.  A caller that draws a block ahead
        of use must own the stream outright — nothing else may draw from
        it — so the unused tail of its last block is never seen.
        """
        values: List[float] = self._gen.random(n).tolist()
        return values

    def poisson_at_least_one(self, mean: float) -> int:
        """A positive integer with the given mean, via 1 + Poisson(mean-1).

        Used for "mean k items per transaction" style parameters where at
        least one item must be drawn.
        """
        if mean < 1:
            raise ValueError("mean must be >= 1")
        return 1 + int(self._gen.poisson(mean - 1.0))

    def choice_without_replacement(
        self, low: int, high: int, k: int
    ) -> "np.ndarray[Any, Any]":
        """*k* distinct integers from ``[low, high]`` inclusive."""
        span = high - low + 1
        if k > span:
            raise ValueError(f"cannot draw {k} distinct values from {span}")
        result: "np.ndarray[Any, Any]" = low + self._gen.choice(
            span, size=k, replace=False
        )
        return result

    def shuffled(
        self, values: Union[Sequence[Any], "np.ndarray[Any, Any]"]
    ) -> "np.ndarray[Any, Any]":
        """A shuffled copy of *values*."""
        arr = np.array(values)
        self._gen.shuffle(arr)
        return arr


class RandomStreams:
    """Factory and cache of named :class:`RandomStream` objects."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, RandomStream] = {}

    def stream(self, name: str, deferred: bool = False) -> RandomStream:
        """Return the stream for *name*, creating it on first use.

        A stream created *deferred* derives its generator on its first
        draw; it yields the same numbers either way.
        """
        try:
            return self._streams[name]
        except KeyError:
            stream = RandomStream(self.seed, name, deferred)
            self._streams[name] = stream
            return stream

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} open={len(self._streams)}>"
