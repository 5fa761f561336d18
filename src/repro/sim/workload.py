"""Query/update access patterns (paper Table 2).

Both studied workloads update uniformly over the whole database; they
differ in the query side:

* **UNIFORM** — queries uniform over all items (no locality; caching
  barely helps).
* **HOTCOLD** — items 0..99 form a hot region receiving 80 % of every
  client's queries; the rest go uniformly to the remainder.

:class:`AccessPattern` is the general two-region form so ablations can
give updates locality too.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..des import RandomStream


@dataclass(frozen=True)
class Region:
    """A contiguous inclusive id range ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise ValueError(f"bad region [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, item: int) -> bool:
        return self.lo <= item <= self.hi

    def pick(self, stream: RandomStream) -> int:
        return stream.randint(self.lo, self.hi)


class AccessPattern:
    """Two-region (hot/cold) item chooser.

    Parameters
    ----------
    n_items:
        Database size; regions must fit inside it.
    hot:
        The hot region, or None for a flat pattern.
    hot_prob:
        Probability a pick lands in the hot region.
    cold_excludes_hot:
        When True (default) cold picks avoid the hot region (paper:
        "the other 20 % of the requests are directed to elsewhere in
        the database").
    zipf_alpha:
        When set (``alpha > 0``), queries follow a Zipf(alpha)
        popularity law over the whole database — item ``i`` has rank
        ``i + 1``, so low ids are the popular ones, matching the
        hot-region convention.  Mutually exclusive with ``hot``; when
        unset (the default) every draw takes the exact two-region code
        path above, so existing seeded runs stay bit-identical.
    """

    def __init__(
        self,
        n_items: int,
        hot: Optional[Region] = None,
        hot_prob: float = 0.0,
        cold_excludes_hot: bool = True,
        zipf_alpha: Optional[float] = None,
    ):
        if hot is not None:
            if hot.hi >= n_items:
                raise ValueError("hot region exceeds the database")
            if not 0 <= hot_prob <= 1:
                raise ValueError("hot_prob must be in [0, 1]")
            if cold_excludes_hot and hot.size >= n_items:
                raise ValueError("no cold items remain outside the hot region")
        self.n_items = n_items
        self.hot = hot
        self.hot_prob = hot_prob if hot is not None else 0.0
        self.cold_excludes_hot = cold_excludes_hot
        self.zipf_alpha = zipf_alpha
        self._zipf_cdf: Optional[List[float]] = None
        if zipf_alpha is not None:
            if hot is not None:
                raise ValueError("zipf_alpha and a hot region are exclusive")
            if not zipf_alpha > 0:
                raise ValueError("zipf_alpha must be > 0")
            # Inverse-CDF table: one uniform draw per pick, bisected into
            # the normalised cumulative rank weights (rank k ~ k**-alpha).
            weights = [float(k) ** -zipf_alpha for k in range(1, n_items + 1)]
            total = math.fsum(weights)
            cdf: List[float] = []
            acc = 0.0
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cdf[-1] = 1.0  # guard fsum rounding at the top end
            self._zipf_cdf = cdf

    def __repr__(self):
        if self._zipf_cdf is not None:
            return f"<AccessPattern zipf a={self.zipf_alpha} n={self.n_items}>"
        if self.hot is None:
            return f"<AccessPattern uniform n={self.n_items}>"
        return (
            f"<AccessPattern hot=[{self.hot.lo},{self.hot.hi}]@{self.hot_prob} "
            f"n={self.n_items}>"
        )

    def pick(self, stream: RandomStream) -> int:
        """Draw one item id."""
        if self._zipf_cdf is not None:
            return bisect_right(self._zipf_cdf, stream.uniform())
        if self.hot is not None and stream.bernoulli(self.hot_prob):
            return self.hot.pick(stream)
        if self.hot is None or not self.cold_excludes_hot:
            return stream.randint(0, self.n_items - 1)
        # Uniform over the complement of the hot region: draw an index in
        # [0, n - hot.size) and skip over the hot block.
        idx = stream.randint(0, self.n_items - self.hot.size - 1)
        return idx if idx < self.hot.lo else idx + self.hot.size

    def warm_fill(self, stream: RandomStream, capacity: int) -> list:
        """Distinct items approximating a stationary LRU cache.

        Used for warm-starting clients: hot items dominate steady-state
        occupancy, so they fill first (a random subset when the cache is
        smaller than the hot region); remaining slots draw uniformly from
        the cold complement.
        """
        capacity = min(capacity, self.n_items)
        if self._zipf_cdf is not None:
            # Steady-state LRU occupancy under Zipf is the top ranks.
            return list(range(capacity))
        items: list = []
        if self.hot is not None and self.hot_prob > 0:
            hot_take = min(capacity, self.hot.size)
            items.extend(
                int(i)
                for i in stream.choice_without_replacement(
                    self.hot.lo, self.hot.hi, hot_take
                )
            )
        remaining = capacity - len(items)
        if remaining > 0:
            if self.hot is None:
                items.extend(
                    int(i)
                    for i in stream.choice_without_replacement(
                        0, self.n_items - 1, remaining
                    )
                )
            else:
                span = self.n_items - self.hot.size
                for idx in stream.choice_without_replacement(0, span - 1, remaining):
                    idx = int(idx)
                    items.append(idx if idx < self.hot.lo else idx + self.hot.size)
        return items


@dataclass(frozen=True)
class Workload:
    """A named (query pattern, update pattern) pair for all clients."""

    name: str
    query_hot: Optional[Tuple[int, int]] = None   # inclusive bounds
    query_hot_prob: float = 0.0
    update_hot: Optional[Tuple[int, int]] = None
    update_hot_prob: float = 0.0
    #: Zipf exponent for the query side (ablations beyond Table 2);
    #: ``None`` keeps the paper's two-region patterns bit-identical.
    query_zipf_alpha: Optional[float] = None

    def query_pattern(self, n_items: int) -> AccessPattern:
        """The query pattern, shared by every client.

        Table 2 gives every client the same hot bounds (items 1..100),
        and a pattern never changes after construction, so a model
        builds one and hands it to all of its clients.
        """
        hot = Region(*self.query_hot) if self.query_hot else None
        return AccessPattern(
            n_items,
            hot,
            self.query_hot_prob,
            zipf_alpha=self.query_zipf_alpha,
        )

    def update_pattern(self, n_items: int) -> AccessPattern:
        """The server update pattern."""
        hot = Region(*self.update_hot) if self.update_hot else None
        return AccessPattern(n_items, hot, self.update_hot_prob)


#: Queries and updates uniform over the whole database (Table 2, UNIFORM).
UNIFORM = Workload(name="UNIFORM")

#: 80 % of queries to items 0..99; updates uniform (Table 2, HOTCOLD).
HOTCOLD = Workload(name="HOTCOLD", query_hot=(0, 99), query_hot_prob=0.8)


def workload_by_name(name: str) -> Workload:
    """Look up a preset workload (case-insensitive)."""
    presets = {"uniform": UNIFORM, "hotcold": HOTCOLD}
    try:
        return presets[name.lower()]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(presets)}")
