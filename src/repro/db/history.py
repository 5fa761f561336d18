"""Append-only update log used as correctness ground truth.

The simulation's staleness checks (`no stale hits`, the library's central
invariant) need to ask "was this item updated in a given half-open time
interval?".  The :class:`UpdateLog` answers that from an append-only
per-item list of update times, independent of the report structures under
test, so a bug in a report cannot hide itself.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterable, List


class UpdateLog:
    """Per-item sorted lists of update times (times arrive monotonically)."""

    def __init__(self):
        self._times: Dict[int, List[float]] = defaultdict(list)
        self.total = 0

    def record(self, item: int, now: float):
        """Append an update of *item* at *now* (must be non-decreasing)."""
        times = self._times[item]
        if times and now < times[-1]:
            raise ValueError("update log times must be non-decreasing")
        times.append(now)
        self.total += 1

    def updated_in(self, item: int, after: float, up_to: float) -> bool:
        """True if *item* was updated in the half-open interval ``(after, up_to]``."""
        times = self._times.get(item)
        if not times:
            return False
        idx = bisect.bisect_right(times, after)
        return idx < len(times) and times[idx] <= up_to

    def updates_of(self, item: int) -> List[float]:
        """All update times of *item* (possibly empty), oldest first."""
        return list(self._times.get(item, ()))

    def versions_at(self, items: Iterable[int], up_to: float) -> List[int]:
        """Per item of *items*, how many updates it had at or before
        *up_to*: its durable version counter's value at that instant."""
        times_of = self._times.get
        bisect_right = bisect.bisect_right
        return [bisect_right(times_of(item, ()), up_to) for item in items]

    def last_update_before(self, item: int, up_to: float) -> float:
        """Latest update time of *item* that is <= *up_to* (-inf if none)."""
        times = self._times.get(item)
        if not times:
            return float("-inf")
        idx = bisect.bisect_right(times, up_to)
        return times[idx - 1] if idx else float("-inf")
