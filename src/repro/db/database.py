"""The server's database of N named items.

The paper's model (Section 2): the database is a collection of ``N`` named
data items, updated only by the server; a data item is the unit of update
and query.  For invalidation reports the server needs, at any time:

* the latest update timestamp of each item (``last_update``);
* the items updated within a window ``(T - wL, T]`` (for TS reports);
* the globally most-recently-updated distinct items in recency order
  (for Bit-Sequences reports and for AAW's enlarged windows).

The recency order is maintained incrementally with an ordered dict
(move-to-end on update), so report construction costs O(result size), not
O(N) — essential when BS reports are built every 20 simulated seconds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

import numpy as np

#: Timestamp used for "never updated".
NEVER = float("-inf")


class Database:
    """Server-side item store with an incremental update-recency index."""

    def __init__(self, n_items: int, origin_time: float = NEVER):
        if n_items <= 0:
            raise ValueError("database needs at least one item")
        self.n_items = int(n_items)
        #: Latest update time per item (NEVER when untouched).
        self.last_update = np.full(self.n_items, NEVER, dtype=np.float64)
        #: Monotone per-item version counter; version 0 is the initial value.
        self.version = np.zeros(self.n_items, dtype=np.int64)
        #: History floor: the database vouches for every update since this
        #: instant.  A newborn database knows all history (NEVER); a
        #: crash-restart raises the floor to the restart time
        #: (:meth:`forget_history`), bounding what reports may claim.
        self.origin_time = origin_time
        self.total_updates = 0
        # item -> last update time; most recently updated item is LAST.
        self._recency: "OrderedDict[int, float]" = OrderedDict()
        # Single-slot memo for the per-broadcast-tick recency_order scan
        # (keyed by total_updates, so any update invalidates it).  At the
        # paper's update rates most BS ticks repeat the previous tick's
        # query verbatim — see docs/PERFORMANCE.md.
        self._recency_order_key: Tuple[int, int | None] | None = None
        self._recency_order_result: List[Tuple[int, float]] = []

    def __repr__(self):
        return f"<Database n={self.n_items} updates={self.total_updates}>"

    def _check_item(self, item: int):
        if not 0 <= item < self.n_items:
            raise IndexError(f"item {item} outside [0, {self.n_items})")

    def apply_update(self, item: int, now: float):
        """Commit an update of *item* at time *now*."""
        self._check_item(item)
        if now < self.last_update[item]:
            raise ValueError("update time precedes the item's latest update")
        self.last_update[item] = now
        self.version[item] += 1
        self.total_updates += 1
        self._recency[item] = now
        self._recency.move_to_end(item)

    def forget_history(self, now: float):
        """Discard all update-*time* knowledge, as a server crash would.

        Item values and version counters are durable (they model the
        persisted database); what a restart loses is the in-memory record
        of *when* items changed.  ``origin_time`` becomes *now*: the new
        incarnation can only vouch for updates it witnesses from here on,
        so every report builder must treat *now* as its history floor.
        """
        self.origin_time = now
        self.last_update.fill(NEVER)
        self._recency.clear()
        self._clear_memo()

    def _clear_memo(self):
        self._recency_order_key = None
        self._recency_order_result = []

    # -- replica synchronisation (multi-cell; see repro.sim.propagation) -------

    def apply_sync(self, item: int, ts: float, version: int) -> int:
        """Apply one replicated update with an *absolute* version counter.

        Unlike :meth:`apply_update` (which increments), a replica adopts
        the origin's version number verbatim — combined signatures are a
        pure function of the version array, so every cell must hold the
        same counters for the same knowledge horizon.  Returns the old
        version so the caller can forward the change to its policy.
        """
        self._check_item(item)
        if ts < self.last_update[item]:
            raise ValueError("sync time precedes the item's latest update")
        old = int(self.version[item])
        self.last_update[item] = ts
        self.version[item] = version
        self.total_updates += 1
        self._recency[item] = ts
        self._recency.move_to_end(item)
        return old

    def replace_history(self, floor: float, pairs, versions) -> List[Tuple[int, int, int]]:
        """Adopt a feed snapshot: absolute versions, times known since *floor*.

        *pairs* is ``(item, ts)`` most-recent-first (the
        :meth:`updated_since` order) covering ``(floor, horizon]``;
        *versions* is the feed's full version array as of that horizon.
        Everything older than *floor* is forgotten — the replica's
        history floor rises exactly like a crash restart's does.
        Returns the ``(item, old_version, new_version)`` changes so the
        caller can forward them to its scheme policy.
        """
        changed = [
            (int(item), int(self.version[item]), int(versions[item]))
            for item in np.nonzero(self.version != versions)[0]
        ]
        self.version[:] = versions
        self.origin_time = floor
        self.last_update.fill(NEVER)
        self._recency.clear()
        # Reversed: ascending time, reproducing the feed's recency order.
        for item, ts in reversed(pairs):
            self.last_update[item] = ts
            self._recency[item] = ts
        self.total_updates += 1
        self._clear_memo()
        return changed

    def backfill_history(self, pairs, floor: float):
        """Graft older update history below the current floor.

        Cooperative salvage: a peer vouches for *every* update in
        ``(floor, origin_time]`` with *pairs* (``(item, ts)``
        most-recent-first).  Items we already track keep their newer
        record; the rest slot in at the cold end of the recency index in
        their original order.  ``origin_time`` drops to *floor*, so
        window/BS report builders may now reach that far back.  Versions
        need no patching — the replica's array is already correct as of
        its horizon for every item, including backfilled ones.
        """
        recency = self._recency
        for item, ts in pairs:
            if item in recency:
                continue
            self._check_item(item)
            recency[item] = ts
            recency.move_to_end(item, last=False)
            if self.last_update[item] == NEVER:
                self.last_update[item] = ts
        if floor < self.origin_time:
            self.origin_time = floor
        self._clear_memo()

    def read(self, item: int) -> Tuple[int, float]:
        """Return ``(version, last_update_time)`` of *item*."""
        self._check_item(item)
        return int(self.version[item]), float(self.last_update[item])

    def updated_since(self, cutoff: float) -> List[Tuple[int, float]]:
        """Items whose latest update is strictly after *cutoff*.

        Returned most-recent-first as ``(item, timestamp)`` pairs; cost is
        O(result size).
        """
        out: List[Tuple[int, float]] = []
        for item, ts in reversed(self._recency.items()):
            if ts <= cutoff:
                break
            out.append((item, ts))
        return out

    def recency_order(self, limit: int | None = None) -> List[Tuple[int, float]]:
        """Up to *limit* most-recently-updated items, most recent first.

        Memoized against an unchanged database; treat the list as
        immutable.
        """
        key = (self.total_updates, limit)
        if key == self._recency_order_key:
            return self._recency_order_result
        out: List[Tuple[int, float]] = []
        for item, ts in reversed(self._recency.items()):
            if limit is not None and len(out) >= limit:
                break
            out.append((item, ts))
        self._recency_order_key = key
        self._recency_order_result = out
        return out
