"""The mobile client's item cache with TS-style certification semantics.

The TS client algorithm (paper Figure 1) re-stamps every surviving entry
with the report timestamp ``Ti`` after each report.  Doing that literally
costs O(cache size) per report per client; this class instead keeps one
client-wide *certification floor*: an entry's effective timestamp is the
floor when the entry was present at the last certification, else its own
fetch timestamp.  Presence is tracked with an epoch counter — raising
the floor bumps the epoch, and entries remember the epoch they were
inserted under — so the floor never leaks onto entries inserted *after*
the certification it represents.

That leak is not hypothetical: a fetch whose response crosses a report
boundary installs a value whose coherence time predates the report the
client just consumed.  Such *suspect* entries are tracked in
``unreconciled`` and must be re-validated (or conservatively dropped) by
the scheme at the next report — see ``repro.schemes.base``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .entry import CacheEntry
from .lru import LRUCache


class ClientCache:
    """LRU cache of :class:`CacheEntry` plus epoch-aware certification."""

    __slots__ = (
        "_lru",
        "certified_floor",
        "_epoch",
        "unreconciled",
        "insertions",
        "invalidations",
        "full_drops",
    )

    def __init__(self, capacity: int) -> None:
        self._lru: LRUCache[int, CacheEntry] = LRUCache(capacity)
        #: Entries present at the last certification are valid as of this.
        self.certified_floor = float("-inf")
        self._epoch = 0
        #: Items inserted with a coherence time older than the client's
        #: last-heard report; they need scheme reconciliation.
        self.unreconciled: Set[int] = set()
        self.insertions = 0
        self.invalidations = 0
        self.full_drops = 0

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, item: object) -> bool:
        return item in self._lru

    @property
    def capacity(self) -> int:
        """Maximum number of cached items."""
        return self._lru.capacity

    @property
    def evictions(self) -> int:
        """LRU evictions so far."""
        return self._lru.evictions

    @property
    def epoch(self) -> int:
        """Certification epoch (bumped by every :meth:`certify`)."""
        return self._epoch

    def lookup(self, item: int) -> Optional[CacheEntry]:
        """Return the entry for *item* and mark it recently used."""
        return self._lru.get(item)

    def peek(self, item: int) -> Optional[CacheEntry]:
        """Return the entry without touching LRU recency."""
        return self._lru.peek(item)

    def insert(self, entry: CacheEntry, suspect: bool = False) -> None:
        """Add a freshly fetched entry (may evict the LRU one).

        *suspect* marks an entry whose coherence time predates the
        client's last processed report: it is recorded in
        ``unreconciled`` for the scheme to handle at the next report.
        """
        entry.cert_epoch = self._epoch
        self._lru.put(entry.item, entry)
        if suspect:
            self.unreconciled.add(entry.item)
        else:
            self.unreconciled.discard(entry.item)
        self.insertions += 1

    def load(self, entries: Sequence[CacheEntry]) -> None:
        """Fill an empty cache with *entries*, least recently used first.

        Leaves the cache as :meth:`insert` of each entry in turn (none
        suspect) would: the same LRU order, ``insertions`` count and
        certification epochs.  The items must be distinct and fit the
        capacity, so nothing is evicted.
        """
        data = self._lru._data
        if data:
            raise ValueError("load fills an empty cache")
        if len(entries) > self._lru.capacity:
            raise ValueError("more entries than the cache holds")
        epoch = self._epoch
        for entry in entries:
            entry.cert_epoch = epoch
            data[entry.item] = entry
        if len(data) != len(entries):
            data.clear()
            raise ValueError("entries must be for distinct items")
        if self.unreconciled:
            self.unreconciled.difference_update(data)
        self.insertions += len(entries)

    def is_certified(self, entry: CacheEntry) -> bool:
        """Whether the last certification covered this entry."""
        return entry.cert_epoch < self._epoch

    def effective_ts(self, entry: CacheEntry) -> float:
        """The entry's TS-algorithm timestamp ``t_c``.

        The certification floor applies only to entries that were present
        when it was raised.
        """
        if entry.cert_epoch < self._epoch and self.certified_floor > entry.ts:
            return self.certified_floor
        return entry.ts

    def invalidate(self, item: int) -> bool:
        """Drop *item* if cached; returns whether it was present."""
        self.unreconciled.discard(item)
        if self._lru.remove(item):
            self.invalidations += 1
            return True
        return False

    def invalidate_stale(self, updates: Iterable[Tuple[int, float]]) -> int:
        """Drop each cached item updated after its entry's effective time.

        *updates* yields ``(item, ts)`` pairs, a report's update times.
        Each item is looked up in the cache's own dict, without touching
        recency; an entry whose :meth:`effective_ts` is older than its
        ``ts`` (Figure 1's ``t_c < t_j`` test) goes through
        :meth:`invalidate`.  Returns the number of entries dropped.
        """
        # The LRU map's own dict: a lookup costs no Python frame.
        entry_of = self._lru._data.get
        epoch = self._epoch
        floor = self.certified_floor
        dropped = 0
        for item, ts in updates:
            entry = entry_of(item)
            if entry is None:
                continue
            # effective_ts(entry), inline: dropping an entry moves
            # neither the epoch nor the floor.
            if entry.cert_epoch < epoch and floor > entry.ts:
                effective = floor
            else:
                effective = entry.ts
            if ts > effective:
                self.invalidate(item)
                dropped += 1
        return dropped

    def unreconciled_entries(self) -> List[CacheEntry]:
        """Snapshot of the suspect entries still cached.

        Items evicted since being marked are pruned on the way.
        """
        out: List[CacheEntry] = []
        stale_marks: List[int] = []
        for item in self.unreconciled:
            entry = self._lru.peek(item)
            if entry is None:
                stale_marks.append(item)
            else:
                out.append(entry)
        for item in stale_marks:
            self.unreconciled.discard(item)
        return out

    def certify(self, report_time: float) -> None:
        """Certify every current entry as valid as of *report_time*.

        The caller (scheme code) must have invalidated or reconciled
        everything stale first; certification clears the suspect set.
        """
        if report_time > self.certified_floor:
            self.certified_floor = report_time
        self._epoch += 1
        self.unreconciled.clear()

    def drop_all(self) -> None:
        """Discard the entire cache (long-disconnection path)."""
        count = len(self._lru)
        self._lru.clear()
        self.unreconciled.clear()
        if count:
            self.full_drops += 1
        self.invalidations += count

    def entries(self) -> List[CacheEntry]:
        """Snapshot of entries in LRU-to-MRU order."""
        return [entry for _key, entry in self._lru.items()]

    def item_ids(self) -> List[int]:
        """Snapshot of cached item ids in LRU-to-MRU order."""
        return self._lru.keys()
