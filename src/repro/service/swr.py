"""Stale-while-revalidate entries: freshness and expiry as two timers.

Each L1 entry carries two independent deadlines (the cachekit model the
ROADMAP points at):

* ``fresh_until`` — soft.  Past it the entry is *SWR-stale*: it is still
  served (flagged), and a background refresh re-fetches from L2.  A
  successful refresh restores freshness and re-stamps coherence.
* ``expires_at`` — hard.  Past it the entry is deleted on sight and the
  access is a miss.  **A refresh never moves ``expires_at``** — the
  original insert fixes the outer bound for the value's whole residency,
  so a value cannot live in L1 forever on background refreshes alone.
  (The invariant pinned by the Hypothesis property in
  ``tests/service/test_swr.py``.)

SWR composes with IR invalidation, it does not replace it: a report that
invalidates the item removes the entry outright (scheme semantics win),
and certification floors apply to :class:`ServiceEntry` exactly as to
any :class:`repro.cache.CacheEntry` — the service entry *is* one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cache.entry import CacheEntry

__all__ = ["SWRConfig", "ServiceEntry"]


@dataclass(frozen=True)
class SWRConfig:
    """Two-timer policy for one node's L1 entries."""

    #: Seconds an entry stays fresh after (re)fetch.
    freshness_seconds: float = 60.0
    #: Hard lifetime from the *original* insert; never extended.
    expiry_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.freshness_seconds <= 0 or self.expiry_seconds <= 0:
            raise ValueError("SWR timers must be > 0")
        if self.expiry_seconds < self.freshness_seconds:
            raise ValueError("expiry must be >= freshness")


class ServiceEntry(CacheEntry):
    """A cache entry plus the served value and the two SWR deadlines."""

    __slots__ = ("value", "fetched_at", "fresh_until", "expires_at", "refreshing")

    def __init__(
        self,
        item: int,
        version: int,
        ts: float,
        value: object = None,
        fetched_at: float = 0.0,
        swr: Optional[SWRConfig] = None,
    ) -> None:
        super().__init__(item=item, version=version, ts=ts)
        self.value = value
        self.fetched_at = fetched_at
        if swr is None:
            self.fresh_until = float("inf")
            self.expires_at = float("inf")
        else:
            self.fresh_until = fetched_at + swr.freshness_seconds
            self.expires_at = fetched_at + swr.expiry_seconds
        #: A background refresh is already in flight (dedup latch).
        self.refreshing = False

    def is_fresh(self, now: float) -> bool:
        return now < self.fresh_until

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at

    def refreshed(
        self,
        version: int,
        ts: float,
        value: object,
        now: float,
        swr: SWRConfig,
    ) -> None:
        """Apply a successful background refresh **in place**.

        Restores freshness from *now* (clamped to the hard deadline) and
        re-stamps value/version/coherence; ``expires_at`` is untouched —
        the invariant this module exists to enforce.
        """
        self.version = version
        self.ts = ts
        self.value = value
        self.fetched_at = now
        self.fresh_until = min(now + swr.freshness_seconds, self.expires_at)
        self.refreshing = False
