"""Amnesic Terminals (AT) report: only the latest interval's updates.

Barbara & Imielinski's AT scheme broadcasts just the ids of items updated
during the last broadcast interval ``(T - L, T]`` with no per-item
timestamps.  A client must have heard *every* report: any gap larger than
one interval forces a full cache drop.  Implemented as a library citizen
and ablation baseline (the paper's own evaluation excludes it because it
cannot survive long disconnections).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from .base import Invalidation, Report, ReportKind, UpdateLog
from .sizes import DEFAULT_TIMESTAMP_BITS, amnesic_report_bits


class AmnesicReport(Report):
    """Ids updated in the last interval; usable only by gap-free clients."""

    kind = ReportKind.AMNESIC

    def __init__(
        self,
        timestamp: float,
        interval: float,
        items: Iterable[int],
        n_items: int,
        timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
        origin: float = float("-inf"),
    ) -> None:
        if interval <= 0:
            raise ValueError("broadcast interval must be positive")
        self.timestamp = float(timestamp)
        self.interval = float(interval)
        #: Oldest ``Tlb`` the report vouches for: the previous report, or
        #: the server's history floor when that is later (a restarted
        #: server never saw the updates before it).
        self.covered_from = max(self.timestamp - self.interval, float(origin))
        self.items: FrozenSet[int] = frozenset(items)
        # Built once: every covered listener shares it.
        self._covered = Invalidation.drop(self.items)
        self.n_items = n_items
        self.size_bits = amnesic_report_bits(len(self.items), n_items, timestamp_bits)

    def __repr__(self) -> str:
        return f"<AmnesicReport T={self.timestamp} n={len(self.items)}>"

    def covers(self, tlb: float) -> bool:
        """The client must have heard the previous report (of this
        server incarnation)."""
        return tlb >= self.covered_from

    def invalidation_for(self, tlb: float) -> Invalidation:
        if not self.covers(tlb):
            return Invalidation.drop_all()
        return self._covered


def build_amnesic_report(
    db: UpdateLog,
    timestamp: float,
    interval: float,
    timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
) -> AmnesicReport:
    """Construct an AT report from the database recency index."""
    items = [item for item, _ts in db.updated_since(timestamp - interval)]
    return AmnesicReport(
        timestamp=timestamp,
        interval=interval,
        items=items,
        n_items=db.n_items,
        timestamp_bits=timestamp_bits,
        origin=db.origin_time,
    )
