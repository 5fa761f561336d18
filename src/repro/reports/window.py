"""TS-style window reports: ``IR(w)`` and AAW's enlarged ``IR(w')``.

A window report broadcast at time ``T`` lists every item updated within
the last ``w`` broadcast intervals — all ``(o_i, t_i)`` with
``t_i in (T - wL, T]`` — so a client whose last-heard time ``Tlb`` falls
inside that window can invalidate exactly the items updated after ``Tlb``.

AAW's enlarged report stretches the window back to a requesting client's
``Tlb`` and marks the stretch with a ``(dummy_id, Tlb)`` record so clients
can recognise that the report covers them (Section 3.2).

Loss-adaptive broadcasting (:mod:`repro.schemes.loss_adaptive`) reuses
these structures unchanged with a widened span ``w_eff * L``: ``covers``
is monotone in the window span — moving ``window_start`` earlier only
adds covered clients, never removes one — so widening is always safe,
and the size formulas in :mod:`repro.reports.sizes` automatically price
the extra ``(id, ts)`` records the wider window drags in.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from .base import Invalidation, Report, ReportKind, UpdateLog
from .sizes import (
    DEFAULT_TIMESTAMP_BITS,
    enlarged_window_report_bits,
    window_report_bits,
)


class WindowReport(Report):
    """The classic broadcasting-timestamps report ``IR(w)``.

    Parameters
    ----------
    timestamp:
        Broadcast time ``T``.
    window_start:
        ``T - wL``; the report lists items updated strictly after this.
    items:
        ``{item: latest update time}`` with every time in
        ``(window_start, timestamp]``.
    n_items:
        Database size (prices the id field).
    """

    kind = ReportKind.WINDOW

    def __init__(
        self,
        timestamp: float,
        window_start: float,
        items: Dict[int, float],
        n_items: int,
        timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
    ) -> None:
        if window_start > timestamp:
            raise ValueError("window_start lies after the report timestamp")
        for item, ts in items.items():
            if not (window_start < ts <= timestamp):
                raise ValueError(
                    f"item {item} timestamp {ts} outside window "
                    f"({window_start}, {timestamp}]"
                )
        self.timestamp = float(timestamp)
        self.window_start = float(window_start)
        self.items = dict(items)
        self.n_items = n_items
        #: Latest update time the report mentions (window_start when it
        #: is empty): a client certified past this can certify again in
        #: O(1) — see ``schemes.base.apply_window_report``.
        self.newest_ts = max(self.items.values(), default=self.window_start)
        # Single-slot memo for fresh_since(): listeners in one broadcast
        # tick overwhelmingly share a certification floor.
        self._fresh_memo: Optional[Tuple[float, List[Tuple[int, float]]]] = None
        self.size_bits = window_report_bits(len(items), n_items, timestamp_bits)

    def __repr__(self) -> str:
        return (
            f"<WindowReport T={self.timestamp} window=({self.window_start}, "
            f"{self.timestamp}] n={len(self.items)}>"
        )

    def covers(self, tlb: float) -> bool:
        """True when the client's gap lies inside the window."""
        return tlb >= self.window_start

    def fresh_since(self, floor: float) -> List[Tuple[int, float]]:
        """The report's ``(item, ts)`` pairs with ``ts > floor``, memoized.

        A client whose cache holds no suspect entries only needs these
        against its certification floor (every entry's effective
        timestamp is at least the floor); one tick's listeners share a
        floor, so the filter runs once per broadcast, not per client.
        """
        memo = self._fresh_memo
        if memo is not None and memo[0] == floor:
            return memo[1]
        fresh = [(item, ts) for item, ts in self.items.items() if ts > floor]
        self._fresh_memo = (floor, fresh)
        return fresh

    def stale_items_after(self, tlb: float) -> FrozenSet[int]:
        """Items whose latest update is after *tlb* (requires coverage)."""
        return frozenset(item for item, ts in self.items.items() if ts > tlb)

    def invalidation_for(self, tlb: float) -> Invalidation:
        if not self.covers(tlb):
            return Invalidation.drop_all()
        return Invalidation.drop(self.stale_items_after(tlb))


class EnlargedWindowReport(WindowReport):
    """AAW's ``IR(w')``: a window stretched back to ``dummy_tlb``.

    Contains every item updated after ``dummy_tlb`` plus the dummy record
    ``(dummy_id, dummy_tlb)``.  A client whose ``Tlb >= dummy_tlb`` is
    covered even though its gap exceeds the default window.
    """

    kind = ReportKind.ENLARGED_WINDOW

    def __init__(
        self,
        timestamp: float,
        dummy_tlb: float,
        items: Dict[int, float],
        n_items: int,
        timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
    ) -> None:
        super().__init__(
            timestamp=timestamp,
            window_start=dummy_tlb,
            items=items,
            n_items=n_items,
            timestamp_bits=timestamp_bits,
        )
        self.dummy_tlb = float(dummy_tlb)
        # One extra (dummy_id, Tlb) record relative to the plain report.
        self.size_bits = enlarged_window_report_bits(
            len(items), n_items, timestamp_bits
        )

    def __repr__(self) -> str:
        return (
            f"<EnlargedWindowReport T={self.timestamp} back_to={self.dummy_tlb} "
            f"n={len(self.items)}>"
        )


def build_window_report(
    db: UpdateLog,
    timestamp: float,
    window_seconds: float,
    timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
) -> WindowReport:
    """Construct ``IR(w)`` from the database recency index.

    *window_seconds* is ``w * L``.

    The window never reaches behind ``db.origin_time``: after a
    crash–recovery the server only witnessed updates since the restart,
    so claiming coverage further back would silently certify clients
    whose gap spans the truncated history.  (In a never-crashed cell the
    clamp is inert — every client ``Tlb`` is at least the origin.)
    """
    window_start = max(timestamp - window_seconds, db.origin_time)
    return WindowReport(
        timestamp=timestamp,
        window_start=window_start,
        items=dict(db.updated_since(window_start)),
        n_items=db.n_items,
        timestamp_bits=timestamp_bits,
    )


def build_enlarged_window_report(
    db: UpdateLog,
    timestamp: float,
    back_to: float,
    timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
) -> EnlargedWindowReport:
    """Construct ``IR(w')`` reaching back to *back_to* (a client's Tlb).

    Like :func:`build_window_report`, the claimed reach is clamped at
    ``db.origin_time`` — a post-crash server cannot vouch for history it
    never witnessed, so a pre-crash ``Tlb`` stays uncovered.
    """
    back_to = max(back_to, db.origin_time)
    items = {item: ts for item, ts in db.updated_since(back_to)}
    return EnlargedWindowReport(
        timestamp=timestamp,
        dummy_tlb=back_to,
        items=items,
        n_items=db.n_items,
        timestamp_bits=timestamp_bits,
    )


def enlarged_report_size(
    db: UpdateLog, back_to: float, timestamp_bits: int = DEFAULT_TIMESTAMP_BITS
) -> Tuple[int, float]:
    """Cheaply price an ``IR(w')`` without materializing it.

    Returns ``(n_items_in_report, size_bits)``; used by the AAW server to
    compare against ``IR(BS)`` before deciding what to broadcast.
    """
    count = len(db.updated_since(back_to))
    return count, enlarged_window_report_bits(count, db.n_items, timestamp_bits)
