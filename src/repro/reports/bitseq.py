"""The hierarchical Bit-Sequences invalidation report (Jing et al.).

Structure (paper Section 2.3): ``IR(BS)`` is a set of bit sequences
``Bn .. B1`` plus a dummy ``B0``.  ``Bn`` has one bit per database item
with up to ``N/2`` bits set — the items updated after ``TS(Bn)``.  Each
next sequence ``B(k-1)`` has one bit per **set** bit of ``Bk``, with half
of those set — the items updated after the (newer) ``TS(B(k-1))``.
``TS(B0)`` is the time after which nothing has been updated.

Key structural fact exploited here: because each level's 1-bits are "the
items updated after TS(level)", the 1-bit sets are exactly *nested
prefixes of the update-recency order*.  The report therefore stores one
recency prefix plus per-level counts/timestamps; the literal bit arrays
are available via :meth:`BitSequenceReport.materialize` (and
:func:`decode_levels`), and property tests assert the two views agree.

Client algorithm (paper Figure 2), implemented by
:meth:`BitSequenceReport.invalidation_for`:

* ``Tlb >= TS(B0)``  — nothing to invalidate;
* ``Tlb <  TS(Bn)``  — the whole cache is dropped;
* otherwise          — locate ``Bj`` with ``TS(Bj) <= Tlb < TS(B(j-1))``
  and invalidate the items represented by the 1-bits of ``Bj``.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .base import Invalidation, Report, ReportKind, UpdateLog
from .sizes import DEFAULT_TIMESTAMP_BITS, bitseq_report_bits


def level_counts_for(n_items: int) -> List[int]:
    """1-bit capacities of levels ``B1 .. Bn``, smallest level first.

    ``Bn`` can mark ``N // 2`` items; each shallower level halves that.
    For ``N < 2`` there are no levels (only the dummy ``B0``).
    """
    counts: List[int] = []
    m = n_items // 2
    while m >= 1:
        counts.append(m)
        m //= 2
    counts.reverse()
    return counts


class BitSequenceReport(Report):
    """An ``IR(BS)`` built from the database's update-recency order.

    Parameters
    ----------
    timestamp:
        Broadcast time ``Ti``.
    n_items:
        Database size ``N``.
    recent_items / recent_times:
        The most-recently-updated distinct items (ids and their update
        times), most recent first, at least ``min(d, N//2) + 1`` entries
        where available (``d`` = distinct updated items) so every level
        timestamp is computable.
    origin:
        Time meaning "before the database existed"; used as the timestamp
        of levels whose capacity exceeds the number of updated items.
    """

    kind = ReportKind.BIT_SEQUENCES

    def __init__(
        self,
        timestamp: float,
        n_items: int,
        recent_items: Sequence[int],
        recent_times: Sequence[float],
        origin: float = float("-inf"),
        timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
    ) -> None:
        if len(recent_items) != len(recent_times):
            raise ValueError("recent_items and recent_times lengths differ")
        for earlier, later in zip(recent_times[1:], recent_times[:-1]):
            if later < earlier:
                raise ValueError("recent_times must be non-increasing")
        self.timestamp = float(timestamp)
        self.n_items = int(n_items)
        self.origin = float(origin)
        self.level_counts = level_counts_for(n_items)  # ascending capacity
        max_needed = self.level_counts[-1] if self.level_counts else 0
        self._items: Tuple[int, ...] = tuple(recent_items[: max_needed + 1])
        self._times: Tuple[float, ...] = tuple(recent_times[: max_needed + 1])
        d = len(self._items)
        # TS(Bk): the time after which exactly the level's 1-bit items have
        # been updated = update time of the (m_k + 1)-th most recent item,
        # or the origin when fewer than m_k items were ever updated.
        self.level_times = [
            self._times[m] if d > m else self.origin for m in self.level_counts
        ]
        # TS(B0): the time after which nothing has been updated.
        self.ts_b0 = self._times[0] if d > 0 else self.origin
        self.size_bits = bitseq_report_bits(n_items, timestamp_bits)
        # Memos shared by every listener of the report: one covered
        # Invalidation per level, and the last Tlb's outcome (one tick's
        # listeners mostly heard the same previous report).
        self._level_invs: Dict[int, Invalidation] = {}
        self._tlb_slot: Optional[Tuple[float, Invalidation]] = None

    def __repr__(self) -> str:
        return (
            f"<BitSequenceReport T={self.timestamp} N={self.n_items} "
            f"levels={len(self.level_counts)}>"
        )

    # -- client-side queries --------------------------------------------------

    @property
    def ts_bn(self) -> float:
        """Timestamp of the deepest sequence; older ``Tlb`` cannot be saved."""
        return self.level_times[-1] if self.level_times else self.ts_b0

    def salvageable(self, tlb: float) -> bool:
        """Whether a client with last-heard time *tlb* avoids a full drop."""
        return tlb >= self.ts_bn

    def covers(self, tlb: float) -> bool:
        return self.salvageable(tlb)

    def level_for(self, tlb: float) -> int:
        """Index (into ``level_counts``) of the sequence a client uses.

        The smallest level whose timestamp is <= *tlb*; requires
        ``salvageable(tlb)``.
        """
        for idx, ts in enumerate(self.level_times):
            if ts <= tlb:
                return idx
        raise ValueError(f"tlb {tlb} is older than TS(Bn)={self.ts_bn}")

    def ones_of_level(self, idx: int) -> Tuple[int, ...]:
        """Item ids represented by the 1-bits of level *idx*."""
        m = self.level_counts[idx]
        return self._items[: min(m, len(self._items))]

    def ones_set(self, idx: int) -> FrozenSet[int]:
        """Frozenset view of a level's 1-bits, memoized.

        One report is applied by every connected client, so sharing the
        set across them matters when deep levels (up to N/2 items) are in
        play.
        """
        return self._level_invalidation(idx).items

    def _level_invalidation(self, idx: int) -> Invalidation:
        """The covered invalidation of level *idx*'s 1-bits, memoized."""
        try:
            return self._level_invs[idx]
        except KeyError:
            ones = frozenset(self.ones_of_level(idx))
            inv = self._level_invs[idx] = Invalidation(covered=True, items=ones)
            return inv

    def invalidation_for(self, tlb: float) -> Invalidation:
        slot = self._tlb_slot
        if slot is not None and slot[0] == tlb:
            return slot[1]
        if tlb >= self.ts_b0:
            inv = Invalidation.nothing()
        elif not self.salvageable(tlb):
            inv = Invalidation.drop_all()
        else:
            inv = self._level_invalidation(self.level_for(tlb))
        self._tlb_slot = (tlb, inv)
        return inv

    # -- literal bit-level view ------------------------------------------------

    def materialize(self) -> List["np.ndarray[Any, Any]"]:
        """Build the actual bit arrays ``[Bn, B(n-1), .., B1]``.

        ``Bn`` (first element) has one bool per database item; each later
        array has one bool per set bit of its predecessor.  Used by tests,
        the wire-format example and size verification — the simulator
        itself only needs the prefix view.
        """
        if not self.level_counts:
            return []
        arrays: List["np.ndarray[Any, Any]"] = []
        counts_desc = list(reversed(self.level_counts))  # Bn first
        d = len(self._items)
        # Bn over the full item space.
        top_members = np.zeros(self.n_items, dtype=bool)
        top_items = np.fromiter(
            self._items[: min(counts_desc[0], d)], dtype=np.int64, count=-1
        )
        if top_items.size:
            top_members[top_items] = True
        arrays.append(top_members)
        prev_ones = np.flatnonzero(top_members)  # item ids, ascending
        for m in counts_desc[1:]:
            member_items = set(self._items[: min(m, d)])
            level = np.fromiter(
                (int(item) in member_items for item in prev_ones),
                dtype=bool,
                count=prev_ones.size,
            )
            arrays.append(level)
            prev_ones = prev_ones[level]
        return arrays


def decode_levels(
    arrays: List["np.ndarray[Any, Any]"], n_items: int
) -> List[Tuple[int, ...]]:
    """Recover each level's 1-bit item ids from literal bit arrays.

    Input is ``materialize()`` output (``Bn`` first).  Returns, per level,
    the item ids in ascending id order.  This is the decode a real client
    would run; tests assert it matches :meth:`ones_of_level`.
    """
    if not arrays:
        return []
    out: List[Tuple[int, ...]] = []
    if arrays[0].size != n_items:
        raise ValueError("top level must span the whole database")
    prev_ones = np.flatnonzero(arrays[0])
    out.append(tuple(int(i) for i in prev_ones))
    for level in arrays[1:]:
        if level.size != prev_ones.size:
            raise ValueError("level width must equal predecessor's 1-bit count")
        prev_ones = prev_ones[level]
        out.append(tuple(int(i) for i in prev_ones))
    return out


def bs_salvage_threshold(db: UpdateLog, origin: float = float("-inf")) -> float:
    """``TS(Bn)`` of the report the database would produce right now.

    The oldest client last-heard time a Bit-Sequences report can still
    salvage; the adaptive servers compare uploaded ``Tlb`` values against
    this without building a report.
    """
    counts = level_counts_for(db.n_items)
    if not counts:
        return origin
    m_n = counts[-1]
    recent = db.recency_order(limit=m_n + 1)
    if len(recent) > m_n:
        return recent[m_n][1]
    return origin


def build_bitseq_report(
    db: UpdateLog,
    timestamp: float,
    origin: float = float("-inf"),
    timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
) -> BitSequenceReport:
    """Construct ``IR(BS)`` from a :class:`~repro.db.Database`."""
    counts = level_counts_for(db.n_items)
    limit = (counts[-1] + 1) if counts else 1
    recent = db.recency_order(limit=limit)
    return BitSequenceReport(
        timestamp=timestamp,
        n_items=db.n_items,
        recent_items=[item for item, _ts in recent],
        recent_times=[ts for _item, ts in recent],
        origin=origin,
        timestamp_bits=timestamp_bits,
    )
