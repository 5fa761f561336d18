"""Common surface of invalidation reports.

A report is an immutable value object the server broadcasts each period;
clients query it to decide what to invalidate.  The three possible
client-side outcomes are captured by :class:`Invalidation`:

* ``covered`` with a set of items to drop — the report reaches back to the
  client's ``Tlb``, so only the listed items are stale;
* not covered (``drop_all``) — the client cannot tell which entries are
  valid and must discard its whole cache (or, in the adaptive schemes,
  ask the server for more history first).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import AbstractSet, Any, FrozenSet, List, Optional, Protocol, Tuple


class UpdateLog(Protocol):
    """Structural view of the server database that report builders read.

    Satisfied by :class:`repro.db.Database`; declared here so the
    reports layer can type its inputs without importing upward in the
    layering DAG (see ARCH001 in ``docs/STATIC_ANALYSIS.md``).
    """

    n_items: int
    origin_time: float
    #: Per-item version counters (a numpy int array on the real database;
    #: ``Any`` keeps the protocol free of a numpy type dependency).
    version: Any

    def updated_since(self, cutoff: float) -> List[Tuple[int, float]]:
        """``(item, latest update time)`` pairs with time > *cutoff*."""
        ...

    def recency_order(self, limit: Optional[int] = None) -> List[Tuple[int, float]]:
        """Up to *limit* most-recently-updated items, most recent first."""
        ...


class ReportKind(enum.Enum):
    """Which report structure a broadcast carries."""

    WINDOW = "window"            # TS-style IR(w)
    ENLARGED_WINDOW = "window+"  # AAW's IR(w') with a dummy record
    BIT_SEQUENCES = "bs"         # Jing-style IR(BS)
    AMNESIC = "amnesic"          # AT: last interval's ids only
    SIGNATURES = "sig"           # Barbara/Imielinski combined signatures


@dataclass(frozen=True)
class Invalidation:
    """Outcome of applying a report to a client state.

    Attributes
    ----------
    covered:
        Whether the report's history reaches back to the client's ``Tlb``.
        When False the client cannot salvage anything from this report
        alone (``items`` is empty and must be ignored).
    items:
        Item ids the client must invalidate (only meaningful when
        ``covered``).  The set is conservative: a listed item *may* still
        hold its old value, but no stale item is ever omitted.
    """

    covered: bool
    items: FrozenSet[int] = field(default_factory=frozenset)

    @staticmethod
    def drop_all() -> "Invalidation":
        """The client must discard its entire cache."""
        return _DROP_ALL

    @staticmethod
    def nothing() -> "Invalidation":
        """The cache is entirely valid."""
        return _NOTHING

    @staticmethod
    def drop(items: AbstractSet[int]) -> "Invalidation":
        """Invalidate exactly *items*."""
        return Invalidation(covered=True, items=frozenset(items))


# Frozen, so the two argument-free outcomes are shared singletons (every
# connected client materializes one per broadcast tick).
_DROP_ALL = Invalidation(covered=False)
_NOTHING = Invalidation(covered=True)


class Report:
    """Base class for broadcast invalidation reports.

    Attributes
    ----------
    kind:
        The :class:`ReportKind`.
    timestamp:
        Broadcast time ``Ti``; the report describes updates up to and
        including this instant.
    size_bits:
        Wire size, from :mod:`repro.reports.sizes`.
    """

    kind: ReportKind
    timestamp: float
    size_bits: float
    #: Server incarnation that built this report.  Stamped by the server
    #: at broadcast time (instance attribute); a restart after a crash
    #: bumps it, telling clients the history behind earlier reports has
    #: been truncated and their ``Tlb``-certified knowledge is void.  The
    #: class default keeps pre-epoch pickles/tests valid.
    epoch: int = 0
    #: Cell that broadcast this report (stamped like ``epoch``).  Epochs
    #: are per-cell timelines, so a client that just handed off must
    #: adopt the pair ``(cell, epoch)`` together rather than mistake a
    #: neighbor's epoch counter for a restart of its old cell.
    cell: int = 0

    def covers(self, tlb: float) -> bool:
        """Whether a client that last heard a report at *tlb* can use this
        report alone to invalidate precisely."""
        raise NotImplementedError

    def invalidation_for(self, tlb: float) -> Invalidation:
        """What a client with last-heard time *tlb* must invalidate."""
        raise NotImplementedError
