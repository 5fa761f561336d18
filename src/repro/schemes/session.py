"""Transport-free client certification core.

:class:`ClientSession` is the protocol half of every scheme's client:
report dedup, the ``(cell, epoch)`` incarnation state machine,
missed-report detection, ``Tlb`` bookkeeping, validity replies,
validation timeouts, the connectivity resets, and dispatch into the
scheme's :class:`~repro.schemes.base.ClientPolicy`.  No event loop, no
channels, no energy model — callers feed it reports and replies and act
on the outcome.  The simulated client (:mod:`repro.sim.client`) and the
service node (:mod:`repro.service`) both run it, so the service certifies
with *the same object code* the simulation campaigns validated.

The session is its own policy context: it exposes ``cache``, ``tlb``,
``send_tlb``, ``send_check_request`` and ``note_cache_drop`` exactly as
the scheme contract in :mod:`repro.schemes.base` requires, forwarding
the uploads to injected callbacks (the simulator's uplink, the service's
L2 backend, a test's lists).  It counts into the caller's
:class:`~repro.des.monitor.MetricSet` (the cell's in the simulator, a
private one by default) under the names below.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from ..cache import CacheEntry, ClientCache
from ..des.monitor import MetricSet
from ..reports.base import Report
from .base import ClientOutcome, ClientPolicy

__all__ = ["ClientSession", "SessionOutcome"]

# Counter names, shared with the simulator's result keys (repro.sim.metrics).
IR_DUPLICATES = "client.ir_duplicates"        # repeated-report copies discarded
IR_GAPS = "client.ir_gaps"                    # reports provably missed
TLB_UPLOADS = "adaptive.tlb_uploads"
CHECKS_SENT = "checking.requests"
# Created on first use, so chaos-free and single-cell runs never list them.
EPOCH_PURGES = "chaos.epoch_purges"           # clients reacting to a new epoch
ROAM_LAGGED_REPORTS = "roam.lagged_reports"   # reports older than the roamer's Tlb

#: ``send_check_request`` receives ``(item, effective_ts)`` pairs (the
#: checking/gcore upload wire format; gcore pre-collapses group minima)
#: and the scheme's upload size in bits (None: the caller prices it).
CheckSender = Callable[[Sequence[Tuple[int, float]], Optional[float]], None]
TlbSender = Callable[[float], None]


class SessionOutcome(enum.Enum):
    """What one offered report did to the session."""

    READY = "ready"          # applied; cache certified as of the report
    PENDING = "pending"      # salvage in flight (Tlb/check uploaded)
    DUPLICATE = "duplicate"  # repetition-coded copy already applied
    LAGGED = "lagged"        # report older than Tlb (stale publisher)


_READY = ClientOutcome.READY
_SESSION_READY = SessionOutcome.READY
_SESSION_PENDING = SessionOutcome.PENDING


def _noop() -> None:
    return None


class ClientSession:
    """One client's protocol state, decoupled from any transport."""

    __slots__ = (
        "policy",
        "cache",
        "params",
        "metrics",
        "tlb",
        "pending",
        "episode",
        "_send_tlb",
        "_send_check",
        "_note_drop",
        "_on_gap",
        "_interval",
        "_last_applied",
        "_last_heard",
        "_cell",
        "_epoch",
        "_m_duplicates",
        "_m_gaps",
        "_m_tlb_uploads",
        "_m_checks",
    )

    def __init__(
        self,
        policy: ClientPolicy,
        cache: ClientCache,
        params: Any,
        *,
        metrics: Optional[MetricSet] = None,
        send_tlb: Optional[TlbSender] = None,
        send_check_request: Optional[CheckSender] = None,
        note_cache_drop: Optional[Callable[[], None]] = None,
        on_gap: Optional[Callable[[int], None]] = None,
        start_tlb: float = 0.0,
        cell: Optional[int] = None,
        epoch: int = 0,
    ) -> None:
        self.policy = policy
        self.cache = cache
        #: Duck-typed protocol parameters (``broadcast_interval`` is the
        #: only field the session itself reads; the policy reads more).
        self.params = params
        self.metrics = metrics if metrics is not None else MetricSet()
        #: Last-heard report timestamp — the paper's ``Tlb``.  Settable
        #: by the policy (the context contract).
        self.tlb = start_tlb
        #: A scheme salvage (Tlb upload / checking reply) is outstanding.
        self.pending = False
        #: Bumped each time ``pending`` turns on, so a validation timer
        #: can tell a fresh episode from the one it was timing.
        self.episode = 0
        self._send_tlb: TlbSender = send_tlb or (lambda _tlb: None)
        self._send_check: CheckSender = send_check_request or (
            lambda _entries, _size_bits: None
        )
        self._note_drop: Callable[[], None] = note_cache_drop or _noop
        #: Told how many reports each gap proves lost (the sim's NACK).
        self._on_gap = on_gap
        self._interval = float(params.broadcast_interval)
        #: Last report applied, for repetition-coding dedup: re-running
        #: an uncovered copy would escalate the adaptive schemes'
        #: ask-once salvage to a full cache drop.
        self._last_applied: Optional[float] = None
        #: Last report decoded while listening (None after a
        #: reconnection, when a gap is expected rather than loss).
        self._last_heard: Optional[float] = 0.0
        #: ``(cell, epoch)`` the cache is certified against; a None cell
        #: adopts the next report's pair.
        self._cell = cell
        self._epoch = epoch
        bind = self.metrics.bind_counter
        self._m_duplicates = bind(IR_DUPLICATES)
        self._m_gaps = bind(IR_GAPS)
        self._m_tlb_uploads = bind(TLB_UPLOADS)
        self._m_checks = bind(CHECKS_SENT)

    # -- the ClientPolicy context surface ---------------------------------

    def send_tlb(self, tlb: float) -> None:
        self._m_tlb_uploads.add()
        self._send_tlb(tlb)

    def send_check_request(
        self,
        entries: Sequence[Tuple[int, float]],
        size_bits: Optional[float] = None,
    ) -> None:
        self._m_checks.add()
        self._send_check(entries, size_bits)

    def note_cache_drop(self) -> None:
        self._note_drop()

    # -- report intake -----------------------------------------------------

    def offer_report(self, report: Report, now: float) -> SessionOutcome:
        """Feed one received report through dedup/epoch/gap/policy.

        Duplicate copies are discarded; a new ``(cell, epoch)`` pair
        after handoff is adopted without purging; an epoch bump or
        timeline regression voids certified knowledge via the scheme's
        ``on_epoch_change`` (default: full drop) and resynchronises
        ``Tlb``; a lagging report (older than ``Tlb``) is skipped; a gap
        of more than one broadcast interval is reported to the policy
        (and the ``on_gap`` listener) before dispatch.
        """
        report_ts = report.timestamp
        last_applied = self._last_applied
        if report_ts == last_applied:
            self._m_duplicates.add()
            return SessionOutcome.DUPLICATE
        epoch = report.epoch
        if self._cell is None:
            # First report ever (or after a handoff): adopt the cell's
            # (cell, epoch) identity without purging — timestamps are
            # global, so prior certification stays honest.
            self._cell = report.cell
            self._epoch = epoch
        elif (
            epoch != self._epoch
            or report.cell != self._cell
            or (last_applied is not None and report_ts < last_applied)
        ):
            # Server restart (or timeline regression — same symptom):
            # certified history is void.  Scheme purges, Tlb resyncs,
            # and the floor falls with it: a floor above Tlb would let a
            # fetch stamped in between land unsuspected and certified.
            self.metrics.counter(EPOCH_PURGES).add()
            self.policy.on_epoch_change(self, self._epoch, epoch, now)
            self._cell = report.cell
            self._epoch = epoch
            self.pending = False
            self._last_heard = None
            self.tlb = report_ts
            self.cache.certified_floor = min(self.cache.certified_floor, report_ts)
        if report_ts < self.tlb:
            # Applying it would regress knowledge (and wrongly purge).
            self.metrics.counter(ROAM_LAGGED_REPORTS).add()
            return SessionOutcome.LAGGED
        self._last_applied = report_ts
        last = self._last_heard
        self._last_heard = report_ts
        if last is not None:
            # Reports arrive at every ``i * L``: more than one interval
            # since the last one decoded while listening means the
            # wireless hop ate reports.
            n_missed = round((report_ts - last) / self._interval) - 1
            if n_missed > 0:
                self._m_gaps.add(n_missed)
                if self._on_gap is not None:
                    self._on_gap(n_missed)
                self.policy.on_missed_reports(self, n_missed, now)
        if self.policy.on_report(self, report) is _READY:
            self.pending = False
            return _SESSION_READY
        if not self.pending:
            self.pending = True
            self.episode += 1
        return _SESSION_PENDING

    # -- salvage replies ---------------------------------------------------

    def validity_reply(
        self, invalid_items: Iterable[int], certified_at: float
    ) -> bool:
        """Apply the server's answer to a checking upload.

        Returns False, applying nothing, when no salvage is pending: a
        reply from a previous episode would certify state it never
        validated (in particular it would clear suspect marks).
        """
        if not self.pending:
            return False
        self.policy.on_validity_reply(self, invalid_items, certified_at)
        self.pending = False
        return True

    def validation_timeout(self, now: float) -> bool:
        """The expected reply never came.  True when the policy re-issued
        the upload (stay pending); False after :meth:`give_up`."""
        if not self.pending:
            return True
        if self.policy.on_validation_timeout(self, now):
            return True
        self.give_up(now)
        return False

    def give_up(self, now: float) -> None:
        """Abandon the salvage: drop the cache (an empty cache is
        trivially consistent), resynchronise at the next report, and let
        the policy's reconnect hook reset its in-flight exchange."""
        self.cache.drop_all()
        self.note_cache_drop()
        self.pending = False
        self.policy.on_reconnect(self, now)

    # -- connectivity episodes --------------------------------------------

    def disconnect(self, now: float) -> None:
        """The report feed stopped (doze / outage): freeze ``Tlb``."""
        self.policy.on_disconnect(self, now)

    def reconnect(self, now: float) -> None:
        """The feed is back.  Reports missed while away are *expected*,
        not wireless loss, and a reply to a pre-doze upload is lost:
        suppress the next gap, end the pending episode, and reset the
        policy's per-episode latches."""
        self.pending = False
        self._last_heard = None
        self.policy.on_reconnect(self, now)

    def promote(self, now: float) -> None:
        """A reconnection whose doze was spent in the population pool."""
        self.pending = False
        self._last_heard = None
        self.policy.on_promote(self, now)

    def hand_off(self) -> None:
        """Moved to another cell: adopt its ``(cell, epoch)`` at the next
        report and expect a gap; cache and ``Tlb`` travel unchanged."""
        self._cell = None
        self._last_applied = None
        self._last_heard = None

    def reboot(self, cache: ClientCache, now: float) -> None:
        """Volatile state lost: a fresh *cache*, ``Tlb`` 0, no report
        history, no salvage in flight; the ``(cell, epoch)`` is kept."""
        self.cache = cache
        self.tlb = 0.0
        self._last_applied = None
        self._last_heard = None
        self.pending = False
        self.policy.on_reconnect(self, now)

    # -- introspection -----------------------------------------------------

    @property
    def report_identity(self) -> Tuple[Optional[int], int]:
        """The ``(cell, epoch)`` pair the session is certified against."""
        return (self._cell, self._epoch)

    @property
    def last_report_applied(self) -> Optional[float]:
        return self._last_applied

    def insert_fetched(self, entry: CacheEntry) -> bool:
        """Insert a fetched entry, marking it suspect when its coherence
        predates ``Tlb`` (fetch crossed a report boundary — the scheme
        must reconcile it at the next report).  Returns the suspect flag.
        """
        suspect = entry.ts < self.tlb
        self.cache.insert(entry, suspect=suspect)
        return suspect

    def snapshot(self) -> dict[str, float]:
        """Deterministic counters for campaign serialisation (a simulated
        cell's clients share one :class:`MetricSet`)."""
        counters = self.metrics.counters

        def count(name: str) -> float:
            counter = counters.get(name)
            return counter.value if counter is not None else 0.0

        return {
            "tlb": self.tlb,
            "epoch_purges": count(EPOCH_PURGES),
            "lagged_reports": count(ROAM_LAGGED_REPORTS),
            "missed_reports": count(IR_GAPS),
            "duplicate_reports": count(IR_DUPLICATES),
            "tlb_uploads": count(TLB_UPLOADS),
            "check_uploads": count(CHECKS_SENT),
            "cache_len": float(len(self.cache)),
            "full_drops": float(self.cache.full_drops),
            "invalidations": float(self.cache.invalidations),
        }
