"""AFW — Adaptive Invalidation Report with Fixed Window (paper §3.1).

Default broadcast is ``IR(w)``.  A client whose gap exceeds the window
uploads its ``Tlb`` (one timestamp — the scheme's whole uplink budget);
if any uploaded ``Tlb`` is salvageable (``TS(Bn) <= Tlb <= T - wL``) the
server broadcasts the full Bit-Sequences report next period, exactly once
per request batch.
"""

from __future__ import annotations

from typing import Optional

from ..reports.base import ReportKind
from ..reports.bitseq import bs_salvage_threshold, build_bitseq_report
from .base import (
    ClientPolicy,
    PendingTlbBuffer,
    Scheme,
    SessionOutcome,
    effective_window_seconds,
)
from .ts_nocheck import TSServerPolicy


class AFWServerPolicy(TSServerPolicy):
    """Figure 3's server: window by default, BS on salvageable demand."""

    def __init__(self, params, db):
        super().__init__(params, db)
        self.tlb_buffer = PendingTlbBuffer(params.max_pending_tlbs)
        self.bs_broadcasts = 0

    def on_tlb(self, ctx, client_id: int, tlb: float, now: float):
        self.tlb_buffer.add(client_id, tlb)

    def build_report(self, ctx, now: float):
        window_seconds = effective_window_seconds(ctx, self.params)
        pending = self.tlb_buffer.drain()
        if pending:
            # Tlbs inside the (possibly loss-widened) window ride the
            # regular report for free; only older ones need a rescue.
            # db.origin_time is the history floor (restart instant after
            # a crash): pre-crash Tlbs fall below the threshold and
            # correctly take the drop-all path.
            window_start = now - window_seconds
            threshold = bs_salvage_threshold(self.db, origin=self.db.origin_time)
            salvageable = [t for t in pending if threshold <= t <= window_start]
            if salvageable:
                return self.rescue_report(now, min(salvageable))
        return self.window_report(now, window_seconds)

    def rescue_report(self, now: float, back_to: float):
        """The report that reaches every salvageable ``Tlb`` (the oldest
        is *back_to*): here the full BS report."""
        self.bs_broadcasts += 1
        return build_bitseq_report(
            self.db,
            now,
            origin=self.db.origin_time,
            timestamp_bits=self.params.timestamp_bits,
        )


class AdaptiveClientPolicy(ClientPolicy):
    """Figures 3/4's client, shared by AFW and AAW: the TS/BS client
    (an enlarged window covers any ``Tlb`` that reaches its dummy
    record), plus one decision when no report covers ``Tlb``:

    * uncovered window, this ``Tlb`` not yet uploaded -> upload it, wait;
    * otherwise the server could not help (already asked, or ``Tlb`` is
      beyond even BS) -> drop all.
    """

    def __init__(self, params, client_id: int):
        super().__init__(params, client_id)
        #: The ``Tlb`` uploaded this episode (None: not asked yet).
        self._uploaded_tlb: Optional[float] = None

    def on_uncovered(self, ctx, report) -> SessionOutcome:
        tlb = ctx.tlb
        if tlb != self._uploaded_tlb and report.kind is not ReportKind.BIT_SEQUENCES:
            self._uploaded_tlb = tlb
            ctx.send_tlb(tlb)
            return SessionOutcome.PENDING
        return super().on_uncovered(ctx, report)

    def on_reconnect(self, ctx, now: float):
        self._uploaded_tlb = None

    def on_validation_timeout(self, ctx, now: float) -> bool:
        """The rescue upload (or the rescue report) was lost on the air:
        re-send ``Tlb`` so the server schedules another rescue."""
        ctx.send_tlb(ctx.tlb)
        return True


AFW_SCHEME = Scheme(
    name="afw",
    server_factory=AFWServerPolicy,
    client_factory=AdaptiveClientPolicy,
    description="Adaptive invalidation report with fixed window",
)
