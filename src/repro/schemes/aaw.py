"""AAW — Adaptive Invalidation Report with Adjusting Window (paper §3.2).

Like AFW, but when salvageable ``Tlb`` uploads arrive the server *prices*
an enlarged window report ``IR(w')`` (all updates since the oldest
salvageable ``Tlb``, plus a dummy ``(dummy_id, Tlb)`` marker) against the
Bit-Sequences report and broadcasts the smaller.  For gaps barely beyond
the window the enlarged report is tiny — this is why AAW beats AFW on
both throughput and downlink in Figures 5-14.
"""

from __future__ import annotations

from ..reports.sizes import bitseq_report_bits
from ..reports.window import build_enlarged_window_report, enlarged_report_size
from .afw import AdaptiveClientPolicy, AFWServerPolicy
from .base import Scheme


class AAWServerPolicy(AFWServerPolicy):
    """Figure 4's server: window / enlarged window / BS, whichever is
    smallest while still covering every salvageable requester."""

    def __init__(self, params, db):
        super().__init__(params, db)
        self.enlarged_broadcasts = 0

    def rescue_report(self, now: float, back_to: float):
        timestamp_bits = self.params.timestamp_bits
        _count, enlarged_bits = enlarged_report_size(self.db, back_to, timestamp_bits)
        if enlarged_bits <= bitseq_report_bits(self.db.n_items, timestamp_bits):
            self.enlarged_broadcasts += 1
            return build_enlarged_window_report(self.db, now, back_to, timestamp_bits)
        return super().rescue_report(now, back_to)


AAW_SCHEME = Scheme(
    name="aaw",
    server_factory=AAWServerPolicy,
    client_factory=AdaptiveClientPolicy,
    description="Adaptive invalidation report with adjusting window",
)
