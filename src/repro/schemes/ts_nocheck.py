"""TS (Broadcasting Timestamps) without checking — paper Figure 1.

The server broadcasts ``IR(w)`` every period.  A client disconnected
longer than the window drops its whole cache; otherwise it invalidates
the listed items newer than its entries and certifies the rest.  That
client is the base :class:`~repro.schemes.base.ClientPolicy`; this
server is the base of every window scheme (checking, GCORE, AFW, AAW).
"""

from __future__ import annotations

from ..reports.window import build_window_report
from .base import ClientPolicy, Scheme, ServerPolicy, effective_window_seconds


class TSServerPolicy(ServerPolicy):
    """Broadcasts the fixed-window report every period (widened under
    loss adaptation)."""

    def build_report(self, ctx, now: float):
        return self.window_report(now, effective_window_seconds(ctx, self.params))

    def window_report(self, now: float, window_seconds: float):
        """``IR(w)`` reaching *window_seconds* back from *now*."""
        return build_window_report(
            self.db, now, window_seconds, self.params.timestamp_bits
        )


TS_SCHEME = Scheme(
    name="ts",
    server_factory=TSServerPolicy,
    client_factory=ClientPolicy,
    description="Broadcasting timestamps, fixed window, no checking",
)
