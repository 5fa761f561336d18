"""TS with checking ("simple checking", Wu et al.) — the uplink-hungry
baseline of the paper's evaluation.

The server broadcasts plain ``IR(w)``.  A client reconnecting beyond the
window uploads the ids and timestamps of its *entire* cache; the server
answers with a validity report (one bit per checked item), letting the
client keep still-valid entries.  The upload costs
``n_cached * (ceil(log2 N) + b_T)`` uplink bits — this is what Figures 6,
8, 10, 12, 14 charge against the scheme, and what sinks its throughput
when the uplink is narrow (Figures 15-16).
"""

from __future__ import annotations

from typing import List, Tuple

from ..reports.sizes import validity_report_bits
from .base import ClientPolicy, Scheme, SessionOutcome
from .ts_nocheck import TSServerPolicy


class CheckingServerPolicy(TSServerPolicy):
    """Plain window broadcasts plus a validity-answer service (GCORE's
    server too: its entries already carry group minima)."""

    def __init__(self, params, db):
        super().__init__(params, db)
        self.checks_served = 0

    def on_check_request(
        self, ctx, client_id: int, entries: List[Tuple[int, float]], now: float
    ) -> Tuple[List[int], float, float]:
        # An entry certified before db.origin_time (the restart instant
        # after a crash) predates everything this incarnation witnessed:
        # last_update was wiped, so the plain comparison would wrongly
        # vouch for it.  Conservatively invalidate such entries.
        floor = self.db.origin_time
        invalid = [
            item
            for item, ts in entries
            if ts < floor or self.db.last_update[item] > ts
        ]
        self.checks_served += 1
        return invalid, now, validity_report_bits(len(entries))


class CheckingClientPolicy(ClientPolicy):
    """Uploads the whole cache when no report covers ``Tlb``.

    The session holds further reports until the validity reply lands
    (or the episode ends: reconnection, give-up, epoch change).
    """

    def upload_cache(self, ctx) -> bool:
        """Upload every cached ``(item, effective ts)``; False (nothing
        sent) when the cache is empty."""
        entries = [
            (entry.item, ctx.cache.effective_ts(entry))
            for entry in ctx.cache.entries()
        ]
        if not entries:
            return False
        ctx.send_check_request(entries)
        return True

    def on_uncovered(self, ctx, report) -> SessionOutcome:
        if self.upload_cache(ctx):
            return SessionOutcome.PENDING
        # Nothing to salvage; resynchronize without uplink traffic.
        ctx.cache.certify(report.timestamp)
        ctx.tlb = report.timestamp
        return SessionOutcome.READY

    def on_validity_reply(self, ctx, invalid_items, certified_at: float):
        for item in invalid_items:
            ctx.cache.invalidate(item)
        ctx.cache.certify(certified_at)
        # Certified as of the server's evaluation instant; the next window
        # report covers everything after it.
        ctx.tlb = certified_at

    def on_validation_timeout(self, ctx, now: float) -> bool:
        """The checking upload (or its validity reply) was lost on the
        air: re-upload the current cache contents."""
        return self.upload_cache(ctx)


CHECKING_SCHEME = Scheme(
    name="checking",
    server_factory=CheckingServerPolicy,
    client_factory=CheckingClientPolicy,
    description="TS window + full-cache validity checking on reconnect",
)
