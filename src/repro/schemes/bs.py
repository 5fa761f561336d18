"""BS: pure Bit-Sequences broadcasting (Jing et al.), paper Section 2.3.

Every report carries the full hierarchy, so any client — however long
disconnected — salvages its cache without uplink traffic, at the price
of a ~2N-bit report each period (the downlink cost Figure 5 punishes).
The client is Figure 2's, the base
:class:`~repro.schemes.base.ClientPolicy`.
"""

from __future__ import annotations

from ..reports.bitseq import build_bitseq_report
from .base import ClientPolicy, Scheme, ServerPolicy


class BSServerPolicy(ServerPolicy):
    """Broadcasts the bit-sequences hierarchy every period."""

    def build_report(self, ctx, now: float):
        # origin is the server's history floor: 0.0 in a never-crashed
        # cell, the restart instant after a crash–recovery — clients with
        # an older Tlb must not be salvaged from truncated history.
        return build_bitseq_report(
            self.db,
            now,
            origin=self.db.origin_time,
            timestamp_bits=self.params.timestamp_bits,
        )


BS_SCHEME = Scheme(
    name="bs",
    server_factory=BSServerPolicy,
    client_factory=ClientPolicy,
    description="Bit-sequences hierarchy every period (no uplink)",
)
