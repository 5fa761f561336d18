"""AT (Amnesic Terminals): ids of the last interval's updates only.

A gap of even one missed report forces a full drop, which is why the
paper's evaluation excludes AT for long-disconnection regimes; kept here
as an ablation baseline.  The client is the base
:class:`~repro.schemes.base.ClientPolicy`.
"""

from __future__ import annotations

from ..reports.amnesic import build_amnesic_report
from .base import ClientPolicy, Scheme, ServerPolicy


class ATServerPolicy(ServerPolicy):
    """Broadcasts the latest interval's updated ids every period."""

    def build_report(self, ctx, now: float):
        return build_amnesic_report(
            self.db, now, self.params.broadcast_interval, self.params.timestamp_bits
        )


AT_SCHEME = Scheme(
    name="at",
    server_factory=ATServerPolicy,
    client_factory=ClientPolicy,
    description="Amnesic terminals: one-interval update ids",
)
