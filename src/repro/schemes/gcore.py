"""GCORE-inspired grouped checking (simplified; extension ablation).

Wu, Yu & Chen's GCORE reduces the uplink cost of validity checking by
organizing cache contents into groups.  We implement the spirit of that
trade-off in a simplified form (documented in DESIGN.md): the
reconnecting client uploads every cached item id but only **one
timestamp per group** (the group minimum) instead of one per item:

    upload bits = n_cached * ceil(log2 N)  +  G * b_T

versus simple checking's ``n_cached * (ceil(log2 N) + b_T)``.  The server
is simple checking's, so it tests each item against its group's (older)
timestamp: items updated between the group minimum and their own fetch
time are dropped unnecessarily — uplink savings bought with
over-invalidation.
"""

from __future__ import annotations

from ..reports.sizes import id_bits
from .base import Scheme
from .checking import CheckingClientPolicy, CheckingServerPolicy

#: Number of timestamp groups the cache is hashed into.
DEFAULT_GROUPS = 8


def group_of(item: int, n_groups: int) -> int:
    """Deterministic group assignment shared by client and server."""
    return item % n_groups


def grouped_upload_bits(
    n_cached: int, n_items: int, n_groups: int, timestamp_bits: int
) -> float:
    """Wire size of the grouped checking upload."""
    return n_cached * id_bits(n_items) + n_groups * timestamp_bits


class GCOREClientPolicy(CheckingClientPolicy):
    """Checking client that collapses timestamps into per-group minima."""

    def __init__(self, params, client_id: int, n_groups: int = DEFAULT_GROUPS):
        super().__init__(params, client_id)
        self.n_groups = n_groups

    def upload_size_bits(self, n_cached: int) -> float:
        """Size of this client's grouped upload for *n_cached* entries."""
        return grouped_upload_bits(
            n_cached, self.params.db_size, self.n_groups, self.params.timestamp_bits
        )

    def upload_cache(self, ctx) -> bool:
        entries = ctx.cache.entries()
        if not entries:
            return False
        group_min = {}
        for entry in entries:
            g = group_of(entry.item, self.n_groups)
            ts = ctx.cache.effective_ts(entry)
            if g not in group_min or ts < group_min[g]:
                group_min[g] = ts
        payload = [
            (entry.item, group_min[group_of(entry.item, self.n_groups)])
            for entry in entries
        ]
        ctx.send_check_request(payload, size_bits=self.upload_size_bits(len(entries)))
        return True

    def on_validation_timeout(self, ctx, now: float) -> bool:
        # Give up and drop: re-uploading would change outputs under retries.
        return False


GCORE_SCHEME = Scheme(
    name="gcore",
    server_factory=CheckingServerPolicy,
    client_factory=GCOREClientPolicy,
    description="Grouped checking (GCORE-inspired, simplified)",
)
