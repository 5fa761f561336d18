"""SIG: periodic combined-signature broadcasts (Barbara & Imielinski).

Clients save the last combined signatures they heard and diagnose their
cache by differencing — no uplink at all, any disconnection length, but
with probabilistic false positives (collateral drops).  An ablation
baseline; the defaults give each item ~6 of 128 subsets, which keeps
the per-update collateral damage modest.
"""

from __future__ import annotations

from ..reports.signatures import (
    IncrementalCombiner,
    SignatureReport,
    SignatureScheme,
)
from .base import (
    ClientOutcome,
    ClientPolicy,
    Scheme,
    ServerPolicy,
    apply_invalidation,
    drop_unreconciled,
)

#: Default signature deployment parameters for simulations.
DEFAULT_N_SUBSETS = 128
DEFAULT_SIGNATURE_BITS = 32
DEFAULT_MEMBERSHIP = 0.05
DEFAULT_THRESHOLD = 0.5


class SIGServerPolicy(ServerPolicy):
    """Maintains combined signatures incrementally; broadcasts them."""

    def __init__(
        self,
        params,
        db,
        n_subsets: int = DEFAULT_N_SUBSETS,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        membership: float = DEFAULT_MEMBERSHIP,
        threshold: float = DEFAULT_THRESHOLD,
    ):
        self.params = params
        self.db = db
        self.scheme = SignatureScheme(
            db.n_items,
            n_subsets=n_subsets,
            signature_bits=signature_bits,
            membership=membership,
            diagnose_threshold=threshold,
            seed=params.seed,
        )
        # Seed the combiner from the durable version counters: identical
        # to the all-zero default at t=0, and the only correct baseline
        # when a post-crash restart builds a fresh policy mid-run (the
        # combined signatures are a pure function of current versions).
        self.combiner = IncrementalCombiner(self.scheme, versions=db.version)

    def on_item_update(self, item: int, old_version: int, new_version: int):
        self.combiner.on_update(item, old_version, new_version)

    def build_report(self, ctx, now: float):
        return SignatureReport(
            now, self.scheme, self.combiner.snapshot(), self.params.timestamp_bits
        )


class SIGClientPolicy(ClientPolicy):
    """Differences fresh combined signatures against the saved ones."""

    def __init__(self, params, client_id: int):
        self.params = params
        self.client_id = client_id
        self._saved = None
        self._saved_at = 0.0

    def on_report(self, ctx, report) -> ClientOutcome:
        if self._saved is None or ctx.tlb < self._saved_at:
            # No baseline to difference against: the first report ever
            # (the cache is empty at simulation start, so nothing is at
            # risk), or a reboot lost the cache the saved signatures
            # certified (Tlb fell behind them).
            ctx.cache.drop_all()
            ctx.cache.certify(report.timestamp)
        else:
            # Suspect entries predate the saved signatures' baseline and
            # cannot be diagnosed by differencing: drop them.
            drop_unreconciled(ctx.cache)
            inv = report.diagnose(ctx.cache.item_ids(), self._saved)
            apply_invalidation(ctx.cache, inv, report.timestamp)
        self._saved = report.combined
        self._saved_at = ctx.tlb = report.timestamp
        return ClientOutcome.READY


SIG_SCHEME = Scheme(
    name="sig",
    server_factory=SIGServerPolicy,
    client_factory=SIGClientPolicy,
    description="Combined-signature differencing (probabilistic)",
)
