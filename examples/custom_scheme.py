#!/usr/bin/env python3
"""Extending the library with a custom invalidation scheme.

Implements "periodic-BS": a server that broadcasts the Bit-Sequences
report every k-th interval unconditionally and plain windows otherwise —
no uplink at all, like BS, but with a fraction of its downlink cost.
(The client is the stock one, which applies any report that covers its
``Tlb``; it overrides only ``on_uncovered``: instead of dropping its
cache when a window does not cover it, it waits for the next BS, which
comes within k periods.)

This is the paper's design space: AFW broadcasts BS *on demand*;
periodic-BS broadcasts it *on a clock*.  The example registers the new
scheme, runs it against AFW and BS, and shows the trade.

Usage::

    python examples/custom_scheme.py
"""

from repro import SystemParams, run_schemes
from repro.reports import ReportKind
from repro.reports.bitseq import build_bitseq_report
from repro.reports.window import build_window_report
from repro.schemes import (
    ClientPolicy,
    Scheme,
    ServerPolicy,
    SessionOutcome,
    register_scheme,
)


class PeriodicBSServer(ServerPolicy):
    """Window reports, except every k-th broadcast is a full BS report."""

    def __init__(self, params, db, every: int = 10):
        super().__init__(params, db)
        self.every = every
        self._tick = 0

    def build_report(self, ctx, now):
        self._tick += 1
        if self._tick % self.every == 0:
            return build_bitseq_report(
                self.db, now, origin=0.0,
                timestamp_bits=self.params.timestamp_bits,
            )
        return build_window_report(
            self.db, now, self.params.window_seconds,
            self.params.timestamp_bits,
        )


class PeriodicBSClient(ClientPolicy):
    """Use whatever covers; otherwise wait for the scheduled BS."""

    def on_uncovered(self, ctx, report):
        if report.kind is ReportKind.BIT_SEQUENCES:
            # Not even BS reaches back to Tlb: drop the cache and resync.
            return super().on_uncovered(ctx, report)
        # Stay pending until the scheduled BS arrives.
        return SessionOutcome.PENDING


PERIODIC_BS = Scheme(
    name="periodic-bs",
    server_factory=PeriodicBSServer,
    client_factory=PeriodicBSClient,
    description="BS broadcast on a fixed clock instead of on demand",
)


def main():
    register_scheme(PERIODIC_BS, overwrite=True)
    params = SystemParams(
        simulation_time=8_000.0,
        n_clients=50,
        db_size=40_000,          # big db: BS reports are expensive
        disconnect_prob=0.2,
        disconnect_time_mean=600.0,
        seed=9,
    )
    results = run_schemes(params, "uniform", ["bs", "afw", "periodic-bs"])
    print("Custom scheme demo: periodic-BS vs on-demand (AFW) vs always (BS)")
    print(f"  {'scheme':>12s} {'answered':>9s} {'uplink b/q':>11s} "
          f"{'IR share':>9s} {'latency s':>10s} {'stale':>6s}")
    for name in ("bs", "periodic-bs", "afw"):
        r = results[name]
        print(
            f"  {name:>12s} {r.queries_answered:>9.0f} "
            f"{r.uplink_cost_per_query:>11.2f} {r.downlink_ir_share:>9.3f} "
            f"{r.mean_query_latency:>10.1f} {r.stale_hits:>6.0f}"
        )
    print(
        "\nPeriodic-BS spends an order of magnitude less downlink on "
        "reports than BS\nwith zero uplink; AFW spends a little uplink to "
        "broadcast BS only when a\nsleeper actually needs it."
    )


if __name__ == "__main__":
    main()
