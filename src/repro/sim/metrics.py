"""Metric names and the result object a simulation run produces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from ..des.monitor import MetricSet
from ..net import Channel, MessageKind

# Counted by the client protocol core; re-exported under the same names.
from ..schemes.session import (
    CHECKS_SENT as CHECKS_SENT,
    EPOCH_PURGES as EPOCH_PURGES,
    IR_DUPLICATES as IR_DUPLICATES,
    IR_GAPS as IR_GAPS,
    ROAM_LAGGED_REPORTS as ROAM_LAGGED_REPORTS,
    TLB_UPLOADS as TLB_UPLOADS,
)

# Counter names (kept in one place so tests and analysis agree).
QUERIES_GENERATED = "queries.generated"
QUERIES_ANSWERED = "queries.answered"
ITEMS_SERVED = "queries.items_served"
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
STALE_HITS = "cache.stale_hits"
CACHE_DROPS = "cache.full_drops"
UPLINK_VALIDATION_BITS = "uplink.validation_bits"
UPLINK_REQUEST_BITS = "uplink.request_bits"
DOWNLINK_IR_BITS = "downlink.ir_bits"
DOWNLINK_DATA_BITS = "downlink.data_bits"
DOWNLINK_VALIDITY_BITS = "downlink.validity_bits"
DATA_COALESCED = "data.coalesced"
DISCONNECTIONS = "client.disconnections"
PUBLISH_ITEMS = "publish.items_pushed"
PUBLISH_BITS = "publish.bits"
PUBLISH_REFRESHES = "publish.client_refreshes"
# Fault-tolerance layer (all zero on a pristine medium).
RETRIES = "client.retries"
FETCH_TIMEOUTS = "client.fetch_timeouts"
FETCH_FAILURES = "client.fetch_failures"
VALIDATION_TIMEOUTS = "client.validation_timeouts"
IR_CORRUPTED = "client.ir_corrupted"          # reports heard but undecodable
MALFORMED_UPLINK = "server.malformed_uplink"
DUPLICATE_UPLINK = "server.duplicate_uplink"
# Loss-adaptive broadcasting (all zero with `loss_adaptation` off).
NACKS_SENT = "client.ir_nacks"                # gap hints uploaded
NACK_BITS = "uplink.nack_bits"
NACKS_RECEIVED = "server.nacks_received"
IR_REPEATS = "server.ir_repeats"              # extra report copies broadcast
EST_LOSS = "server.est_loss"                  # final smoothed loss estimate
W_EFF = "adaptive.w_eff"                      # tally: w_eff trajectory
# Chaos injection + safety oracle (all zero / trivially true with chaos off).
SERVER_CRASHES = "chaos.server_crashes"
SERVER_RESTARTS = "chaos.server_restarts"
SERVER_DOWNTIME = "chaos.server_downtime_s"
CLIENT_CRASHES = "chaos.client_crashes"
UPLINK_SHED_CRASHED = "server.uplink_shed_crashed"
ORACLE_PENDING = "oracle.queries_pending"     # generated - answered at horizon
ORACLE_LIVENESS_OK = "oracle.liveness_ok"     # 1.0 when the ledger balances
# Multi-cell roaming + inter-server sync (all zero at N=1 / roaming off).
ROAM_HANDOFFS = "roam.handoffs"               # voluntary wake-time handoffs
ROAM_EVACUATIONS = "roam.evacuations"         # handoffs forced by a cell outage
SYNC_PUSHES = "sync.pushes"                   # eager deltas applied
SYNC_PULLS = "sync.pulls"                     # pull rounds issued
SYNC_RETRIES = "sync.retries"                 # pull retransmissions
SYNC_FAILURES = "sync.failures"               # pull rounds abandoned
SYNC_SNAPSHOTS = "sync.snapshots"             # floor-raising snapshot adoptions
SYNC_LOST_MESSAGES = "sync.lost_messages"     # inter-cell link losses observed
SYNC_SKIPPED_TICKS = "sync.skipped_ticks"     # broadcasts skipped: stalled horizon
COOP_REQUESTS = "coop.requests"               # salvage backfills asked of neighbors
COOP_BACKFILLS = "coop.backfills"             # histories successfully grafted
COOP_REFUSALS = "coop.refusals"               # neighbor could not cover the gap
COOP_FAILURES = "coop.failures"               # every neighbor ask lost/refused
CELL_CRASHES = "chaos.cell_crashes"
CELL_RESTARTS = "chaos.cell_restarts"
UPLINK_SHED_UNSYNCED = "server.uplink_shed_unsynced"

# Population aggregation (repro.sim.population) — all zero with the
# aggregation knob group off (the counters are only bound by the pool).
POOL_ABSORBED = "pool.absorbed"               # dozing clients collapsed to strata
POOL_PROMOTED = "pool.promoted"               # members woken to full fidelity
POOL_SEEDED = "pool.seeded"                   # members parked at build time
POOL_RESIDENTS = "pool.residents_at_horizon"  # raw: members still pooled at end
POOL_PEAK_RESIDENTS = "pool.peak_residents"   # raw: max simultaneous members
POOL_STRATA = "pool.strata_at_horizon"        # raw: distinct strata at end

REPORT_COUNT_PREFIX = "reports."   # + ReportKind.value

QUERY_LATENCY = "query.latency"    # histogram
REPORT_SIZE = "report.size_bits"   # tally

#: The paper's bit counters, by the message kinds whose sent bits they
#: sum (see :func:`bit_counters`).
BIT_COUNTERS = {
    MessageKind.INVALIDATION_REPORT: (DOWNLINK_IR_BITS,),
    MessageKind.VALIDITY_REPORT: (DOWNLINK_VALIDITY_BITS,),
    MessageKind.DATA_ITEM: (DOWNLINK_DATA_BITS,),
    MessageKind.TLB_UPLOAD: (UPLINK_VALIDATION_BITS,),
    MessageKind.CHECK_REQUEST: (UPLINK_VALIDATION_BITS,),
    MessageKind.IR_NACK: (UPLINK_VALIDATION_BITS, NACK_BITS),
    MessageKind.DATA_REQUEST: (UPLINK_REQUEST_BITS,),
}


def bit_counters(channels: Iterable[Channel], publish_bits: float) -> Dict[str, float]:
    """The paper's bit counters, summed over *channels*' sent bits.
    Pushed items (*publish_bits*) ride ``DATA_ITEM`` but are not fetches;
    ``uplink.nack_bits`` is left out while zero."""
    out = dict.fromkeys((key for keys in BIT_COUNTERS.values() for key in keys), 0.0)
    for channel in channels:
        for kind, bits in channel.stats.sent_bits.items():
            for key in BIT_COUNTERS[kind]:
                out[key] += bits
    out[DOWNLINK_DATA_BITS] -= publish_bits
    if not out[NACK_BITS]:
        del out[NACK_BITS]
    return out


@dataclass
class SimulationResult:
    """Everything a finished run reports.

    ``raw`` holds the flattened collector snapshot; the named properties
    expose the metrics the paper's figures plot.
    """

    scheme: str
    workload: str
    sim_time: float
    raw: Dict[str, float] = field(default_factory=dict)

    def counter(self, name: str) -> float:
        """A raw counter value (0.0 when never touched)."""
        return self.raw.get(name, 0.0)

    @property
    def queries_answered(self) -> float:
        """The paper's throughput metric: queries answered in the run."""
        return self.counter(QUERIES_ANSWERED)

    @property
    def throughput_per_second(self) -> float:
        """Queries answered per simulated second."""
        return self.queries_answered / self.sim_time if self.sim_time else 0.0

    @property
    def uplink_cost_per_query(self) -> float:
        """Validation uplink bits per answered query (Figures 6/8/10/...)."""
        answered = self.queries_answered
        if answered == 0:
            return 0.0
        return self.counter(UPLINK_VALIDATION_BITS) / answered

    @property
    def hit_ratio(self) -> float:
        """Cache hits over all item accesses."""
        hits = self.counter(CACHE_HITS)
        total = hits + self.counter(CACHE_MISSES)
        return hits / total if total else 0.0

    @property
    def stale_hits(self) -> float:
        """Consistency violations (must be zero for the exact schemes)."""
        return self.counter(STALE_HITS)

    @property
    def mean_query_latency(self) -> float:
        """Mean seconds from query arrival to answer."""
        return self.raw.get(f"{QUERY_LATENCY}.mean", 0.0)

    @property
    def retries(self) -> float:
        """Retransmissions the clients issued (fetch + validation)."""
        return self.counter(RETRIES)

    @property
    def fetch_failures(self) -> float:
        """Item fetches abandoned after exhausting every retry."""
        return self.counter(FETCH_FAILURES)

    @property
    def ir_duplicates(self) -> float:
        """Repeated-report copies the clients deduplicated."""
        return self.counter(IR_DUPLICATES)

    @property
    def estimated_ir_loss(self) -> float:
        """The server's final smoothed IR-loss estimate (0 when off)."""
        return self.counter(EST_LOSS)

    @property
    def mean_effective_window(self) -> float:
        """Mean ``w_eff`` over the run (0 when loss adaptation is off)."""
        return self.raw.get(f"{W_EFF}.mean", 0.0)

    @property
    def server_crashes(self) -> float:
        """Server crash–recovery cycles the chaos layer injected."""
        return self.counter(SERVER_CRASHES)

    @property
    def epoch_purges(self) -> float:
        """Client purges triggered by an incarnation-epoch change."""
        return self.counter(EPOCH_PURGES)

    @property
    def handoffs(self) -> float:
        """Cell handoffs (voluntary roams + outage evacuations)."""
        return self.counter(ROAM_HANDOFFS) + self.counter(ROAM_EVACUATIONS)

    @property
    def cell_crashes(self) -> float:
        """Whole-cell outages the chaos layer injected."""
        return self.counter(CELL_CRASHES)

    @property
    def queries_pending(self) -> float:
        """Queries still in flight at the horizon (issued - answered)."""
        return self.counter(QUERIES_GENERATED) - self.counter(QUERIES_ANSWERED)

    @property
    def liveness_ok(self) -> bool:
        """Whether the run's query ledger balanced (see repro.chaos)."""
        return self.raw.get(ORACLE_LIVENESS_OK, 1.0) == 1.0

    @property
    def oracle_verdict(self) -> str:
        """One-token safety/liveness verdict (SAFE / STALE(n) / STUCK(p))."""
        from ..chaos.oracle import oracle_verdict

        return oracle_verdict(self)

    @property
    def goodput_ratio(self) -> float:
        """Fraction of receiver-deliveries that arrived intact.

        1.0 on a pristine medium (or when no fault model is attached);
        raw throughput times this ratio is the cell's goodput.
        """
        judged = intact = 0.0
        for key, value in self.raw.items():
            if key.endswith(".fault_judged"):
                judged += value
                channel = key[: -len(".fault_judged")]
                intact += (
                    value
                    - self.raw.get(f"{channel}.fault_drops", 0.0)
                    - self.raw.get(f"{channel}.fault_corruptions", 0.0)
                )
        return intact / judged if judged else 1.0

    @property
    def downlink_ir_share(self) -> float:
        """Report bits over report, on-demand data and validity bits, as
        sent: reports on a dedicated report channel count, pushed items
        do not."""
        ir = self.counter(DOWNLINK_IR_BITS)
        total = (
            ir
            + self.counter(DOWNLINK_DATA_BITS)
            + self.counter(DOWNLINK_VALIDITY_BITS)
        )
        return ir / total if total else 0.0

    def summary(self) -> Dict[str, float]:
        """The headline numbers as a plain dict (for printing/benches)."""
        return {
            "queries_answered": self.queries_answered,
            "throughput_per_s": self.throughput_per_second,
            "uplink_bits_per_query": self.uplink_cost_per_query,
            "hit_ratio": self.hit_ratio,
            "mean_latency_s": self.mean_query_latency,
            "stale_hits": self.stale_hits,
            "cache_drops": self.counter(CACHE_DROPS),
            "downlink_ir_share": self.downlink_ir_share,
        }


def finalize(
    metrics: MetricSet, scheme: str, workload: str, sim_time: float
) -> SimulationResult:
    """Snapshot a :class:`MetricSet` into a :class:`SimulationResult`."""
    return SimulationResult(
        scheme=scheme,
        workload=workload,
        sim_time=sim_time,
        raw=metrics.snapshot(),
    )
