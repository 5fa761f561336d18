"""System parameters (paper Table 1) and derived quantities."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from ..net.faults import FaultConfig
from ..reports.sizes import DEFAULT_TIMESTAMP_BITS
from ..schemes.loss_adaptive import LossAdaptationConfig
from ..topology import RoamingConfig
from .energy import EnergyModel
from .population import AggregationConfig

if TYPE_CHECKING:  # ARCH001: chaos sits above sim in the layering DAG
    from ..chaos.schedule import ChaosConfig


@dataclass(frozen=True)
class SystemParams:
    """Tunable knobs of the simulated cell; defaults follow Table 1.

    Notes
    -----
    * ``items_per_query`` defaults to 1 (Section 2: "simple requests to
      read the most recent copy of a data item"); Table 1's "mean data
      items ref. by a query = 10" is exposed through this knob for
      sensitivity studies (see DESIGN.md).
    * ``uplink_bps`` defaults to the downlink rate; the asymmetric
      experiments (Figures 15-16) lower it to 1-10 % of downlink.
    """

    simulation_time: float = 100_000.0          # seconds
    n_clients: int = 100
    db_size: int = 10_000                       # data items
    item_size_bytes: int = 8192
    buffer_fraction: float = 0.02               # client cache / db size
    broadcast_interval: float = 20.0            # L, seconds
    downlink_bps: float = 10_000.0
    uplink_bps: Optional[float] = None          # None -> same as downlink
    control_message_bytes: int = 512
    think_time_mean: float = 100.0              # seconds (exponential)
    items_per_query: int = 1
    update_interarrival_mean: float = 100.0     # seconds (exponential)
    items_per_update_mean: float = 5.0
    disconnect_time_mean: float = 4000.0        # seconds (exponential)
    disconnect_prob: float = 0.1                # per broadcast interval
    window_intervals: int = 10                  # w
    timestamp_bits: int = DEFAULT_TIMESTAMP_BITS
    seed: int = 0
    #: Start clients with stationary-LRU cache contents, coherent with the
    #: untouched t=0 database.  Removes cold-start bias so short runs
    #: measure the steady state the paper's 100 000 s runs reach.
    warm_start: bool = True
    #: Per-bit radio energy model (see :mod:`repro.sim.energy`).
    energy: EnergyModel = EnergyModel()
    #: Record one QueryRecord per answered query (repro.sim.querylog).
    collect_query_log: bool = False
    #: Broadcast invalidation reports on their own channel instead of
    #: sharing the data downlink — the paper's "multiple-channel
    #: environment" future work.  ``ir_channel_bps`` sizes that channel
    #: (None keeps reports on the shared downlink).
    ir_channel_bps: Optional[float] = None
    #: Publishing mode (paper Section 1): push this many items per
    #: broadcast interval, round-robin over ``publish_region``, so
    #: listening clients refresh hot data without uplink requests.
    #: 0 disables pushing.
    publish_per_interval: int = 0
    #: Inclusive id range ``(lo, hi)`` the server publishes from
    #: (required when ``publish_per_interval`` > 0).
    publish_region: Optional[tuple] = None
    #: Fault injection on the downlink (and the dedicated IR channel, if
    #: any): a :class:`repro.net.FaultConfig`, or None for a pristine
    #: medium.  An all-zero config is bit-identical to None.
    downlink_faults: Optional[FaultConfig] = None
    #: Fault injection on the shared uplink.
    uplink_faults: Optional[FaultConfig] = None
    #: Client request lifecycle: seconds to wait for the response to an
    #: uplink request (data fetch, checking upload, Tlb rescue) before
    #: retransmitting.  ``None`` disables the whole timeout/retry layer —
    #: the seed's fire-and-forget behaviour.  Size it well above the
    #: uncontended response latency or spurious retransmissions will
    #: waste the uplink.
    uplink_timeout: Optional[float] = None
    #: Retransmissions after the first attempt before giving up.  A
    #: failed fetch leaves the query item unserved; a failed validation
    #: degrades to a full cache drop (the next report resynchronises).
    max_retries: int = 3
    #: Exponential backoff multiplier applied per retry attempt.
    backoff_base: float = 2.0
    #: Bound on the adaptive server's per-interval salvage state: at most
    #: this many distinct clients' ``Tlb`` uploads are buffered between
    #: broadcasts; later arrivals are counted and shed.  None = unbounded.
    max_pending_tlbs: Optional[int] = None
    #: Loss-adaptive broadcasting (see :mod:`repro.schemes.loss_adaptive`):
    #: the server estimates the IR-loss rate from client NACK hints and
    #: salvage traffic, widens the window-report span to ``w_eff`` in
    #: ``[window_intervals, w_max]``, and optionally repeats each report
    #: ``repeat`` times.  ``None`` (the default) disables the whole loop —
    #: bit-identical to the paper-faithful seed behaviour.
    loss_adaptation: Optional[LossAdaptationConfig] = None
    #: Deterministic endpoint-failure injection (see :mod:`repro.chaos`):
    #: seeded server crash–recovery cycles (with incarnation epochs),
    #: client crashes, and per-client clock skew/drift.  ``None`` (the
    #: default) injects nothing and is bit-identical to the seed; an
    #: all-zero :class:`ChaosConfig` is equally inert.
    chaos: Optional[ChaosConfig] = None
    #: Multi-cell topology + roaming knob group (see :mod:`repro.topology`):
    #: a cell graph of per-cell servers kept in sync by inter-server
    #: propagation, with clients handing off between cells.  ``None``
    #: (the default) is today's single cell; an N=1 topology is
    #: bit-identical to it (pinned by tests/sim/test_multicell.py).
    roaming: Optional[RoamingConfig] = None
    #: Population aggregation knob group (see :mod:`repro.sim.population`):
    #: keep the K "interesting" clients full-fidelity and collapse the
    #: long-dozing tail into a counts-per-stratum pool, promoting members
    #: back to full clients when their seeded reconnects fire.  ``None``
    #: (the default) simulates every client exactly and is bit-identical
    #: to the seed (pinned by tests/sim/test_golden.py); the aggregated ==
    #: exact equivalence is pinned by tests/sim/test_population_differential.py.
    aggregation: Optional[AggregationConfig] = None
    #: Promote staleness tracking into a hard safety oracle: any stale
    #: cache hit raises :class:`repro.chaos.StalenessViolation` with a
    #: full diagnostic trace instead of merely incrementing the counter.
    strict_staleness: bool = False

    def __post_init__(self):
        if self.simulation_time <= 0:
            raise ValueError("simulation_time must be positive")
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        if self.db_size < 1:
            raise ValueError("db_size must be positive")
        if not 0 < self.buffer_fraction <= 1:
            raise ValueError("buffer_fraction must be in (0, 1]")
        if self.broadcast_interval <= 0:
            raise ValueError("broadcast_interval must be positive")
        if self.downlink_bps <= 0:
            raise ValueError("downlink_bps must be positive")
        if self.uplink_bps is not None and self.uplink_bps <= 0:
            raise ValueError("uplink_bps must be positive")
        if not 0 <= self.disconnect_prob <= 1:
            raise ValueError("disconnect_prob must be in [0, 1]")
        if self.window_intervals < 1:
            raise ValueError("window_intervals must be >= 1")
        if self.items_per_query < 1:
            raise ValueError("items_per_query must be >= 1")
        if self.ir_channel_bps is not None and self.ir_channel_bps <= 0:
            raise ValueError("ir_channel_bps must be positive")
        if self.publish_per_interval < 0:
            raise ValueError("publish_per_interval must be >= 0")
        if self.publish_per_interval > 0:
            if self.publish_region is None:
                raise ValueError("publishing requires publish_region")
            lo, hi = self.publish_region
            if not (0 <= lo <= hi < self.db_size):
                raise ValueError("publish_region outside the database")
        for name in ("downlink_faults", "uplink_faults"):
            cfg = getattr(self, name)
            if cfg is not None and not isinstance(cfg, FaultConfig):
                raise ValueError(f"{name} must be a FaultConfig or None")
        if self.uplink_timeout is not None and self.uplink_timeout <= 0:
            raise ValueError("uplink_timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 1.0:
            raise ValueError("backoff_base must be >= 1")
        if self.max_pending_tlbs is not None and self.max_pending_tlbs < 1:
            raise ValueError("max_pending_tlbs must be >= 1")
        if self.loss_adaptation is not None:
            if not isinstance(self.loss_adaptation, LossAdaptationConfig):
                raise ValueError(
                    "loss_adaptation must be a LossAdaptationConfig or None"
                )
            if self.loss_adaptation.w_max < self.window_intervals:
                raise ValueError("loss_adaptation.w_max must be >= window_intervals")
        if self.chaos is not None:
            # Lazy import: validation is the one runtime use of the type
            # here, and chaos sits above sim in the layering DAG.
            from ..chaos.schedule import ChaosConfig

            if not isinstance(self.chaos, ChaosConfig):
                raise ValueError("chaos must be a ChaosConfig or None")
            if self.chaos.crashes_server and self.uplink_timeout is None:
                # Uplink requests sent into a crashed server are shed;
                # without the timeout/retry lifecycle a client waiting on
                # a validity/rescue reply would hang until the horizon.
                raise ValueError(
                    "server-crash chaos requires uplink_timeout (the retry "
                    "layer) so shed uplink requests are retransmitted"
                )
            if self.chaos.crashes_cells and self.roaming is None:
                raise ValueError(
                    "cell-outage chaos requires the roaming knob group "
                    "(SystemParams.roaming): without a topology there is "
                    "no cell to crash or to evacuate clients to"
                )
        if self.roaming is not None:
            if not isinstance(self.roaming, RoamingConfig):
                raise ValueError("roaming must be a RoamingConfig or None")
            if self.roaming.n_cells > 1 and self.uplink_timeout is None:
                # A handoff strands any exchange in flight toward the old
                # cell; the retry layer is what re-issues it to the new
                # one, so multi-cell roaming cannot run without it.
                raise ValueError(
                    "multi-cell roaming requires uplink_timeout (the retry "
                    "layer) so exchanges stranded by a handoff are re-sent"
                )
            if self.roaming.n_cells > 1 and self.publish_per_interval > 0:
                raise ValueError(
                    "publishing mode is single-cell only (per-cell publish "
                    "schedules are not modelled); disable one of the knobs"
                )
        if self.aggregation is not None:
            if not isinstance(self.aggregation, AggregationConfig):
                raise ValueError("aggregation must be an AggregationConfig or None")
            if self.aggregation.k_exact > self.n_clients:
                raise ValueError("aggregation.k_exact exceeds the client population")
            if self.chaos is not None and (
                self.chaos.crashes_clients or self.chaos.skews_clocks
            ):
                # Client-targeted chaos addresses clients positionally and
                # at build time; a pooled member has no actor to crash or
                # skew.  Cell outages would likewise need to evacuate
                # pooled members.  Keep the combinations explicit errors
                # until the pool models them.
                raise ValueError(
                    "population aggregation cannot run with client-crash or "
                    "clock-skew chaos (pooled members have no actor to target)"
                )
            if self.chaos is not None and self.chaos.crashes_cells:
                raise ValueError(
                    "population aggregation cannot run with cell-outage chaos "
                    "(evacuation cannot reach pooled members)"
                )

    # -- derived quantities ---------------------------------------------------

    @property
    def effective_uplink_bps(self) -> float:
        """Uplink bandwidth, defaulting to the downlink's."""
        return self.uplink_bps if self.uplink_bps is not None else self.downlink_bps

    @property
    def retries_enabled(self) -> bool:
        """True when the client timeout/retry lifecycle is active."""
        return self.uplink_timeout is not None

    @property
    def ir_repeat(self) -> int:
        """Report repetition factor ``r`` (1 = broadcast once)."""
        return 1 if self.loss_adaptation is None else self.loss_adaptation.repeat

    @property
    def cache_capacity(self) -> int:
        """Client cache size in items (at least 1)."""
        return max(1, int(self.buffer_fraction * self.db_size))

    @property
    def window_seconds(self) -> float:
        """``w * L``: span of the default broadcast window."""
        return self.window_intervals * self.broadcast_interval

    @property
    def item_size_bits(self) -> float:
        """Wire size of one data item."""
        return self.item_size_bytes * 8.0

    @property
    def control_message_bits(self) -> float:
        """Wire size of a data request."""
        return self.control_message_bytes * 8.0

    @property
    def n_intervals(self) -> int:
        """Broadcast ticks within the simulation."""
        return int(self.simulation_time / self.broadcast_interval)

    def with_(self, **changes) -> "SystemParams":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)
