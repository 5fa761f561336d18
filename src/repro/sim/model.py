"""Assembly of the full cell simulation (paper Section 4)."""

from __future__ import annotations

from typing import Dict, List, Union

from ..db import Database, UpdateGenerator, UpdateLog
from ..des import Environment, RandomStreams
from ..des.monitor import MetricSet
from ..net import Channel, FaultModel, PRIORITY_CHECK, PRIORITY_IR
from ..schemes import Scheme, get_scheme
from .client import MobileClient
from .metrics import SimulationResult, finalize
from .params import SystemParams
from .querylog import QueryLog
from .timeseries import TimeSeries
from .server import Server
from .workload import Workload


class SimulationModel:
    """One fully wired cell: database, channels, server, clients.

    Construct, then :meth:`run`.  All state is per-instance, so models can
    be built and run independently (e.g. one per parameter-sweep point).
    """

    def __init__(
        self,
        params: SystemParams,
        workload: Workload,
        scheme: Union[str, Scheme],
    ):
        if isinstance(scheme, str):
            scheme = get_scheme(scheme)
        self.params = params
        self.workload = workload
        self.scheme = scheme

        self.env = Environment()
        self.streams = RandomStreams(params.seed)
        self.metrics = MetricSet()
        self.db = Database(params.db_size)
        self.update_log = UpdateLog()
        self.query_log = QueryLog() if params.collect_query_log else None
        self.timeseries = (
            {
                name: TimeSeries(params.broadcast_interval, name=name)
                for name in ("answered", "hits", "misses")
            }
            if params.collect_timeseries
            else None
        )

        self.downlink = Channel(
            self.env,
            params.downlink_bps,
            name="downlink",
            preempt_threshold=PRIORITY_IR,
            faults=self._fault_model(params.downlink_faults, "downlink"),
        )
        # Tiny control payloads (Tlb, checking) must not starve behind
        # multi-second data requests on a narrow uplink; the paper gives
        # the checking class priority over data traffic.
        self.uplink = Channel(
            self.env,
            params.effective_uplink_bps,
            name="uplink",
            preempt_threshold=PRIORITY_CHECK,
            faults=self._fault_model(params.uplink_faults, "uplink"),
        )

        # Optional dedicated report channel (the paper's multiple-channel
        # future work): reports stop competing with data transfers.
        self.ir_channel = (
            Channel(
                self.env,
                params.ir_channel_bps,
                name="ir-channel",
                preempt_threshold=PRIORITY_IR,
                faults=self._fault_model(params.downlink_faults, "ir-channel"),
            )
            if params.ir_channel_bps is not None
            else None
        )

        self.server_policy = scheme.make_server_policy(params, self.db)
        self.server = Server(
            self.env,
            params,
            self.db,
            self.server_policy,
            downlink=self.downlink,
            uplink=self.uplink,
            metrics=self.metrics,
            ir_channel=self.ir_channel,
        )

        self.updates = UpdateGenerator(
            self.env,
            self.db,
            workload.update_pattern(params.db_size),
            interarrival_mean=params.update_interarrival_mean,
            items_per_update_mean=params.items_per_update_mean,
            stream=self.streams.stream("server/updates"),
            log=self.update_log,
            on_update=self._on_item_update,
        )

        #: Cell count (the multi-cell subclass raises it in _build_cells).
        self.n_cells = 1
        self._build_cells()

        #: Live full-fidelity clients keyed by id.  With aggregation off
        #: the registry holds every client in id order forever; with it
        #: on, absorbed clients leave and promoted ones re-enter (use
        #: :meth:`client_by_id`, not positional indexing).
        self._clients_by_id: Dict[int, MobileClient] = {}
        #: The one query pattern every client draws from: a pattern is
        #: the same for every client and never changes after
        #: construction, and a Zipf pattern holds a ``db_size``-entry CDF.
        self.query_pattern = workload.query_pattern(params.db_size)
        #: Population-aggregation pool (None with the knob group off —
        #: zero cost, bit-identical to the seed).
        self.population = None
        agg = params.aggregation
        seeding = False
        if agg is not None:
            from .population import PopulationPool, warm_signature

            self.population = PopulationPool(
                self.env,
                params,
                self.streams,
                self.metrics,
                promote=self._promote_member,
                release=self._release_client,
            )
            seeding = agg.start_in_pool > 0.0
            # Seeded members start with the signature warm_fill would
            # have produced.
            n_hot, n_cold = (
                warm_signature(self.query_pattern, params.cache_capacity)
                if params.warm_start
                else (0, 0)
            )
        for cid in range(params.n_clients):
            cell_id, downlink, uplink, ir_channel = self._client_home(cid)
            if (
                seeding
                and cid >= agg.k_exact
                and self.population.seed_stream.bernoulli(agg.start_in_pool)
            ):
                # Steady-state initial condition: park this client
                # mid-doze without ever constructing it.
                self.population.seed_parked(cid, cell_id, n_hot, n_cold)
                continue
            self._clients_by_id[cid] = MobileClient(
                self.env,
                client_id=cid,
                params=params,
                policy=scheme.make_client_policy(params, cid),
                query_pattern=self.query_pattern,
                downlink=downlink,
                uplink=uplink,
                metrics=self.metrics,
                streams=self.streams,
                update_log=self.update_log,
                ir_channel=ir_channel,
                query_log=self.query_log,
                timeseries=self.timeseries,
                cell_id=cell_id,
                pool=self.population,
            )

        #: Endpoint-failure injection (None with chaos off — zero cost).
        self.chaos = None
        if params.chaos is not None and not params.chaos.is_null:
            # Lazy import: repro.chaos.injector imports repro.sim.
            from ..chaos.injector import ChaosInjector

            self.chaos = ChaosInjector(self, params.chaos)

    # -- client registry ------------------------------------------------------

    @property
    def clients(self) -> List[MobileClient]:
        """Live full-fidelity clients (pooled members are not actors)."""
        return list(self._clients_by_id.values())

    def client_by_id(self, client_id: int) -> MobileClient:
        """The live client with this id (KeyError if absorbed/unseeded)."""
        return self._clients_by_id[client_id]

    # -- population aggregation (repro.sim.population) ------------------------

    def _promote_member(self, member, now: float) -> MobileClient:
        """Pool hook: rebuild one member as a full-fidelity client.

        The cache is reconstructed consistent with the member's stratum
        (every entry an honest ``Tlb``-time copy), the scheme policy is
        the one that rode the pool (or a fresh one for seeded members),
        and the per-client RNG streams resume exactly where the absorbed
        actor left them (streams are cached by name).
        """
        from .population import ResumeState, rebuild_cache

        params = self.params
        pool = self.population
        cid = member.client_id
        tlb = pool.bucket_time(member.tlb_bucket)
        cache = rebuild_cache(
            self.streams.stream(f"client-{cid}/pool"),
            self.query_pattern,
            params.cache_capacity,
            member.n_hot,
            member.n_cold,
            tlb,
            update_log=self.update_log,
        )
        policy = member.policy
        if policy is None:
            policy = self.scheme.make_client_policy(params, cid)
        resume = ResumeState(
            cache=cache,
            tlb=tlb,
            report_epoch=member.report_epoch,
            report_cell=member.report_cell,
            clock_rate=member.clock_rate,
            clock_skew=member.clock_skew,
        )
        cell_id = member.cell_id
        downlink, uplink, ir_channel = self._cell_channels(cell_id)
        client = MobileClient(
            self.env,
            client_id=cid,
            params=params,
            policy=policy,
            query_pattern=self.query_pattern,
            downlink=downlink,
            uplink=uplink,
            metrics=self.metrics,
            streams=self.streams,
            update_log=self.update_log,
            ir_channel=ir_channel,
            query_log=self.query_log,
            timeseries=self.timeseries,
            cell_id=cell_id,
            pool=pool,
            resume=resume,
        )
        self._clients_by_id[cid] = client
        self._finish_promote(client)
        client.wake_from_pool(now)
        return client

    def _release_client(self, client: MobileClient):
        """Pool hook: an absorbed client leaves the live registry."""
        del self._clients_by_id[client.client_id]

    # -- subclass hooks (multi-cell; see repro.sim.multicell) -----------------

    def _cell_channels(self, cell_id: int):
        """Hook: ``(downlink, uplink, ir_channel)`` serving *cell_id*."""
        return self.downlink, self.uplink, self.ir_channel

    def _finish_promote(self, client: MobileClient):
        """Hook: let subclasses finish wiring a promoted client."""

    def _fault_model(self, config, channel_name: str):
        """A seeded :class:`FaultModel` for one channel (None with faults off)."""
        if config is None:
            return None
        return FaultModel(config, self.streams.stream(f"faults/{channel_name}"))

    def _build_cells(self):
        """Hook: construct the extra cells.  The base model is one cell."""

    def _client_home(self, cid: int):
        """Hook: ``(cell_id, downlink, uplink, ir_channel)`` for a client."""
        return 0, self.downlink, self.uplink, self.ir_channel

    def _collect_extra_telemetry(self, result: SimulationResult):
        """Hook: let subclasses append telemetry to the finished result."""

    def _on_item_update(self, item: int, now: float):
        server = self.server
        if server.crashed:
            # A dead process observes nothing: the update reaches the
            # durable database (the generator already committed it) but
            # no in-memory policy state — exactly the knowledge the
            # restarted incarnation must NOT pretend to have.
            return
        new_version = int(self.db.version[item])
        server.policy.on_item_update(item, new_version - 1, new_version)

    def run(self) -> SimulationResult:
        """Run to ``params.simulation_time`` and snapshot the metrics."""
        self.env.run(until=self.params.simulation_time)
        result = finalize(
            self.metrics,
            scheme=self.scheme.name,
            workload=self.workload.name,
            sim_time=self.params.simulation_time,
            now=self.env.now,
        )
        # Kernel telemetry: lets the perf benches compute events/second
        # without reaching into Environment internals.
        result.raw["kernel.events_scheduled"] = float(self.env.scheduled_events)
        # Channel telemetry joins the raw snapshot.
        result.raw["downlink.utilization"] = self.downlink.stats.utilization(
            self.env.now
        )
        result.raw["uplink.utilization"] = self.uplink.stats.utilization(self.env.now)
        result.raw["downlink.bits_delivered"] = self.downlink.stats.bits_delivered
        result.raw["uplink.bits_delivered"] = self.uplink.stats.bits_delivered
        channels = [self.downlink, self.uplink]
        if self.ir_channel is not None:
            channels.append(self.ir_channel)
        for channel in channels:
            fm = channel.faults
            if fm is None:
                continue
            stats = fm.stats
            result.raw[f"{channel.name}.fault_judged"] = float(stats.judged)
            result.raw[f"{channel.name}.fault_drops"] = float(stats.dropped)
            result.raw[f"{channel.name}.fault_corruptions"] = float(stats.corrupted)
            result.raw[f"{channel.name}.fault_dropped_bits"] = stats.dropped_bits
            result.raw[f"{channel.name}.fault_corrupted_bits"] = stats.corrupted_bits
            result.raw[f"{channel.name}.fault_bursts"] = float(stats.bursts)
        # Liveness accounting (the safety oracle's second half): emitted
        # unconditionally so chaos-off comparisons carry the same keys.
        from ..chaos.oracle import account_liveness

        ledger = account_liveness(result, self.params.n_clients)
        result.raw["oracle.queries_pending"] = float(ledger.pending)
        result.raw["oracle.liveness_ok"] = 1.0 if ledger.ok else 0.0
        # Bounded salvage-state telemetry (adaptive schemes only).  Read
        # through the server: a chaos restart swaps the policy instance.
        buffer = getattr(self.server.policy, "tlb_buffer", None)
        if buffer is not None:
            result.raw["server.tlb_duplicates"] = float(buffer.duplicates)
            result.raw["server.tlb_overflow"] = float(buffer.overflows)
        # Loss-adaptive control-loop telemetry (knob group on only).
        controller = self.server.loss_controller
        if controller is not None:
            from .metrics import EST_LOSS

            result.raw[EST_LOSS] = controller.estimate
            result.raw["server.w_eff_last"] = float(controller.w_eff)
        # Population-pool telemetry (aggregation knob group on only, so
        # exact runs keep a key-identical snapshot).
        pool = self.population
        if pool is not None:
            from .metrics import POOL_PEAK_RESIDENTS, POOL_RESIDENTS, POOL_STRATA

            result.raw[POOL_RESIDENTS] = float(pool.residents)
            result.raw[POOL_PEAK_RESIDENTS] = float(pool.peak_residents)
            result.raw[POOL_STRATA] = float(len(pool.strata))
            result.raw["clients.live_at_horizon"] = float(len(self._clients_by_id))
        self._collect_extra_telemetry(result)
        return result
