"""Assembly of the full cell simulation (paper Section 4).

One model builds every cell.  Cell 0 (the gateway) holds the origin
database and the unsuffixed channels: with ``params.roaming`` unset, or
set to a one-cell topology, it is the paper's single cell exactly.  With
a larger topology every other cell gets its own channel set, a replica
database behind a :class:`~repro.sim.propagation.CellSynchronizer`, and
(optionally) a :class:`~repro.sim.propagation.CellCooperator` asking its
graph neighbors to backfill roamers' missing history.

Roaming is seeded per client (streams ``roam/client-<id>``): a client
waking from a doze may hand off to a random alive neighbor cell, and
*must* flee somewhere alive if its own cell is down.  Whole-cell outages
(:meth:`SimulationModel.crash_cell` / :meth:`SimulationModel.restart_cell`,
driven by the chaos layer) evacuate every resident to surviving neighbor
cells, forcing the roaming storms the acceptance campaign exercises.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..db import Database, UpdateGenerator, UpdateLog
from ..db.database import NEVER
from ..des import Environment, RandomStreams
from ..des.monitor import MetricSet
from ..net import Channel, FaultModel, PRIORITY_CHECK, PRIORITY_IR
from ..net.intercell import InterCellLink
from ..schemes import Scheme, get_scheme
from ..topology import EAGER_PUSH, PARENT_CACHE
from . import metrics as m
from .client import MobileClient
from .energy import ENERGY_TX
from .metrics import SimulationResult, finalize
from .params import SystemParams
from .propagation import CellCooperator, CellSynchronizer, OriginFeed
from .querylog import QueryLog
from .server import Server
from .workload import Workload


class Cell:
    """One base station: its server and the channels its residents use."""

    __slots__ = (
        "cell_id", "server", "downlink", "uplink", "ir_channel", "outages"
    )

    def __init__(
        self,
        cell_id: int,
        server: Server,
        downlink: Channel,
        uplink: Channel,
        ir_channel: Optional[Channel],
    ):
        self.cell_id = cell_id
        self.server = server
        self.downlink = downlink
        self.uplink = uplink
        #: Dedicated report channel (None: reports share the downlink).
        self.ir_channel = ir_channel
        #: Chaos outages holding the server down right now.
        self.outages = 0

    @property
    def radios(self) -> tuple:
        """The channels a resident's radio listens to."""
        if self.ir_channel is None:
            return (self.downlink,)
        return (self.downlink, self.ir_channel)


class SimulationModel:
    """A fully wired graph of cells: database, channels, servers, clients.

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
        #: Multi-cell knob group (None: one cell) and its cell graph.
        self.roaming = params.roaming
        self.graph = None if self.roaming is None else self.roaming.topology.build()
        self.n_cells = 1 if self.graph is None else self.graph.n_cells

        self.env = Environment()
        self.streams = RandomStreams(params.seed)
        self.metrics = MetricSet()
        self.db = Database(params.db_size)
        self.update_log = UpdateLog()
        self.query_log = QueryLog() if params.collect_query_log else None

        #: Every cell, indexed by cell id.  The gateway's parts are also
        #: the model's ``server``/``downlink``/``uplink``/``ir_channel``.
        self.cells: List[Cell] = []
        gateway = self._add_cell(self.db)
        self.server = gateway.server
        self.downlink = gateway.downlink
        self.uplink = gateway.uplink
        self.ir_channel = gateway.ir_channel

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

        #: Origin side of inter-server propagation (None at N=1).
        self.feed: Optional[OriginFeed] = None
        if self.n_cells > 1:
            self._add_fed_cells()

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
        # Clients from this id on are seeded by the pool's coin.
        seeded_from = params.n_clients
        if agg is not None:
            from .population import PopulationPool, warm_signature

            pool = self.population = PopulationPool(
                self.env,
                params,
                self.streams,
                self.metrics,
                promote=self._promote_member,
                release=self._release_client,
            )
            if agg.start_in_pool > 0.0:
                seeded_from = agg.k_exact
        for cid in range(seeded_from):
            self._add_client(cid)
        if seeded_from < params.n_clients:
            # Steady-state initial condition: each eligible client is
            # parked mid-doze or constructed, by a coin.  Parked members
            # start with the signature warm_fill would have produced.
            n_hot, n_cold = (
                warm_signature(self.query_pattern, params.cache_capacity)
                if params.warm_start
                else (0, 0)
            )
            pool.seed_parked(self.n_cells, n_hot, n_cold, self._add_client)

        #: Endpoint-failure injection (None with chaos off — zero cost).
        self.chaos = None
        if params.chaos is not None and not params.chaos.is_null:
            # Lazy import: repro.chaos.injector imports repro.sim.
            from ..chaos.injector import ChaosInjector

            self.chaos = ChaosInjector(self, params.chaos)

    # -- cells ------------------------------------------------------------------

    def _add_cell(self, db: Database) -> Cell:
        """Build the next cell: its channels and a server over *db*.

        Cell 0 keeps the single-cell channel names; cell ``i`` suffixes
        them with ``-i``.
        """
        env = self.env
        params = self.params
        cell_id = len(self.cells)
        suffix = f"-{cell_id}" if cell_id else ""
        downlink = Channel(
            env,
            params.downlink_bps,
            name="downlink" + suffix,
            preempt_threshold=PRIORITY_IR,
            faults=self._fault_model(params.downlink_faults, "downlink" + suffix),
        )
        # Tiny control payloads (Tlb, checking) must not starve behind
        # multi-second data requests on a narrow uplink; the paper gives
        # the checking class priority over data traffic.
        uplink = Channel(
            env,
            params.effective_uplink_bps,
            name="uplink" + suffix,
            preempt_threshold=PRIORITY_CHECK,
            faults=self._fault_model(params.uplink_faults, "uplink" + suffix),
        )
        # Optional dedicated report channel (the paper's multiple-channel
        # future work): reports stop competing with data transfers.
        ir_channel = (
            Channel(
                env,
                params.ir_channel_bps,
                name="ir-channel" + suffix,
                preempt_threshold=PRIORITY_IR,
                faults=self._fault_model(params.downlink_faults, "ir-channel" + suffix),
            )
            if params.ir_channel_bps is not None
            else None
        )
        server = Server(
            env,
            params,
            db,
            self.scheme.make_server_policy(params, db),
            downlink=downlink,
            uplink=uplink,
            metrics=self.metrics,
            ir_channel=ir_channel,
            cell_id=cell_id,
        )
        cell = Cell(cell_id, server, downlink, uplink, ir_channel)
        self.cells.append(cell)
        return cell

    def _fault_model(self, config, channel_name: str):
        """A seeded :class:`FaultModel` for one channel (None with faults off)."""
        if config is None:
            return None
        return FaultModel(config, self.streams.stream(f"faults/{channel_name}"))

    def _add_fed_cells(self):
        """Build cells 1..n: replicas fed from the gateway's origin."""
        params = self.params
        roaming = self.roaming
        graph = self.graph
        env = self.env
        self.feed = OriginFeed(env, self.server, params, roaming, self.metrics)
        eager = roaming.propagation == EAGER_PUSH
        parent_mode = roaming.propagation == PARENT_CACHE
        # Per-depth scheduling slot: one full ask-answer exchange plus
        # slack, so a parent's refresh lands before its children ask.
        slot = roaming.sync_margin + 2.0 * roaming.topology.link_latency
        for cell_id in range(1, self.n_cells):
            server = self._add_cell(Database(params.db_size)).server
            if parent_mode:
                feed_cell = graph.parent_of(cell_id)
                # Builders guarantee parents carry smaller ids, so the
                # parent's synchronizer already exists (or is the feed).
                feed = (
                    self.feed if feed_cell == 0 else self.cells[feed_cell].server.sync
                )
                latency = graph.link_latency(feed_cell, cell_id)
                lead = slot * (graph.max_depth - graph.depth(cell_id) + 1)
            else:
                feed = self.feed
                latency = graph.gateway_latency(cell_id)
                lead = roaming.sync_margin + 2.0 * latency
            sync = CellSynchronizer(
                env,
                server,
                feed,
                self._make_link(latency, f"intercell/{cell_id}"),
                params,
                roaming,
                self.metrics,
                lead=lead,
                pull=not eager,
            )
            if eager:
                self.feed.subscribe(sync, sync.link)
        if roaming.cooperative_salvage:
            # Second pass: every fed cell may ask each graph neighbor
            # (the gateway included — it holds the deepest history).
            for cell in self.cells[1:]:
                coop = CellCooperator(env, cell.server, roaming, self.metrics)
                for neighbor in graph.neighbors(cell.cell_id):
                    coop.add_peer(
                        neighbor,
                        self.cells[neighbor].server,
                        self._make_link(
                            graph.link_latency(cell.cell_id, neighbor),
                            f"coop/{cell.cell_id}-{neighbor}",
                        ),
                    )

    def _make_link(self, latency: float, stream_name: str) -> InterCellLink:
        loss = self.roaming.link_loss_prob
        stream = self.streams.stream(stream_name) if loss > 0.0 else None
        return InterCellLink(self.env, latency, loss, stream)

    # -- client registry ------------------------------------------------------

    @property
    def clients(self) -> List[MobileClient]:
        """Live full-fidelity clients (pooled members are not actors)."""
        return list(self._clients_by_id.values())

    def client_by_id(self, client_id: int) -> MobileClient:
        """The live client with this id (KeyError if absorbed/unseeded)."""
        return self._clients_by_id[client_id]

    def _add_client(self, cid: int) -> MobileClient:
        """Build client *cid* fresh in its home cell (round-robin by id)."""
        return self._new_client(
            cid,
            self.cells[cid % self.n_cells],
            self.scheme.make_client_policy(self.params, cid),
        )

    def _new_client(self, cid: int, cell: Cell, policy, resume=None) -> MobileClient:
        """Build one full-fidelity client in *cell* and register it."""
        client = MobileClient(
            self.env,
            client_id=cid,
            params=self.params,
            policy=policy,
            query_pattern=self.query_pattern,
            cell=cell,
            metrics=self.metrics,
            streams=self.streams,
            update_log=self.update_log,
            query_log=self.query_log,
            pool=self.population,
            roam=self._roam_on_wake if self.n_cells > 1 else None,
            resume=resume,
        )
        self._clients_by_id[cid] = client
        return client

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
        client = self._new_client(cid, self.cells[member.cell_id], policy, resume)
        client.wake_from_pool(now)
        return client

    def _release_client(self, client: MobileClient):
        """Pool hook: an absorbed client leaves the live registry."""
        del self._clients_by_id[client.client_id]

    # -- origin updates ---------------------------------------------------------

    def _on_item_update(self, item: int, now: float):
        server = self.server
        if server.crashed:
            # A dead process observes nothing: the update reaches the
            # durable database (the generator already committed it) but
            # no in-memory policy state — exactly the knowledge the
            # restarted incarnation must NOT pretend to have.  A dead
            # gateway pushes nothing either: the replicas' horizons
            # stall until the repair pull after the restart.
            return
        new_version = int(self.db.version[item])
        server.policy.on_item_update(item, new_version - 1, new_version)
        if self.feed is not None:
            # Reaches the eager-push subscribers (a pulled feed has none).
            self.feed.push_update(item, now)

    # -- roaming ----------------------------------------------------------------

    def _roam_stream(self, cid: int):
        return self.streams.stream(f"roam/client-{cid}")

    def _roam_on_wake(self, client, now: float):
        """Wake-time handoff decision (each client's roam callback, N>1).

        Voluntary roams draw ``roam_prob`` per wake-up and pick a random
        alive neighbor; a client waking inside a crashed cell must flee
        regardless — to an alive neighbor, else to any alive cell (it
        physically moved out of the dead zone), else it stays and waits
        the outage out.
        """
        cells = self.cells
        cell = client.cell_id
        stranded = cells[cell].server.crashed
        if not stranded:
            prob = self.roaming.roam_prob
            if prob == 0.0 or not self._roam_stream(client.client_id).bernoulli(prob):
                return
        targets = [
            c for c in self.graph.neighbors(cell) if not cells[c].server.crashed
        ]
        if not targets:
            if not stranded:
                return
            targets = [
                c
                for c in range(self.n_cells)
                if c != cell and not cells[c].server.crashed
            ]
            if not targets:
                return
        stream = self._roam_stream(client.client_id)
        self._hand_off(client, targets[stream.randint(0, len(targets) - 1)],
                       m.ROAM_HANDOFFS)

    def _hand_off(self, client, cell: int, counter: str):
        client.hand_off(self.cells[cell])
        self.metrics.counter(counter).add()

    # -- whole-cell outages (driven by repro.chaos.ChaosInjector) ---------------

    def crash_cell(self, cell: int, now: float):
        """A whole-cell outage begins: the cell goes down and its
        residents evacuate."""
        self.hold_down(cell, now)
        self.metrics.counter(m.CELL_CRASHES).add()
        self._evacuate(cell)

    def _evacuate(self, cell: int):
        """Scatter every resident (dozing ones included — the physical
        move happens regardless of radio state) across the surviving
        neighbor cells.  With no survivor adjacent, clients stay put and
        ride the outage out: no reports, shed uplink, pending queries
        parked — degraded, never lied to."""
        targets = [
            c for c in self.graph.neighbors(cell) if not self.cells[c].server.crashed
        ]
        if not targets:
            return
        for client in self.clients:
            if client.cell_id != cell:
                continue
            stream = self._roam_stream(client.client_id)
            self._hand_off(client, targets[stream.randint(0, len(targets) - 1)],
                           m.ROAM_EVACUATIONS)

    def restart_cell(self, cell: int, now: float):
        """A whole-cell outage ends (see :meth:`release`)."""
        self.metrics.counter(m.CELL_RESTARTS).add()
        self.release(cell, now)

    def hold_down(self, cell: int, now: float):
        """Begin one outage of *cell*'s server; the first crashes it.

        Outages of one cell may overlap — the gateway is held by its own
        cell outages and by the chaos server walker — and the server
        stays down while any of them holds it.
        """
        held = self.cells[cell]
        held.outages += 1
        if held.outages == 1:
            held.server.crash(now)

    def release(self, cell: int, now: float):
        """End one outage of *cell*'s server; the last brings it back
        as a fresh incarnation.

        The gateway restarts exactly like the single-cell server (its
        database is the durable origin; only update-time knowledge is
        lost).  A fed cell's replica was
        *volatile*: the new incarnation starts from a blank database with
        horizon ``NEVER``, sheds every uplink arrival, and resyncs via an
        immediate snapshot pull.
        """
        held = self.cells[cell]
        held.outages -= 1
        if held.outages:
            return
        server = held.server
        if cell == 0:
            policy = self.scheme.make_server_policy(self.params, self.db)
            server.restart(now, policy)
        else:
            replica = Database(self.params.db_size)
            policy = self.scheme.make_server_policy(self.params, replica)
            server.restart(now, policy, replica_db=replica)
            server.sync.reset()

    # -- run ----------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run to ``params.simulation_time`` and snapshot the metrics."""
        self.env.run(until=self.params.simulation_time)
        now = self.env.now
        result = finalize(
            self.metrics,
            scheme=self.scheme.name,
            workload=self.workload.name,
            sim_time=self.params.simulation_time,
        )
        raw = result.raw
        # Kernel telemetry: lets the perf benches compute events/second
        # without reaching into Environment internals.
        raw["kernel.events_scheduled"] = float(self.env.scheduled_events)
        # The paper's bit counters: sums over every cell's channels.
        channels = [ch for cell in self.cells for ch in (cell.uplink, *cell.radios)]
        raw.update(m.bit_counters(channels, raw.get(m.PUBLISH_BITS, 0.0)))
        # Uplink radio energy: every upload rides an uplink, and its bits
        # are in the validation and request counters just set.
        raw[ENERGY_TX] = self.params.energy.tx_nj_per_bit * (
            raw[m.UPLINK_VALIDATION_BITS] + raw[m.UPLINK_REQUEST_BITS]
        )
        # Channel telemetry joins the raw snapshot, one key set per
        # channel under its own name (a dedicated report channel too).
        for channel in channels:
            raw[f"{channel.name}.utilization"] = channel.stats.utilization(now)
            raw[f"{channel.name}.bits_delivered"] = channel.stats.bits_delivered
            if channel.faults is None:
                continue
            stats = channel.faults.stats
            raw[f"{channel.name}.fault_judged"] = float(stats.judged)
            raw[f"{channel.name}.fault_drops"] = float(stats.dropped)
            raw[f"{channel.name}.fault_corruptions"] = float(stats.corrupted)
            raw[f"{channel.name}.fault_dropped_bits"] = stats.dropped_bits
            raw[f"{channel.name}.fault_corrupted_bits"] = stats.corrupted_bits
            raw[f"{channel.name}.fault_bursts"] = float(stats.bursts)
        # Liveness accounting (the safety oracle's second half): emitted
        # unconditionally so chaos-off comparisons carry the same keys.
        # Every channel's bit ledger must balance, or the run fails.
        from ..chaos.oracle import account_liveness, balance_ledger

        balance_ledger(channels)
        liveness = account_liveness(result, self.params.n_clients)
        raw["oracle.queries_pending"] = float(liveness.pending)
        raw["oracle.liveness_ok"] = 1.0 if liveness.ok else 0.0
        # Per-cell server telemetry, named like the channels: cell 0
        # keeps ``server.*`` and cell i reports ``server-i.*``.  Bounded
        # salvage state exists for adaptive schemes only, the control
        # loop with the loss-adaptive knob group only.  Read through the
        # server: a chaos restart swaps the policy and the controller.
        for cell in self.cells:
            server = cell.server
            prefix = f"server-{cell.cell_id}" if cell.cell_id else "server"
            buffer = getattr(server.policy, "tlb_buffer", None)
            if buffer is not None:
                raw[f"{prefix}.tlb_duplicates"] = float(buffer.duplicates)
                raw[f"{prefix}.tlb_overflow"] = float(buffer.overflows)
            controller = server.loss_controller
            if controller is not None:
                raw[f"{prefix}.est_loss"] = controller.estimate
                raw[f"{prefix}.w_eff_last"] = float(controller.w_eff)
        # Population-pool telemetry (aggregation knob group on only, so
        # exact runs keep a key-identical snapshot).
        pool = self.population
        if pool is not None:
            raw[m.POOL_RESIDENTS] = float(pool.residents)
            raw[m.POOL_PEAK_RESIDENTS] = float(pool.peak_residents)
            raw[m.POOL_STRATA] = float(len(pool.strata))
            raw["clients.live_at_horizon"] = float(len(self._clients_by_id))
        # Inter-server telemetry (N>1 only: the N=1 snapshot stays
        # key-for-key identical to a run without the roaming knob group).
        if self.n_cells > 1:
            raw["cells.n"] = float(self.n_cells)
            sent = lost = 0
            for cell in self.cells[1:]:
                sync = cell.server.sync
                sent += sync.link.sent
                lost += sync.link.lost
                horizon = sync.horizon
                raw[f"sync.cell{cell.cell_id}.horizon_lag"] = (
                    now - horizon if horizon != NEVER else -1.0
                )
                coop = cell.server.coop
                if coop is not None:
                    for peer in coop.peers:
                        sent += peer.link.sent
                        lost += peer.link.lost
            raw["intercell.messages"] = float(sent)
            raw["intercell.losses"] = float(lost)
        return result
