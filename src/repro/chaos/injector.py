"""Drives a :class:`~repro.chaos.schedule.ChaosSchedule` against a live cell.

The injector owns the chaos-side plumbing so the simulation model stays
declarative: it expands the configured :class:`ChaosConfig` into a
deterministic plan, assigns per-client clock models, and runs DES
processes that walk the plans: one for the gateway server's outages,
one for client crashes and one per cell with outages.  All
protocol-level consequences live in the model and the actors
(``SimulationModel.hold_down``/``release``, ``MobileClient.crash``);
the injector only decides *when*.

A server restart needs a fresh scheme policy (the crash discards the
old incarnation's report caches, combiners and salvage buffers), which
only the model can build — hence the injector is constructed with the
whole model, not just the environment.  The server walker and a cell-0
walker hold the same gateway: it stays down while either outage lasts.
"""

from __future__ import annotations

from ..sim import metrics as m
from .schedule import ChaosConfig, ChaosSchedule


class ChaosInjector:
    """Wires one chaos campaign into one built :class:`SimulationModel`."""

    def __init__(self, model, config: ChaosConfig):
        self.model = model
        self.config = config
        self.schedule = ChaosSchedule.build(
            config,
            horizon=model.params.simulation_time,
            n_clients=model.params.n_clients,
            streams=model.streams,
            n_cells=model.n_cells,
        )
        if self.schedule.clocks:
            for client in model.clients:
                client.set_clock(self.schedule.clock_for(client.client_id))
        env = model.env
        if self.schedule.server_outages:
            env.process(self._server_outages(), name="chaos-server")
        if self.schedule.client_crashes:
            env.process(self._client_crashes(), name="chaos-clients")
        if self.schedule.cell_outages:
            # One walker per cell: outages of different cells overlap
            # freely, a single cell's are sequential by construction.
            by_cell: dict = {}
            for crash_at, restart_at, cell in self.schedule.cell_outages:
                by_cell.setdefault(cell, []).append((crash_at, restart_at))
            for cell, plan in sorted(by_cell.items()):
                env.process(
                    self._cell_outages(cell, plan), name=f"chaos-cell-{cell}"
                )

    def _server_outages(self):
        """Walk the gateway server's outage plan."""
        env = self.model.env
        metrics = self.model.metrics
        for crash_at, restart_at in self.schedule.server_outages:
            if crash_at > env.now:
                yield env.sleep(crash_at - env.now)
            self.model.hold_down(0, env.now)
            metrics.counter(m.SERVER_CRASHES).add()
            if restart_at > env.now:
                yield env.sleep(restart_at - env.now)
            metrics.counter(m.SERVER_DOWNTIME).add(env.now - crash_at)
            if restart_at >= self.schedule.horizon:
                return  # the final outage never ends on-stage
            # Unless a cell-0 outage still holds it, the gateway comes
            # back as a new incarnation that rebuilds every piece of
            # volatile policy state (report caches, signature combiners,
            # salvage buffers) from the durable database.
            self.model.release(0, env.now)
            metrics.counter(m.SERVER_RESTARTS).add()

    def _client_crashes(self):
        env = self.model.env
        metrics = self.model.metrics
        for at, client_id in self.schedule.client_crashes:
            if at > env.now:
                yield env.sleep(at - env.now)
            # Look the victim up by id at crash time: the registry is a
            # dict (population aggregation may churn it between fires).
            self.model.client_by_id(client_id).crash(env.now)
            metrics.counter(m.CLIENT_CRASHES).add()

    def _cell_outages(self, cell, plan):
        """Walk one cell's outage plan (the crash/restart consequences —
        evacuation, replica resync — live in
        ``SimulationModel.crash_cell`` / ``restart_cell``)."""
        env = self.model.env
        for crash_at, restart_at in plan:
            if crash_at > env.now:
                yield env.sleep(crash_at - env.now)
            self.model.crash_cell(cell, env.now)
            if restart_at > env.now:
                yield env.sleep(restart_at - env.now)
            if restart_at >= self.schedule.horizon:
                return  # the final outage never ends on-stage
            self.model.restart_cell(cell, env.now)
