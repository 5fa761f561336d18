"""Multi-cell layer: N=1 bit-identity pins, N>1 cells, knob validation.

Three guarantees are pinned here:

1. **N=1 equivalence** — a :class:`RoamingConfig` whose topology has a
   single cell builds one cell and is *bit-identical* to the seed
   behaviour without the knob group: the golden pins of every scheme
   hold unchanged, and the full raw metric snapshot matches key for key
   (no multi-cell telemetry leaks in).
2. **One model for N>1** — :class:`SimulationModel` itself builds every
   cell of a larger topology, runs its roaming and cell-outage chaos,
   and reports every cell's channels and server under their own names;
   each cell's loss-adaptive loop weighs its evidence against its own
   clients.
3. **Knob validation** — inconsistent combinations (roaming without the
   retry layer, publishing in a fed cell, cell-outage chaos without a
   topology) die with a clear error before a simulation is built.
"""

import pytest

from repro.chaos import ChaosConfig
from repro.net import FaultConfig
from repro.schemes import LossAdaptationConfig
from repro.sim import UNIFORM, AggregationConfig, SimulationModel, run_simulation
from repro.sim.params import SystemParams
from repro.topology import PROPAGATION_MODES, RoamingConfig, TopologyConfig

from .test_faults import visible
from .test_golden import GOLDEN, PARAMS, PINNED

#: The golden configuration with an inert (single-cell) roaming group.
N1 = PARAMS.with_(roaming=RoamingConfig(topology=TopologyConfig(n_cells=1)))


class TestSingleCellBitIdentity:
    """An N=1 topology must not move a single bit of any scheme."""

    def test_n1_builds_one_cell(self):
        model = SimulationModel(N1, UNIFORM, "ts")
        assert model.n_cells == 1
        assert [cell.server for cell in model.cells] == [model.server]
        assert model.feed is None
        assert model.server.sync is None
        assert model.server.coop is None

    @pytest.mark.parametrize("scheme", sorted(GOLDEN))
    def test_n1_matches_every_golden_pin(self, scheme):
        result = run_simulation(N1, UNIFORM, scheme)
        assert tuple(result.counter(name) for name in PINNED) == GOLDEN[scheme]

    @pytest.mark.parametrize("scheme", ["ts", "aaw"])
    def test_n1_raw_snapshot_is_key_for_key_identical(self, scheme):
        baseline = run_simulation(PARAMS, UNIFORM, scheme)
        n1 = run_simulation(N1, UNIFORM, scheme)
        assert visible(n1.raw) == visible(baseline.raw)

    @pytest.mark.parametrize("propagation", PROPAGATION_MODES)
    def test_n1_is_inert_under_every_propagation_mode(self, propagation):
        params = PARAMS.with_(
            roaming=RoamingConfig(
                topology=TopologyConfig(n_cells=1),
                propagation=propagation,
                roam_prob=1.0,  # nowhere to go: must still be inert
            )
        )
        baseline = run_simulation(PARAMS, UNIFORM, "ts")
        result = run_simulation(params, UNIFORM, "ts")
        assert visible(result.raw) == visible(baseline.raw)


#: A three-cell path with the retry layer on and frequent roaming.
N3 = PARAMS.with_(
    uplink_timeout=60.0,
    roaming=RoamingConfig(
        topology=TopologyConfig(kind="path", n_cells=3), roam_prob=0.5
    ),
)


class TestEveryCellInOneModel:
    """SimulationModel builds, roams and crashes every cell of a graph."""

    def test_model_builds_every_cell_and_roams(self):
        model = SimulationModel(N3, UNIFORM, "aaw")
        assert [cell.cell_id for cell in model.cells] == [0, 1, 2]
        assert [cell.downlink.name for cell in model.cells] == [
            "downlink", "downlink-1", "downlink-2"
        ]
        result = model.run()
        assert result.raw["cells.n"] == 3
        assert result.counter("roam.handoffs") > 0

    def test_model_runs_cell_outage_chaos(self):
        params = N3.with_(chaos=ChaosConfig(cell_crashes_at=((2, 500.0),)))
        result = SimulationModel(params, UNIFORM, "aaw").run()
        assert result.counter("chaos.cell_crashes") == 1
        assert result.counter("chaos.cell_restarts") == 1

    def test_every_cell_reports_its_channels(self):
        params = N3.with_(
            downlink_faults=FaultConfig(drop_prob=0.1),
            uplink_faults=FaultConfig(drop_prob=0.05),
        )
        result = run_simulation(params, UNIFORM, "aaw")
        raw = result.raw
        assert raw["downlink-1.fault_judged"] > 0
        assert raw["downlink-2.fault_judged"] > 0
        channels = [
            f"{kind}{cell}" for cell in ("", "-1", "-2")
            for kind in ("downlink", "uplink")
        ]
        for c in channels:
            assert f"{c}.utilization" in raw and f"{c}.bits_delivered" in raw
        judged = sum(raw[f"{c}.fault_judged"] for c in channels)
        intact = judged - sum(
            raw[f"{c}.fault_drops"] + raw[f"{c}.fault_corruptions"]
            for c in channels
        )
        assert result.goodput_ratio == pytest.approx(intact / judged)


#: 40 clients behind a downlink that drops one delivery in five, with the
#: NACK-driven loss-adaptive window on.
LOSSY = SystemParams(
    simulation_time=4000.0,
    n_clients=40,
    seed=1,
    downlink_faults=FaultConfig(drop_prob=0.2),
    loss_adaptation=LossAdaptationConfig(nack=True),
    uplink_timeout=60.0,
)


def on_path(params, n_cells, roam_prob=0.0):
    return params.with_(
        roaming=RoamingConfig(
            topology=TopologyConfig(kind="path", n_cells=n_cells),
            roam_prob=roam_prob,
        )
    )


def spy_on_ticks(model):
    """Record, per controller tick, the listener count the server passed
    and the clients associated with that cell at that instant."""
    seen = []
    for cell in model.cells:
        controller = cell.server.loss_controller
        tick = controller.tick

        def spy(listeners, cell_id=cell.cell_id, tick=tick):
            homed = [c for c in model.clients if c.cell_id == cell_id]
            seen.append((model.env.now, cell_id, listeners, len(homed)))
            return tick(listeners)

        controller.tick = spy
    return seen


class TestPerCellLossEvidence:
    """A cell's loss estimate divides by the clients associated with it."""

    def test_each_cell_divides_by_its_own_clients(self):
        model = SimulationModel(on_path(LOSSY, 4, roam_prob=0.5), UNIFORM, "aaw")
        seen = spy_on_ticks(model)
        result = model.run()
        assert result.counter("roam.handoffs") > 0
        assert seen and all(listeners == homed for _, _, listeners, homed in seen)
        # The cells partition the population, dozers included.
        per_instant = {}
        for now, _, listeners, _ in seen:
            per_instant[now] = per_instant.get(now, 0) + listeners
        assert set(per_instant.values()) == {LOSSY.n_clients}

    def test_pooled_members_are_not_listeners(self):
        params = LOSSY.with_(
            n_clients=60,
            disconnect_prob=0.3,
            disconnect_time_mean=2000.0,
            aggregation=AggregationConfig(k_exact=8),
        )
        model = SimulationModel(params, UNIFORM, "aaw")
        seen = spy_on_ticks(model)
        model.run()
        assert all(listeners == homed for _, _, listeners, homed in seen)
        assert min(listeners for _, _, listeners, _ in seen) < params.n_clients

    def test_cells_widen_like_one_cell_at_the_same_loss(self):
        """At the same per-delivery loss, four cells' windows track one
        cell's: dividing by the whole population would read about a
        quarter of the loss in each cell and barely widen."""
        one = run_simulation(on_path(LOSSY, 1), UNIFORM, "aaw")
        four = run_simulation(on_path(LOSSY, 4), UNIFORM, "aaw")
        assert one.mean_effective_window > LOSSY.window_intervals
        assert four.mean_effective_window > 0.8 * one.mean_effective_window
        raw = four.raw
        for prefix in ("server", "server-1", "server-2", "server-3"):
            assert 0.0 <= raw[f"{prefix}.est_loss"] <= 1.0
            assert raw[f"{prefix}.w_eff_last"] >= LOSSY.window_intervals
            assert f"{prefix}.tlb_duplicates" in raw
            assert f"{prefix}.tlb_overflow" in raw


class TestOverlappingGatewayOutages:
    """A cell-0 outage and a server outage both hold the gateway down."""

    @staticmethod
    def _run(chaos):
        params = N3.with_(n_clients=24, seed=1, chaos=chaos)
        model = SimulationModel(params, UNIFORM, "aaw")
        seen = {}

        def probe():
            for t in (150.0, 230.0, 300.0, 390.0, 410.0):
                yield model.env.sleep(t - model.env.now)
                seen[t] = (model.server.crashed, model.server.epoch)

        model.env.process(probe(), name="probe")
        return model.run(), seen

    @pytest.mark.parametrize(
        "chaos",
        [
            # Cell 0 down 100-400 s around a server outage 200-260 s.
            ChaosConfig(
                cell_crashes_at=((0, 100.0),), cell_downtime=300.0,
                server_crashes_at=(200.0,), server_downtime=60.0,
            ),
            # The server down 100-400 s around a cell-0 outage 200-260 s.
            ChaosConfig(
                server_crashes_at=(100.0,), server_downtime=300.0,
                cell_crashes_at=((0, 200.0),), cell_downtime=60.0,
            ),
        ],
        ids=["cell-outage-outer", "server-outage-outer"],
    )
    def test_gateway_comes_back_once_when_the_later_outage_ends(self, chaos):
        result, seen = self._run(chaos)
        assert seen == {
            150.0: (True, 0),
            230.0: (True, 0),
            300.0: (True, 0),
            390.0: (True, 0),
            410.0: (False, 1),
        }
        # Each walker counts its own crash and its own outage end.
        for name in ("cell_crashes", "cell_restarts",
                     "server_crashes", "server_restarts"):
            assert result.counter(f"chaos.{name}") == 1, name
        # The cell-0 crash evacuates even while the server outage holds
        # the gateway down.
        assert result.counter("roam.evacuations") > 0


class TestKnobValidation:
    """Inconsistent knob combinations fail fast with a clear story."""

    MULTI = RoamingConfig(topology=TopologyConfig(n_cells=3))

    def test_rejects_non_config_roaming(self):
        with pytest.raises(ValueError, match="RoamingConfig"):
            SystemParams(roaming="3 cells please")

    def test_multicell_requires_the_retry_layer(self):
        with pytest.raises(ValueError, match="uplink_timeout"):
            SystemParams(roaming=self.MULTI)

    def test_multicell_rejects_publishing(self):
        with pytest.raises(ValueError, match="single-cell only"):
            SystemParams(
                roaming=self.MULTI,
                uplink_timeout=60.0,
                publish_per_interval=2,
                publish_region=(0, 10),
            )

    def test_cell_outage_chaos_requires_a_topology(self):
        with pytest.raises(ValueError, match="roaming knob group"):
            SystemParams(
                chaos=ChaosConfig(cell_crashes_at=((1, 100.0),)),
                uplink_timeout=60.0,
            )

    def test_single_cell_roaming_needs_no_retry_layer(self):
        # The inert N=1 group must not demand knobs the seed never had.
        params = SystemParams(roaming=RoamingConfig())
        assert params.roaming.n_cells == 1

    def test_consistent_multicell_combination_is_accepted(self):
        params = SystemParams(roaming=self.MULTI, uplink_timeout=60.0)
        assert params.roaming.n_cells == 3
