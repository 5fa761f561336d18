"""Multi-cell layer: N=1 bit-identity pins + knob-group validation.

Two guarantees are pinned here:

1. **N=1 equivalence** — a :class:`RoamingConfig` whose topology has a
   single cell routes through :class:`MultiCellModel` yet is
   *bit-identical* to the seed behaviour without the knob group: the
   golden pins of every scheme hold unchanged, and the full raw metric
   snapshot matches key for key (no multi-cell telemetry leaks in).
2. **Knob validation** — inconsistent combinations (roaming without the
   retry layer, publishing in a fed cell, cell-outage chaos without a
   topology) die with a clear error before a simulation is built.
"""

import pytest

from repro.chaos import ChaosConfig
from repro.sim import UNIFORM, run_simulation
from repro.sim.multicell import MultiCellModel
from repro.sim.params import SystemParams
from repro.topology import PROPAGATION_MODES, RoamingConfig, TopologyConfig

from .test_faults import visible
from .test_golden import GOLDEN, PARAMS, PINNED

#: The golden configuration with an inert (single-cell) roaming group.
N1 = PARAMS.with_(roaming=RoamingConfig(topology=TopologyConfig(n_cells=1)))


class TestSingleCellBitIdentity:
    """An N=1 topology must not move a single bit of any scheme."""

    def test_n1_routes_through_the_multicell_model(self):
        model = MultiCellModel(N1, UNIFORM, "ts")
        assert model.n_cells == 1
        assert model.feed is None
        assert model.synchronizers == [None]
        assert model.cooperators == [None]

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
