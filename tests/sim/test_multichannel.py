"""Tests for the dedicated invalidation-report channel (the paper's
"multiple-channel environment" future work)."""

import pytest

from repro.net import MessageKind
from repro.sim import SimulationModel, SystemParams, UNIFORM


def params(**kw):
    defaults = dict(
        simulation_time=2000.0,
        n_clients=10,
        db_size=20_000,      # big BS reports: the interesting regime
        buffer_fraction=0.01,
        disconnect_prob=0.1,
        disconnect_time_mean=300.0,
        seed=8,
    )
    defaults.update(kw)
    return SystemParams(**defaults)


class TestChannelSeparation:
    def test_reports_travel_on_the_dedicated_channel(self):
        model = SimulationModel(params(ir_channel_bps=4000.0), UNIFORM, "bs")
        on_ir, on_down = [], []
        model.ir_channel.attach(lambda msg, now: on_ir.append(msg.kind))
        model.downlink.attach(lambda msg, now: on_down.append(msg.kind))
        model.run()
        assert all(k is MessageKind.INVALIDATION_REPORT for k in on_ir)
        assert len(on_ir) > 50
        assert MessageKind.INVALIDATION_REPORT not in on_down

    def test_default_keeps_reports_on_downlink(self):
        model = SimulationModel(params(), UNIFORM, "bs")
        assert model.ir_channel is None
        kinds = []
        model.downlink.attach(lambda msg, now: kinds.append(msg.kind))
        model.run()
        assert MessageKind.INVALIDATION_REPORT in kinds

    def test_report_channel_airtime_reaches_raw(self):
        model = SimulationModel(params(ir_channel_bps=4000.0), UNIFORM, "bs")
        raw = model.run().raw
        stats = model.ir_channel.stats
        assert raw["ir-channel.bits_delivered"] == stats.bits_delivered > 0
        assert raw["ir-channel.utilization"] == stats.utilization(model.env.now) > 0

    def test_validation_of_channel_bandwidth(self):
        with pytest.raises(ValueError):
            SystemParams(ir_channel_bps=0.0)

    def test_equal_spectrum_split_conserves_throughput(self):
        """Spectrum conservation: splitting 10 kbps into 8 kbps data +
        2 kbps reports neither creates nor destroys capacity — the shared
        channel's data share already equals what the reports leave behind.
        (The split's real benefits are isolation: zero preemptions of data
        transfers, checked below.)"""
        shared_model = SimulationModel(
            params(simulation_time=6000.0, n_clients=40), UNIFORM, "bs"
        )
        shared = shared_model.run()
        split_model = SimulationModel(
            params(
                simulation_time=6000.0,
                n_clients=40,
                downlink_bps=8000.0,
                ir_channel_bps=2000.0,
            ),
            UNIFORM,
            "bs",
        )
        split = split_model.run()
        assert split.queries_answered == pytest.approx(
            shared.queries_answered, rel=0.05
        )
        # Isolation: data transfers are never preempted by reports.
        assert shared_model.downlink.stats.preemptions > 0
        assert split_model.downlink.stats.preemptions == 0

    def test_oversized_report_channel_wastes_spectrum(self):
        """Sizing matters: giving reports more than they need starves the
        data channel (BS at db=20000 needs ~2.1 kbps for reports)."""
        fair = SimulationModel(
            params(simulation_time=6000.0, n_clients=40,
                   downlink_bps=8000.0, ir_channel_bps=2000.0),
            UNIFORM, "bs",
        ).run()
        starved = SimulationModel(
            params(simulation_time=6000.0, n_clients=40,
                   downlink_bps=5000.0, ir_channel_bps=5000.0),
            UNIFORM, "bs",
        ).run()
        assert starved.queries_answered < fair.queries_answered

    def test_no_stale_hits_with_separate_channel(self):
        for scheme in ("bs", "aaw", "checking"):
            result = SimulationModel(
                params(ir_channel_bps=3000.0, update_interarrival_mean=40.0),
                UNIFORM,
                scheme,
            ).run()
            assert result.stale_hits == 0
