"""Focused tests of the server actor: punctual reports, coalescing,
validity answering."""

import pytest

from repro.net import Channel, MessageKind
from repro.sim import SimulationModel, SystemParams, UNIFORM
from repro.sim import metrics as m_names
from repro.sim.metrics import (
    DATA_COALESCED,
    DOWNLINK_IR_BITS,
    DOWNLINK_VALIDITY_BITS,
)


def small_params(**kw):
    defaults = dict(
        simulation_time=200.0,
        n_clients=3,
        db_size=100,
        buffer_fraction=0.1,
        disconnect_prob=0.0,
        seed=1,
    )
    defaults.update(kw)
    return SystemParams(**defaults)


class TestBroadcastPunctuality:
    def test_reports_start_exactly_on_the_period(self):
        model = SimulationModel(small_params(), UNIFORM, "ts")
        starts = []

        # Channel instances are slotted (PERF001), so spy at class level.
        original_send = Channel.send

        def spy(channel, msg):
            if (
                channel is model.downlink
                and msg.kind is MessageKind.INVALIDATION_REPORT
            ):
                starts.append(model.env.now)
            return original_send(channel, msg)

        Channel.send = spy
        try:
            model.run()
        finally:
            Channel.send = original_send
        assert starts == [pytest.approx(20.0 * i) for i in range(1, 11)]

    def test_reports_punctual_even_with_data_backlog(self):
        """A large data item on the air must not delay the report."""
        params = small_params(
            simulation_time=100.0,
            think_time_mean=1.0,     # hammer the downlink with fetches
            downlink_bps=2000.0,     # one item takes ~33 s to transmit
        )
        model = SimulationModel(params, UNIFORM, "ts")
        received = []
        model.downlink.attach(
            lambda msg, now: received.append((msg.kind, now))
        )
        model.run()
        ir_times = [t for k, t in received if k is MessageKind.INVALIDATION_REPORT]
        # Every report is delivered within its own transmission time of the
        # tick -- never queued behind a data item.
        for i, t in enumerate(ir_times, start=1):
            assert t - 20.0 * i < 1.0

    def test_report_timestamp_equals_tick(self):
        model = SimulationModel(small_params(), UNIFORM, "ts")
        reports = []
        model.downlink.attach(
            lambda msg, now: reports.append(msg.payload)
            if msg.kind is MessageKind.INVALIDATION_REPORT
            else None
        )
        model.run()
        # The report built exactly at t=200 is sent but its delivery falls
        # past the horizon, so nine arrive.
        assert [r.timestamp for r in reports] == [
            pytest.approx(20.0 * i) for i in range(1, 10)
        ]


class TestDataService:
    def test_same_item_requests_coalesce(self):
        # Tiny database so concurrent clients collide on items; slow
        # downlink so the coalescing window is wide.
        params = small_params(
            db_size=2,
            n_clients=5,
            think_time_mean=5.0,
            simulation_time=400.0,
            downlink_bps=3000.0,
        )
        model = SimulationModel(params, UNIFORM, "ts")
        result = model.run()
        assert result.counter(DATA_COALESCED) > 0
        # Every query still completes despite shared transmissions.
        assert result.counter(m_names.CACHE_MISSES) > 0

    def test_ir_bits_accounted(self):
        result = SimulationModel(small_params(), UNIFORM, "ts").run()
        assert result.counter(DOWNLINK_IR_BITS) > 0

    def test_validity_bits_accounted_for_checking(self):
        params = small_params(
            simulation_time=3000.0,
            disconnect_prob=0.3,
            disconnect_time_mean=400.0,
        )
        result = SimulationModel(params, UNIFORM, "checking").run()
        assert result.counter(DOWNLINK_VALIDITY_BITS) > 0


class TestReportAccounting:
    def test_report_kind_counters(self):
        result = SimulationModel(small_params(), UNIFORM, "ts").run()
        assert result.counter("reports.window") == 10

    def test_bs_reports_counted(self):
        result = SimulationModel(small_params(), UNIFORM, "bs").run()
        assert result.counter("reports.bs") == 10
