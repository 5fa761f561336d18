"""Tests for SimulationResult derived metrics and finalize()."""

import pytest

from repro.des.monitor import MetricSet
from repro.sim import SimulationResult, finalize
from repro.sim import metrics as m


def result_with(**counters):
    raw = dict(counters)
    return SimulationResult(scheme="x", workload="UNIFORM", sim_time=100.0, raw=raw)


class TestDerivedMetrics:
    def test_uplink_cost_zero_when_no_queries(self):
        r = result_with(**{m.UPLINK_VALIDATION_BITS: 500.0})
        assert r.uplink_cost_per_query == 0.0

    def test_uplink_cost_per_query(self):
        r = result_with(
            **{m.QUERIES_ANSWERED: 10.0, m.UPLINK_VALIDATION_BITS: 500.0}
        )
        assert r.uplink_cost_per_query == 50.0

    def test_hit_ratio_empty(self):
        assert result_with().hit_ratio == 0.0

    def test_hit_ratio(self):
        r = result_with(**{m.CACHE_HITS: 30.0, m.CACHE_MISSES: 10.0})
        assert r.hit_ratio == pytest.approx(0.75)

    def test_throughput_per_second(self):
        r = result_with(**{m.QUERIES_ANSWERED: 250.0})
        assert r.throughput_per_second == pytest.approx(2.5)

    def test_ir_share(self):
        r = result_with(
            **{
                m.DOWNLINK_IR_BITS: 100.0,
                m.DOWNLINK_DATA_BITS: 300.0,
                m.DOWNLINK_VALIDITY_BITS: 0.0,
            }
        )
        assert r.downlink_ir_share == pytest.approx(0.25)

    def test_ir_share_empty(self):
        assert result_with().downlink_ir_share == 0.0

    def test_counter_default(self):
        assert result_with().counter("never.touched") == 0.0

    def test_mean_latency_default(self):
        assert result_with().mean_query_latency == 0.0


class TestFinalize:
    def test_snapshot_includes_all_collectors(self):
        ms = MetricSet()
        ms.counter(m.QUERIES_ANSWERED).add(5)
        # The shape MobileClient produces: latency lives in a histogram.
        ms.histogram(m.QUERY_LATENCY, base=0.1).observe(2.0)
        result = finalize(ms, scheme="aaw", workload="HOTCOLD", sim_time=50.0)
        assert result.scheme == "aaw"
        assert result.workload == "HOTCOLD"
        assert result.queries_answered == 5.0
        assert result.mean_query_latency == 2.0

    def test_summary_is_pure_floats(self):
        ms = MetricSet()
        result = finalize(ms, "ts", "UNIFORM", 10.0)
        assert all(isinstance(v, float) for v in result.summary().values())
