"""Tests for the log-scale histogram monitor."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Histogram


class TestHistogram:
    def test_counts_and_mean(self):
        h = Histogram(base=1.0)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        assert h.max == 4.0

    def test_underflow_bucket(self):
        h = Histogram(base=1.0)
        h.observe(0.5)
        assert h.buckets()[0.0] == 1

    def test_bucket_edges(self):
        h = Histogram(base=1.0)
        h.observe(1.0)   # [1, 2)
        h.observe(1.99)  # [1, 2)
        h.observe(2.0)   # [2, 4)
        assert h.buckets() == {1.0: 2, 2.0: 1}

    def test_percentiles_bracket_true_quantiles(self):
        h = Histogram(base=0.001)
        samples = [float(i) for i in range(1, 101)]
        for v in samples:
            h.observe(v)
        # p50's covering bucket must contain the true median (50.5).
        assert h.percentile(0.5) >= 50.0
        assert h.percentile(0.5) <= 50.5 * 2
        assert h.percentile(1.0) >= 100.0

    def test_empty(self):
        assert Histogram().percentile(0.9) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(base=0.0)
        with pytest.raises(ValueError):
            Histogram().observe(-1.0)
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_metricset_snapshot_includes_percentiles(self):
        from repro.des import MetricSet

        ms = MetricSet()
        for v in (1.0, 5.0, 10.0):
            ms.histogram("lat").observe(v)
        snap = ms.snapshot()
        assert "lat.p50" in snap and "lat.p95" in snap and "lat.p99" in snap
        # The count, mean and max come from the histogram's own tally.
        assert type(snap["lat.count"]) is int and snap["lat.count"] == 3
        assert snap["lat.mean"] == pytest.approx(16.0 / 3)
        assert snap["lat.max"] == 10.0
        assert ms.tallies == {}


@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    q=st.floats(min_value=0.01, max_value=1.0),
)
def test_property_percentile_at_least_true_quantile_lower_bucket(samples, q):
    """The reported percentile is an upper bucket edge: it never falls
    below the true q-quantile's own bucket's lower edge / 1."""
    h = Histogram(base=0.001)
    for v in samples:
        h.observe(v)
    true_q = sorted(samples)[max(0, int(q * len(samples)) - 1)]
    # The bucketed estimate is within a factor of 2 above the true value
    # (or the underflow floor).
    estimate = h.percentile(q)
    assert estimate >= min(true_q, 0.001) or estimate >= true_q / 2
