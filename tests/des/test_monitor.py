"""Tests for statistics collectors."""

import pytest

from repro.des import Counter, MetricSet, Tally, TimeWeighted


class TestCounter:
    def test_accumulates(self):
        c = Counter("bits")
        c.add(10)
        c.add(2.5)
        assert c.value == 12.5

    def test_default_increment(self):
        c = Counter()
        c.add()
        assert c.value == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().add(-1)


class TestTally:
    def test_moments_match_reference(self):
        samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        t = Tally()
        for s in samples:
            t.observe(s)
        n = len(samples)
        assert t.count == n
        assert t.mean == pytest.approx(sum(samples) / n)
        assert t.max == 9.0

    def test_empty_tally(self):
        t = Tally()
        assert t.count == 0
        assert t.mean == 0.0

    def test_single_sample(self):
        t = Tally()
        t.observe(5.0)
        assert t.mean == 5.0


class TestTimeWeighted:
    def test_constant_level(self):
        lv = TimeWeighted(0.0, level=3.0)
        assert lv.average(10.0) == pytest.approx(3.0)

    def test_step_function(self):
        lv = TimeWeighted(0.0, level=0.0)
        lv.set(2.0, now=5.0)   # 0 for [0,5), 2 for [5,10)
        assert lv.average(10.0) == pytest.approx(1.0)

    def test_time_reversal_rejected(self):
        lv = TimeWeighted(5.0)
        with pytest.raises(ValueError):
            lv.set(1.0, now=4.0)

    def test_empty_interval_average(self):
        assert TimeWeighted(3.0, level=9.0).average(3.0) == 0.0


class TestMetricSet:
    def test_lazy_creation_and_reuse(self):
        m = MetricSet()
        m.counter("queries").add(3)
        m.counter("queries").add(2)
        assert m.counter("queries").value == 5

    def test_snapshot_flattens_everything(self):
        m = MetricSet()
        m.counter("queries").add(7)
        m.tally("latency").observe(2.0)
        m.tally("latency").observe(4.0)
        snap = m.snapshot()
        assert snap["queries"] == 7
        assert snap["latency.count"] == 2
        assert snap["latency.mean"] == pytest.approx(3.0)

    def test_snapshot_empty_tally_max(self):
        m = MetricSet()
        m.tally("x")
        assert m.snapshot()["x.max"] == 0.0


class TestBoundHandles:
    def test_bind_counter_is_the_same_object(self):
        m = MetricSet()
        handle = m.bind_counter("energy.rx")
        assert handle is m.counter("energy.rx")
        handle.add(3.0)
        assert m.snapshot()["energy.rx"] == 3.0

    def test_bind_tally_is_the_same_object(self):
        m = MetricSet()
        handle = m.bind_tally("latency")
        assert handle is m.tally("latency")
        handle.observe(2.0)
        assert m.snapshot()["latency.count"] == 1
