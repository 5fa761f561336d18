"""Property suite for the loss-adaptive control law.

Four families of invariants, each a guarantee the simulation layer leans
on:

* the loss estimate is always a probability (bounded in ``[0, 1]``) and
  monotone in the observed gap counts;
* ``w_eff == w`` exactly when the estimated loss is zero (the paper-
  faithful configuration is a fixed point of the controller);
* ``w_eff`` never leaves ``[w, w_max]``;
* ``WindowReport.covers`` is monotone in the window span — widening can
  only *gain* covered clients, so the controller can never un-salvage
  anyone by reacting to loss.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.reports.window import WindowReport
from repro.schemes.loss_adaptive import (
    LossAdaptationConfig,
    LossAdaptiveController,
    LossEstimator,
    consecutive_loss_tolerance,
    effective_window_intervals,
)

# One simulated run's worth of per-interval evidence: (gaps, salvage,
# expected listeners) triples.
INTERVALS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=1, max_value=200),
    ),
    min_size=1,
    max_size=50,
)


def run_estimator(intervals, alpha=0.3, salvage_weight=0.5):
    est = LossEstimator(alpha=alpha, salvage_weight=salvage_weight)
    trajectory = []
    for gaps, salvage, expected in intervals:
        est.observe_gaps(gaps)
        for _ in range(salvage):
            est.observe_salvage()
        trajectory.append(est.end_interval(expected))
    return trajectory


class TestEstimatorBounds:
    @given(intervals=INTERVALS, alpha=st.floats(min_value=0.01, max_value=1.0))
    def test_estimate_is_always_a_probability(self, intervals, alpha):
        for value in run_estimator(intervals, alpha=alpha):
            assert 0.0 <= value <= 1.0

    @given(intervals=INTERVALS)
    def test_zero_evidence_keeps_estimate_zero(self, intervals):
        silent = [(0, 0, expected) for _, _, expected in intervals]
        assert all(value == 0.0 for value in run_estimator(silent))

    @given(
        intervals=INTERVALS,
        index=st.integers(min_value=0, max_value=49),
        extra=st.integers(min_value=1, max_value=300),
    )
    def test_estimate_is_monotone_in_gap_counts(self, intervals, index, extra):
        """More observed gaps in any one interval never lower any later
        point of the estimate trajectory."""
        index %= len(intervals)
        gaps, salvage, expected = intervals[index]
        louder = list(intervals)
        louder[index] = (gaps + extra, salvage, expected)
        base = run_estimator(intervals)
        bumped = run_estimator(louder)
        for lo, hi in zip(base[index:], bumped[index:]):
            assert hi >= lo


class TestWindowLaw:
    @given(
        w=st.integers(min_value=1, max_value=100),
        slack=st.integers(min_value=0, max_value=400),
    )
    def test_zero_loss_is_the_identity(self, w, slack):
        assert effective_window_intervals(w, w + slack, 0.0) == w

    @given(
        w=st.integers(min_value=1, max_value=100),
        slack=st.integers(min_value=0, max_value=400),
        loss=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_w_eff_stays_in_band(self, w, slack, loss):
        w_max = w + slack
        w_eff = effective_window_intervals(w, w_max, loss)
        assert w <= w_eff <= w_max

    @given(
        w=st.integers(min_value=1, max_value=100),
        slack=st.integers(min_value=0, max_value=400),
        lo=st.floats(min_value=0.0, max_value=1.0),
        hi=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_w_eff_is_monotone_in_estimated_loss(self, w, slack, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        w_max = w + slack
        assert effective_window_intervals(w, w_max, lo) <= effective_window_intervals(
            w, w_max, hi
        )

    @given(
        lo=st.floats(min_value=0.001, max_value=0.999),
        hi=st.floats(min_value=0.001, max_value=0.999),
        eps=st.floats(min_value=1e-6, max_value=0.5),
    )
    def test_tolerance_is_monotone_and_sufficient(self, lo, hi, eps):
        if lo > hi:
            lo, hi = hi, lo
        k_lo = consecutive_loss_tolerance(lo, eps)
        k_hi = consecutive_loss_tolerance(hi, eps)
        assert k_lo <= k_hi
        # The defining guarantee: k+1 consecutive losses are rarer than eps.
        assert hi ** (k_hi + 1) <= eps + 1e-12


class TestControllerEndToEnd:
    @given(
        w=st.integers(min_value=1, max_value=40),
        slack=st.integers(min_value=0, max_value=100),
        intervals=INTERVALS,
    )
    def test_controller_trajectory_stays_in_band(self, w, slack, intervals):
        controller = LossAdaptiveController(
            LossAdaptationConfig(w_max=w + slack),
            window_intervals=w,
            broadcast_interval=20.0,
        )
        for gaps, salvage, listeners in intervals:
            controller.observe_nack(gaps) if gaps else None
            for _ in range(salvage):
                controller.observe_salvage()
            w_eff = controller.tick(listeners)
            assert w <= w_eff <= w + slack
            assert 0.0 <= controller.estimate <= 1.0

    def test_silent_cell_never_widens(self):
        controller = LossAdaptiveController(
            LossAdaptationConfig(w_max=40),
            window_intervals=10,
            broadcast_interval=20.0,
        )
        for _ in range(100):
            assert controller.tick(50) == 10
        assert controller.estimate == 0.0


class TestValidation:
    """Every config/argument guard raises — bad knobs fail loudly at
    construction, never as silent mis-adaptation mid-run."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(w_max=0),
            dict(alpha=0.0),
            dict(alpha=1.5),
            dict(salvage_weight=-0.1),
            dict(target_residual=0.0),
            dict(target_residual=1.0),
            dict(repeat=0),
        ],
    )
    def test_config_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            LossAdaptationConfig(**kwargs)

    def test_estimator_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LossEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            LossEstimator(salvage_weight=-1.0)
        with pytest.raises(ValueError):
            LossEstimator().observe_gaps(-1)

    def test_tolerance_edge_cases(self):
        assert consecutive_loss_tolerance(0.0, 0.01) == 0
        assert consecutive_loss_tolerance(-0.5, 0.01) == 0
        with pytest.raises(ValueError):
            consecutive_loss_tolerance(1.0, 0.01)
        with pytest.raises(ValueError):
            consecutive_loss_tolerance(0.5, 0.0)

    def test_window_law_rejects_degenerate_bands(self):
        with pytest.raises(ValueError):
            effective_window_intervals(0, 10, 0.5)
        with pytest.raises(ValueError):
            effective_window_intervals(10, 9, 0.5)

    def test_controller_rejects_cap_below_base_window(self):
        with pytest.raises(ValueError):
            LossAdaptiveController(
                LossAdaptationConfig(w_max=5),
                window_intervals=10,
                broadcast_interval=20.0,
            )


class TestCoverageMonotonicity:
    @given(
        tlb=st.floats(min_value=0.0, max_value=1000.0),
        narrow=st.floats(min_value=0.0, max_value=1000.0),
        widen_by=st.floats(min_value=0.0, max_value=1000.0),
    )
    def test_widening_never_unsalvages(self, tlb, narrow, widen_by):
        """``WindowReport(w_eff).covers(tlb)`` is monotone in ``w_eff``:
        every client covered by the narrow window is covered by the wide
        one."""
        timestamp = 1000.0
        narrow_report = WindowReport(
            timestamp=timestamp,
            window_start=timestamp - narrow,
            items={},
            n_items=64,
        )
        wide_report = WindowReport(
            timestamp=timestamp,
            window_start=timestamp - narrow - widen_by,
            items={},
            n_items=64,
        )
        if narrow_report.covers(tlb):
            assert wide_report.covers(tlb)

    @given(
        tlb=st.floats(min_value=0.0, max_value=999.0),
        spans=st.lists(
            st.floats(min_value=1.0, max_value=2000.0), min_size=2, max_size=8
        ),
    )
    def test_coverage_is_a_threshold_in_the_span(self, tlb, spans):
        """Coverage flips from False to True exactly once as the span
        grows — the controller can treat ``w_eff`` as a dial."""
        timestamp = 1000.0
        outcomes = [
            WindowReport(
                timestamp=timestamp,
                window_start=timestamp - span,
                items={},
                n_items=64,
            ).covers(tlb)
            for span in sorted(spans)
        ]
        # Once covered, always covered: no True followed by a False.
        for earlier, later in zip(outcomes, outcomes[1:]):
            assert later >= earlier
