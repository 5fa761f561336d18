"""Tests for the verdicts of the interleaved A/B runner (benchmarks/ab.py)."""

import importlib.util
from pathlib import Path

import pytest

AB_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab_runner", AB_PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPECS = {
    "run_s": {"name": "run_s", "better": "lower", "bound": 0.25},
    "answers_per_cpu_s": {
        "name": "answers_per_cpu_s", "better": "higher", "bound": 0.25
    },
}


def pairs_of(base, change, name="run_s"):
    return [
        {"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
        for b, c in zip(base, change)
    ]


def verdicts(base, change, name="run_s"):
    return ab.summarize(pairs_of(base, change, name), SPECS)[name]


class TestSummarize:
    def test_ties_count_for_neither_side(self):
        m = verdicts([1.0] * 10, [1.0] * 10)
        assert m["wins"] == 0
        assert m["claim_met"] is False
        assert m["within_bound"] is True

    def test_nine_wins_and_a_tie_meet_the_claim(self):
        base = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0225-1.0675
        m = verdicts(base, [0.5] * 9 + [base[9]])
        assert m["wins"] == 9
        assert m["claim_met"] is True

    def test_eight_wins_and_two_ties_do_not(self):
        base = [1.0 + 0.01 * i for i in range(10)]
        m = verdicts(base, [0.5] * 8 + base[8:])
        assert m["wins"] == 8
        assert m["claim_met"] is False

    def test_a_gain_inside_the_base_spread_is_no_claim(self):
        base = [1.0, 2.0] * 5  # quartiles 1.0-2.0
        m = verdicts(base, [b - 0.1 for b in base])
        assert m["wins"] == 10
        assert m["base_median"] - m["change_median"] < 1.0
        assert m["claim_met"] is False

    @pytest.mark.parametrize(
        "name, better_values, worse_values",
        [
            ("run_s", [0.8] * 10, [1.3] * 10),
            ("answers_per_cpu_s", [1.2] * 10, [0.7] * 10),
        ],
    )
    def test_both_directions(self, name, better_values, worse_values):
        better = verdicts([1.0] * 10, better_values, name)
        assert better["wins"] == 10
        assert better["claim_met"] is True and better["within_bound"] is True
        worse = verdicts([1.0] * 10, worse_values, name)
        assert worse["wins"] == 0
        assert worse["claim_met"] is False and worse["within_bound"] is False

    @pytest.mark.parametrize(
        "name, worse", [("run_s", 1.2), ("answers_per_cpu_s", 0.8)]
    )
    def test_worse_inside_the_bound_is_within_it(self, name, worse):
        m = verdicts([1.0] * 10, [worse] * 10, name)
        assert m["claim_met"] is False
        assert m["within_bound"] is True

    def test_a_single_pair(self):
        m = verdicts([1.0], [0.9])
        assert m["base_quartiles"] == [1.0, 1.0]
        assert m["wins"] == 1 and m["pairs"] == 1
        assert m["claim_met"] is True and m["within_bound"] is True
        tied = verdicts([1.0], [1.0])
        assert tied["claim_met"] is False and tied["within_bound"] is True

    def test_a_metric_without_a_spec_has_no_bound(self):
        m = verdicts([1.0] * 3, [2.0] * 3, name="des.self_s")
        assert m["better"] == "lower"
        assert m["within_bound"] is None
