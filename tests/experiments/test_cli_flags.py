"""Tests for CLI flags beyond the basics (plot, workers, scale)."""

import pytest

from repro.experiments import run_figure
from repro.experiments.figures import Scale

TINY = Scale(name="tiny", simulation_time=1200.0, n_clients=5)


@pytest.fixture
def fast_cli(monkeypatch):
    """CLI with the sweep shrunk to a single fast cell."""
    import repro.experiments.cli as cli_mod

    def fake_run_figure(spec, scale, seed, workers):
        return run_figure(spec, scale=TINY, points=[1000], schemes=["bs"], seed=seed)

    monkeypatch.setattr(cli_mod, "run_figure", fake_run_figure)
    return cli_mod.main


class TestFlags:
    def test_plot_flag_renders_chart(self, fast_cli, capsys):
        assert fast_cli(["--figure", "fig05", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "b = bs" in out            # chart legend
        assert "+-" in out                # chart axis

    def test_without_plot_no_chart(self, fast_cli, capsys):
        assert fast_cli(["--figure", "fig05"]) == 0
        out = capsys.readouterr().out
        assert "+-" not in out

    def test_seed_flag_passed_through(self, fast_cli, capsys):
        assert fast_cli(["--figure", "fig05", "--seed", "7"]) == 0

    def test_scale_flag_parses(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["--all", "--scale", "full"])
        assert args.scale == "full" and args.all

    def test_unknown_figure_raises(self, fast_cli):
        with pytest.raises(KeyError):
            fast_cli(["--figure", "fig99"])
