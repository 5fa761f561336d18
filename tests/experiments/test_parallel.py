"""Tests for process-parallel figure sweeps."""

import pytest

from repro.experiments import get_figure, run_figure
from repro.experiments.figures import Scale

TINY = Scale(name="tiny", simulation_time=1500.0, n_clients=8)


class TestParallelSweep:
    @pytest.fixture(scope="class")
    def pair(self):
        kwargs = dict(
            scale=TINY, points=[1000, 10_000], schemes=["aaw", "bs"], seed=3
        )
        serial = run_figure(get_figure("fig05"), workers=1, **kwargs)
        parallel = run_figure(get_figure("fig05"), workers=2, **kwargs)
        return serial, parallel

    def test_results_bit_identical_to_serial(self, pair):
        serial, parallel = pair
        assert parallel.series == serial.series
        assert parallel.xs == serial.xs

    def test_full_results_preserved(self, pair):
        _serial, parallel = pair
        assert parallel.results["aaw"][0].scheme == "aaw"
        assert parallel.results["bs"][1].raw  # raw metrics survived pickling

    def test_single_worker_runs_inline(self):
        result = run_figure(
            get_figure("fig06"), scale=TINY, points=[1000], schemes=["bs"], workers=1
        )
        assert result.series["bs"] == [0.0]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            run_figure(get_figure("fig05"), scale=TINY, workers=0)

    def test_cli_accepts_workers_flag(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["--figure", "fig05", "--workers", "3"])
        assert args.workers == 3

    def test_cli_workers_defaults_to_auto(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["--figure", "fig05"])
        assert args.workers == "auto"
        auto = build_parser().parse_args(["--all", "--workers", "auto"])
        assert auto.workers == "auto"


class TestWorkerResolution:
    def test_auto_uses_cpu_count(self, monkeypatch):
        from repro.experiments import parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 6)
        assert parallel.resolve_workers("auto") == 6

    def test_auto_survives_unknown_cpu_count(self, monkeypatch):
        from repro.experiments import parallel

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert parallel.resolve_workers("auto") == 1

    def test_explicit_count_passes_through(self):
        from repro.experiments.parallel import resolve_workers

        assert resolve_workers(3) == 3

    def test_rejects_garbage(self):
        from repro.experiments.parallel import resolve_workers

        for bad in (0, -1, "fast", 2.5, True):
            with pytest.raises(ValueError):
                resolve_workers(bad)

    def test_chunksize_shape(self):
        from repro.experiments.parallel import sweep_chunksize

        # Four waves per worker; never below one cell per task.
        assert sweep_chunksize(80, 4) == 5
        assert sweep_chunksize(3, 8) == 1
