"""Tests for figure-result serialization."""

import json

import pytest

from repro.experiments import (
    figure_result_to_dict,
    get_figure,
    load_figure_result,
    run_figure,
    save_figure_result,
)
from repro.experiments.figures import Scale

TINY = Scale(name="tiny", simulation_time=1500.0, n_clients=6)


@pytest.fixture(scope="module")
def result():
    return run_figure(
        get_figure("fig06"), scale=TINY, points=[1000, 5000], schemes=["aaw", "bs"]
    )


class TestRoundTrip:
    def test_dict_shape(self, result):
        d = figure_result_to_dict(result)
        assert d["figure_id"] == "fig06"
        assert d["xs"] == [1000, 5000]
        assert set(d["series"]) == {"aaw", "bs"}
        json.dumps(d)  # must be JSON-serializable

    def test_save_and_load(self, result, tmp_path):
        path = save_figure_result(result, tmp_path / "out" / "fig06.json")
        assert path.exists()
        loaded = load_figure_result(path)
        assert loaded.spec.figure_id == "fig06"
        assert loaded.xs == result.xs
        assert loaded.series == result.series
        assert loaded.scale.n_clients == 6

    def test_version_check(self, result, tmp_path):
        path = save_figure_result(result, tmp_path / "fig06.json")
        data = json.loads(path.read_text())
        data["version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_figure_result(path)

    def test_spec_mismatch_detected(self, result, tmp_path):
        path = save_figure_result(result, tmp_path / "fig06.json")
        data = json.loads(path.read_text())
        data["metric"] = "something_else"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_figure_result(path)


class TestCLIOutput:
    def test_output_flag_writes_json(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.cli import main

        # Shrink the sweep via the spec? The CLI runs full specs; use the
        # fastest figure at bench scale would take seconds — monkeypatch
        # the runner to keep the test quick.
        import repro.experiments.cli as cli_mod

        def fake_run_figure(spec, scale, seed, workers):
            return run_figure(
                spec, scale=TINY, points=[1000], schemes=["bs"], seed=seed
            )

        monkeypatch.setattr(cli_mod, "run_figure", fake_run_figure)
        assert main(["--figure", "fig06", "--output", str(tmp_path)]) == 0
        saved = tmp_path / "fig06.json"
        assert saved.exists()
        loaded = load_figure_result(saved)
        assert loaded.series["bs"] == [0.0]
