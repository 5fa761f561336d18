"""Self-tests of the benchmark at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, PassResult, make_pass  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_is_deterministic_and_correct(workload):
    run_pass = make_pass(workload, seed=3, scale=SCALE)
    a, b = run_pass(), run_pass()
    assert a.problems == [] and b.problems == []
    assert a.failed == 0
    assert a.answers > 0 and a.attempted >= a.answers
    assert a.counters == b.counters
    assert run.digest(a.counters) == run.digest(b.counters)
    assert a.model == b.model


def test_timings_take_each_units_fastest_pass_at_reference_speed():
    slow_host = [2 * reference.REFERENCE_S] * 10
    passes = [
        PassResult(run_units={"a": 1.0, "b": 4.0}, reference_s=slow_host),
        PassResult(run_units={"a": 2.0, "b": 3.0}, reference_s=slow_host),
    ]
    assert run.fastest_sum(passes, "run_units") == 4.0
    assert run.host_factor(passes) == 0.5


def test_seed_changes_the_inputs():
    a = make_pass("service-node", seed=1, scale=SCALE)()
    b = make_pass("service-node", seed=2, scale=SCALE)()
    assert run.digest(a.counters) != run.digest(b.counters)


def test_declared_metrics_match_the_code():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    for name in [*end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_cli_prints_every_declared_metric(workload, trace):
    proc = cli("--workload", workload, "--seed", "2", "--seconds", "0.1",
               "--trace", trace, "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    spec = declared()
    kind = "per_layer" if trace == "1" else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for name, metric in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert isinstance(metric["value"], (int, float)), name
    if trace == "0":
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_counters_match_untraced():
    metrics, passes, _notes, problems = run.traced_run("service-node", 4, SCALE)
    assert problems == []
    assert metrics["service.gets"] == passes[0].attempted
    assert 0.0 <= metrics["trace.unspanned_frac"] <= 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = cli("--workload", "paper-cell", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
