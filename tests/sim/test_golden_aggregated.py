"""Golden change-detector for an aggregated cell (population pool on).

``tests/sim/test_golden.py`` pins aggregation-off runs.  This module
pins one small aggregated cell: the differential campaign's ``BASE``
(strict staleness oracle armed) with ``AggregationConfig(k_exact=10,
start_in_pool=0.5)``, for all 8 schemes at one seed.  About half of the
eligible clients start parked in the pool (seeded wakes) and others doze
into it during the run (absorbed wakes), so both kinds of wake promote
members inside the horizon.

Every ``RunResult.raw`` key is pinned except ``kernel.events_scheduled``:
that counts the kernel events the pool spends on wake bookkeeping, which
can change without changing anything simulated.

Regenerate after an intentional change with:

    PYTHONPATH=src python -m tests.sim.test_golden_aggregated
"""

import json
from pathlib import Path

import pytest

from repro.sim import AggregationConfig, SystemParams, run_simulation
from repro.sim.workload import UNIFORM

from .test_population_differential import BASE, SCHEMES

GOLDEN_PATH = Path(__file__).with_name("golden_aggregated.json")
SEED = 1
AGGREGATION = AggregationConfig(k_exact=10, start_in_pool=0.5)
UNPINNED = ("kernel.events_scheduled",)


def observe(scheme):
    params = SystemParams(**BASE, seed=SEED, aggregation=AGGREGATION)
    result = run_simulation(params, UNIFORM, scheme)
    return {k: v for k, v in sorted(result.raw.items()) if k not in UNPINNED}


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scheme", SCHEMES)
def test_aggregated_golden(scheme):
    raw = observe(scheme)
    # The pin is vacuous unless both kinds of wake fire: more promotions
    # than absorbs means seeded members woke, more than seeds means
    # absorbed ones did.
    assert raw["pool.absorbed"] > 0
    assert raw["pool.promoted"] > 0
    assert raw["pool.promoted"] > raw["pool.absorbed"]
    assert raw["pool.promoted"] > raw["pool.seeded"]
    assert raw == load_golden()[scheme]


if __name__ == "__main__":
    table = {scheme: observe(scheme) for scheme in SCHEMES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
