"""Golden change-detector for the population pool's seeding and wakes.

``tests/sim/golden_aggregated.json`` pins one aggregated cell and leaves
``kernel.events_scheduled`` unpinned.  This module pins the whole
``RunResult.raw`` — the kernel's event count included, so every wake the
pool arms is pinned too — for four small aggregated cells that one
misses:

* ``all-pooled``: ``start_in_pool=1.0, k_exact=0`` on a hot/cold
  workload with warm caches, so every client starts parked with a
  nonzero hot/cold signature;
* ``partial``: ``start_in_pool=0.3, k_exact=7``, a coin per eligible
  client that lands both ways;
* ``roaming``: a 3-cell path with the pool on, so seeded members park
  in every cell and promoted ones hand off;
* ``interleaved``: dozes short enough that seeded and absorbed members
  wake in turn inside the horizon (checked below, not just assumed).

Regenerate after an intentional change with:

    PYTHONPATH=src python -m tests.sim.test_pool_golden
"""

import json
from pathlib import Path

import pytest

from repro.sim import AggregationConfig, SimulationModel, SystemParams
from repro.sim.workload import HOTCOLD, UNIFORM
from repro.topology import RoamingConfig, TopologyConfig

GOLDEN_PATH = Path(__file__).with_name("golden_pool.json")
SCHEMES = ("aaw", "sig")

BASE = dict(
    simulation_time=3000.0,
    n_clients=40,
    db_size=300,
    buffer_fraction=0.05,
    think_time_mean=50.0,
    update_interarrival_mean=80.0,
    disconnect_prob=0.3,
    disconnect_time_mean=600.0,
    strict_staleness=True,
    seed=3,
)

#: Case name -> (SystemParams overrides, query workload).
CASES = {
    "all-pooled": (
        dict(aggregation=AggregationConfig(k_exact=0, start_in_pool=1.0)),
        HOTCOLD,
    ),
    "partial": (
        dict(aggregation=AggregationConfig(k_exact=7, start_in_pool=0.3)),
        UNIFORM,
    ),
    "roaming": (
        dict(
            uplink_timeout=15.0,
            roaming=RoamingConfig(
                topology=TopologyConfig(kind="path", n_cells=3), roam_prob=0.5
            ),
            aggregation=AggregationConfig(k_exact=4, start_in_pool=0.5),
        ),
        UNIFORM,
    ),
    "interleaved": (
        dict(
            disconnect_prob=0.5,
            disconnect_time_mean=150.0,
            aggregation=AggregationConfig(k_exact=5, start_in_pool=0.5),
        ),
        UNIFORM,
    ),
}


def observe(case, scheme):
    """The run's full raw snapshot, plus its promotions in wake order as
    ``(time, seeded)`` pairs (a seeded member wakes without a policy)."""
    overrides, workload = CASES[case]
    model = SimulationModel(SystemParams(**{**BASE, **overrides}), workload, scheme)
    pool = model.population
    promote = pool._promote
    wakes = []

    def recording(member, now):
        wakes.append((now, member.policy is None))
        return promote(member, now)

    pool._promote = recording
    raw = model.run().raw
    return dict(sorted(raw.items())), wakes


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_pool_golden(case, scheme):
    raw, wakes = observe(case, scheme)
    assert raw["pool.seeded"] > 0
    assert any(seeded for _, seeded in wakes)
    assert raw == load_golden()[case][scheme]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_interleaved_case_mixes_wake_kinds(scheme):
    """The pin covers both queues' heads taking turns: an absorbed
    member wakes before some seeded member does."""
    _, wakes = observe("interleaved", scheme)
    kinds = [seeded for _, seeded in wakes]
    first_absorbed = kinds.index(False)
    assert True in kinds[first_absorbed:]


if __name__ == "__main__":
    table = {
        case: {scheme: observe(case, scheme)[0] for scheme in SCHEMES}
        for case in sorted(CASES)
    }
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
