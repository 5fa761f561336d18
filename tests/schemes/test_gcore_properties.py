"""Property-based safety test for GCORE grouped checking.

Collapsing per-item timestamps to group minima may over-invalidate but
must never under-invalidate: every truly stale cached item is always in
the server's invalid list.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.schemes import CheckingServerPolicy, group_of
from repro.sim import SystemParams

scenario = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 100_000),
        "n_items": st.integers(8, 60),
        "n_updates": st.integers(0, 80),
        "n_cached": st.integers(1, 20),
        "n_groups": st.integers(1, 12),
    }
)


@settings(max_examples=80, deadline=None)
@given(scenario)
def test_grouped_check_never_misses_a_stale_item(cfg):
    rnd = random.Random(cfg["seed"])
    db = Database(cfg["n_items"])
    t = 0.0
    for _ in range(cfg["n_updates"]):
        t += rnd.uniform(0.1, 3.0)
        db.apply_update(rnd.randrange(cfg["n_items"]), t)
    now = t + 1.0

    params = SystemParams(
        simulation_time=10.0, n_clients=1, db_size=cfg["n_items"]
    )
    server = CheckingServerPolicy(params=params, db=db)

    # A client cache: items with their true coherence times.
    cached = {}
    for _ in range(cfg["n_cached"]):
        item = rnd.randrange(cfg["n_items"])
        cached[item] = rnd.uniform(0.0, now)

    # The GCORE client collapses timestamps to per-group minima.
    group_min = {}
    for item, ts in cached.items():
        g = group_of(item, cfg["n_groups"])
        group_min[g] = min(group_min.get(g, ts), ts)
    payload = [
        (item, group_min[group_of(item, cfg["n_groups"])]) for item in cached
    ]

    invalid, _certified, _bits = server.on_check_request(None, 0, payload, now)

    for item, coherence in cached.items():
        truly_stale = coherence < float(db.last_update[item]) <= now
        if truly_stale:
            assert item in invalid  # safety: over- but never under-invalidate
