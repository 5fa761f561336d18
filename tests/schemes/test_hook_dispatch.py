"""Each report reaches one policy hook definition.

perfbench counts calls per definition: it wraps every ``on_report`` and
``build_report`` defined anywhere in the policy class tree, so a
definition that calls another through ``super()`` would count one
report twice.  These tests wrap the tree the same way and require that
every report offered to a session reaches at most one ``on_report``
definition (none when the session holds it), and that every server tick
reaches exactly one ``build_report`` definition.
"""

import functools
from collections import Counter

import pytest

from repro.net import FaultConfig
from repro.schemes import ClientSession, available_schemes
from repro.schemes.base import ClientPolicy, ServerPolicy
from repro.sim import HOTCOLD, SimulationModel, SystemParams


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class DispatchLog:
    """Definitions reached per offered report and per server tick."""

    def __init__(self):
        self.in_offer = None      # on_report definitions reached so far
        self.per_offer = Counter()
        self.tick_depth = 0
        self.per_tick = Counter()
        self._tick_hits = 0

    def wrap_offer(self, fn):
        @functools.wraps(fn)
        def offer(*args, **kwargs):
            self.in_offer = 0
            try:
                return fn(*args, **kwargs)
            finally:
                self.per_offer[self.in_offer] += 1
                self.in_offer = None

        return offer

    def wrap_on_report(self, fn):
        @functools.wraps(fn)
        def on_report(*args, **kwargs):
            assert self.in_offer is not None, "on_report called outside a session"
            self.in_offer += 1
            return fn(*args, **kwargs)

        return on_report

    def wrap_build_report(self, fn):
        @functools.wraps(fn)
        def build_report(*args, **kwargs):
            if self.tick_depth == 0:
                self._tick_hits = 0
            self.tick_depth += 1
            self._tick_hits += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.tick_depth -= 1
                if self.tick_depth == 0:
                    self.per_tick[self._tick_hits] += 1

        return build_report


@pytest.fixture
def dispatch(monkeypatch):
    log = DispatchLog()
    monkeypatch.setattr(
        ClientSession, "offer_report", log.wrap_offer(ClientSession.offer_report)
    )
    for base, attr, wrap in (
        (ClientPolicy, "on_report", log.wrap_on_report),
        (ServerPolicy, "build_report", log.wrap_build_report),
    ):
        for cls in _subclasses(base):
            if attr in vars(cls):
                monkeypatch.setattr(cls, attr, wrap(vars(cls)[attr]))
    return log


@pytest.mark.parametrize("scheme", sorted(available_schemes()))
def test_one_definition_per_report(dispatch, scheme):
    # Dozing clients and a lossy downlink make reports go uncovered, so
    # every scheme's salvage path (and the checking hold) runs too.
    params = SystemParams(
        simulation_time=3000.0,
        n_clients=20,
        db_size=200,
        buffer_fraction=0.1,
        think_time_mean=40.0,
        disconnect_prob=0.3,
        disconnect_time_mean=300.0,
        update_interarrival_mean=5.0,
        downlink_faults=FaultConfig(drop_prob=0.1),
        uplink_timeout=100.0,
        seed=3,
    )
    result = SimulationModel(params, HOTCOLD, scheme).run()
    assert set(dispatch.per_offer) <= {0, 1}
    assert dispatch.per_offer[1] > 0
    assert list(dispatch.per_tick) == [1]
    ticks = int(params.simulation_time / params.broadcast_interval)
    assert dispatch.per_tick[1] == ticks
    if scheme in ("checking", "gcore"):
        assert dispatch.per_offer[0] > 0  # reports held for a validity reply
    if scheme in ("afw", "aaw"):
        assert result.counter("adaptive.tlb_uploads") > 0
