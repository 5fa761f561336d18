"""Shared fixtures for scheme policy tests: fake contexts, tiny databases."""

import pytest

from repro.cache import CacheEntry, ClientCache
from repro.db import Database
from repro.schemes import ClientSession
from repro.sim import SystemParams


class FakeClientCtx:
    """Duck-typed client context capturing a policy's outgoing actions."""

    def __init__(self, capacity=10):
        self.cache = ClientCache(capacity)
        self.tlb = 0.0
        self.sent_tlbs = []
        self.check_requests = []
        self.drops = 0

    def send_tlb(self, tlb):
        self.sent_tlbs.append(tlb)

    def send_check_request(self, entries, size_bits=None):
        self.check_requests.append((list(entries), size_bits))

    def note_cache_drop(self):
        self.drops += 1

    def cache_items(self, *pairs):
        """Insert (item, ts) pairs as cache entries."""
        for item, ts in pairs:
            self.cache.insert(CacheEntry(item=item, version=1, ts=ts))


@pytest.fixture
def ctx():
    return FakeClientCtx()


@pytest.fixture
def session_of(ctx, params):
    """``session_of(policy)``: a :class:`ClientSession` over *policy* on
    the fake context's cache and upload logs, starting at its ``Tlb``."""

    def make(policy):
        return ClientSession(
            policy,
            ctx.cache,
            params,
            send_tlb=ctx.send_tlb,
            send_check_request=ctx.send_check_request,
            note_cache_drop=ctx.note_cache_drop,
            start_tlb=ctx.tlb,
        )

    return make


@pytest.fixture
def params():
    # Small but paper-shaped: L=20, w=10 -> window 200 s.
    return SystemParams(
        simulation_time=1000.0,
        n_clients=2,
        db_size=64,
        buffer_fraction=0.2,
        seed=0,
    )


@pytest.fixture
def db():
    return Database(64)
