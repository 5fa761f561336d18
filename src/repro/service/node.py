"""The asyncio cache node: L1 over L2, IR-certified, failure-honest.

One :class:`CacheNode` is one process's cache client.  Its L1 is the
*same* :class:`repro.cache.ClientCache` (holding
:class:`~repro.service.swr.ServiceEntry` rows) and its certification
brain is the *same* scheme policy the simulator validated, driven
through :class:`repro.schemes.session.ClientSession`.  Answers come from
three rungs, best first:

1. **certified L1 hit** — the entry survived every report the scheme
   processed; served unflagged (the strict-staleness oracle analog holds
   by construction: conviction needs an update in ``(ts, Tlb]``).
2. **L2 fetch** — on a miss, or whenever L1 cannot be certified right
   now (salvage pending, suspect entry).  Runs under the full robustness
   sandwich: per-attempt deadline, retry/backoff+jitter, circuit
   breaker.
3. **flagged stale serve** — L2 down *and* an entry exists: serve it
   marked ``stale=True`` (SWR-style) when the config allows, else raise
   :class:`~repro.service.errors.NodeDegraded`.

IR loss maps onto the paper's ladder (see :mod:`repro.service.degrade`):
the watchdog freezes ``Tlb`` and flips the node to ``DISCONNECTED``; the
next report runs the scheme's salvage (window coverage, ``TS(Bn) <=
Tlb``, Tlb upload, checking) instead of a blind purge.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Coroutine, Dict, List, Optional, Union

from ..cache import ClientCache
from ..des.rng import RandomStream
from ..schemes.base import Scheme
from ..schemes.registry import get_scheme
from ..schemes.session import ClientSession, SessionOutcome
from .breaker import BreakerConfig, BreakerState, CircuitBreaker
from .broker import DEFAULT_SUBSCRIPTION_DEPTH, Subscription
from .clock import Clock, with_deadline
from .degrade import DegradationTracker, NodeState
from .errors import (
    BackendUnavailable,
    CircuitOpenError,
    DeadlineExceeded,
    NodeDegraded,
)
from .interfaces import FetchResult, IRBroker, L2Backend
from .metrics import HealthReport, NodeMetrics
from .params import ServiceParams
from .retry import RetryConfig, call_with_retry
from .swr import ServiceEntry, SWRConfig

__all__ = ["Answer", "CacheNode", "NodeConfig"]

#: Turns a raw :class:`FetchResult` into the value the caller wants
#: (the ``@node.cached`` decorator's function, partially applied).
Materializer = Callable[[FetchResult], Awaitable[object]]

#: L2 failures the degradation ladder absorbs.
_L2_FAILURES = (DeadlineExceeded, BackendUnavailable, CircuitOpenError)

#: Reports silent for more than this many broadcast intervals flip the
#: node to ``DISCONNECTED``.
LAG_INTERVALS = 2.5
#: How many broadcast intervals a scheme salvage may stay pending before
#: the session's validation-timeout path runs (the simulator's watchdog
#: budget).
VALIDATION_TIMEOUT_INTERVALS = 2.0


@dataclass(frozen=True)
class NodeConfig:
    """One node's robustness budget."""

    #: Overall per-query budget for waiting on certification.
    deadline: float = 1.0
    retry: RetryConfig = field(default_factory=RetryConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Stale-while-revalidate timers; ``None`` disables SWR (entries
    #: then live until IR invalidation or LRU eviction, as in the paper).
    swr: Optional[SWRConfig] = None
    #: Serve flagged stale answers when degraded (False = strict mode:
    #: raise :class:`NodeDegraded` instead).
    serve_stale_when_degraded: bool = True


@dataclass(frozen=True)
class Answer:
    """One served query."""

    item: int
    value: object
    version: int
    #: Coherence bound: the answer reflects all updates up to this time.
    ts: float
    #: The node's ``Tlb`` at serve time (the certification horizon).
    tlb: float
    #: True only for SWR-stale or degraded serves — never silently.
    stale: bool
    #: Age of information: ``now - ts`` at serve time.
    age: float
    #: Which rung served it: l1 / l1-swr / l2 / l1-degraded.
    source: str


class CacheNode:
    """See the module docstring; construct, ``await start()``, ``get()``."""

    def __init__(
        self,
        scheme: Union[str, Scheme],
        params: ServiceParams,
        *,
        backend: L2Backend,
        broker: IRBroker,
        clock: Clock,
        config: Optional[NodeConfig] = None,
        client_id: int = 0,
    ) -> None:
        self.scheme: Scheme = get_scheme(scheme) if isinstance(scheme, str) else scheme
        self.params = params
        self.backend = backend
        self.broker = broker
        self.clock = clock
        self.config = config or NodeConfig()
        self.client_id = client_id
        self.cache = ClientCache(params.cache_capacity)
        self.metrics = NodeMetrics()
        self.state = DegradationTracker(self.metrics)
        self.session = ClientSession(
            self.scheme.make_client_policy(params, client_id),
            self.cache,
            params,
            send_tlb=self._on_policy_send_tlb,
            send_check_request=self._on_policy_send_check,
            note_cache_drop=lambda: self.metrics.incr("cache.full_drops"),
        )
        self.breaker = CircuitBreaker(
            self.config.breaker, name="l2", on_transition=self._on_breaker_transition
        )
        self._jitter = RandomStream(params.seed, f"service/jitter/{client_id}")
        self._ready = asyncio.Event()
        self._ready.set()
        self._sub: Optional[Subscription] = None
        self._tasks: List["asyncio.Task[None]"] = []
        self._materializers: Dict[int, Materializer] = {}
        self._last_report_at: Optional[float] = None
        self._validation_watchdog_armed = False
        self._started = False

    @property
    def served_stale(self) -> int:
        """Answers served flagged stale: SWR-stale plus degraded serves."""
        metrics = self.metrics
        return metrics.get("swr.stale_serves") + metrics.get("get.degraded_serves")

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._last_report_at = self.clock.now()
        self._sub = self.broker.broker_subscribe(DEFAULT_SUBSCRIPTION_DEPTH)
        self._spawn(self._ir_loop(), name="ir-loop")
        self._spawn(self._watchdog(), name="watchdog")

    async def stop(self) -> None:
        if self._sub is not None:
            self._sub.close()
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._started = False

    async def __aenter__(self) -> "CacheNode":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    def _spawn(self, coro: Coroutine[object, object, None], name: str) -> None:
        task = asyncio.get_running_loop().create_task(
            coro, name=f"node-{self.client_id}-{name}"
        )
        self._tasks.append(task)
        task.add_done_callback(self._reap)

    def _reap(self, task: "asyncio.Task[None]") -> None:
        if task in self._tasks:
            self._tasks.remove(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            # Background failures surface in metrics, never as unheard
            # "exception was never retrieved" warnings.
            self.metrics.incr("tasks.failed")
            self.metrics.record_transition(
                self.clock.now(), "task", task.get_name(), "failed", repr(exc)
            )

    # -- IR intake ---------------------------------------------------------

    async def _ir_loop(self) -> None:
        sub = self._sub
        assert sub is not None
        while True:
            report = await sub.next_report()
            if report is None:
                return
            now = self.clock.now()
            self._last_report_at = now
            if sub.dropped > self.metrics.get("ir.shed"):
                self.metrics.incr("ir.shed", sub.dropped - self.metrics.get("ir.shed"))
            if not self.state.is_live:
                self.metrics.incr("ir.reconnects")
                if self.state.state is NodeState.DISCONNECTED:
                    # The feed is back: reports missed while down are
                    # expected — run the scheme's reconnect path, then let
                    # this very report salvage (or honestly purge) the
                    # cache.  While SALVAGING the feed never stopped: a
                    # reconnect there would reset the scheme's upload
                    # latch and re-upload on every report.
                    self.session.reconnect(now)
            outcome = self.session.offer_report(report, now)
            self.metrics.incr(f"ir.{outcome.value}")
            if outcome is SessionOutcome.READY:
                self.state.to(NodeState.LIVE, now, reason="report certified")
                self._ready.set()
            elif outcome is SessionOutcome.PENDING:
                self.state.to(NodeState.SALVAGING, now, reason="salvage in flight")
                self._ready.clear()
                if not self._validation_watchdog_armed:
                    self._validation_watchdog_armed = True
                    self._spawn(
                        self._validation_watchdog(), name="validation-watchdog"
                    )

    async def _watchdog(self) -> None:
        interval = self.params.broadcast_interval
        budget = LAG_INTERVALS * interval
        while True:
            await self.clock.sleep(interval / 2)
            last = self._last_report_at
            now = self.clock.now()
            if last is None or self.state.state is NodeState.DISCONNECTED:
                continue
            if now - last > budget:
                # Record Tlb and degrade: the paper's disconnection path.
                self.metrics.incr("ir.feed_losses")
                self.state.to(
                    NodeState.DISCONNECTED,
                    now,
                    reason=f"no report for {now - last:g}s",
                    tlb=self.session.tlb,
                )
                self.session.disconnect(now)
                # The cache stays servable: everything in it is certified
                # as of the frozen Tlb, which is exactly what the oracle
                # judges against.

    async def _validation_watchdog(self) -> None:
        """One timer for every pending episode, armed once: a fresh
        episode beginning while it sleeps restarts the timing instead of
        stacking a second timer (and a second stream of re-uploads)."""
        timeout = VALIDATION_TIMEOUT_INTERVALS * self.params.broadcast_interval
        session = self.session
        try:
            while session.pending:
                episode = session.episode
                await self.clock.sleep(timeout)
                if not session.pending or session.episode != episode:
                    continue
                now = self.clock.now()
                self.metrics.incr("validation.timeouts")
                if not session.validation_timeout(now):
                    # The scheme gave up: cache dropped, resync at next report.
                    self.state.to(NodeState.LIVE, now, reason="salvage abandoned")
                    self._ready.set()
                    return
        finally:
            self._validation_watchdog_armed = False

    # -- uplink callbacks (invoked synchronously by the scheme policy) -----

    def _on_policy_send_tlb(self, tlb: float) -> None:
        self.metrics.incr("uplink.tlb")
        self._spawn(self._push_tlb(tlb), name="tlb-upload")

    def _on_policy_send_check(
        self, entries: object, size_bits: Optional[float]
    ) -> None:
        self.metrics.incr("uplink.check")
        pairs = [
            (int(item), float(ts))
            for item, ts in entries  # type: ignore[union-attr]
        ]
        self._spawn(self._push_check(pairs), name="check-upload")

    async def _push_tlb(self, tlb: float) -> None:
        try:
            await call_with_retry(
                self.clock,
                lambda: self.backend.backend_push_tlb(self.client_id, tlb),
                retry=self.config.retry,
                breaker=self.breaker,
                stream=self._jitter,
            )
        except _L2_FAILURES:
            # Lost upload: the validation watchdog re-sends, exactly as
            # the simulator's retry layer would.
            self.metrics.incr("uplink.tlb_failures")

    async def _push_check(self, entries: List[tuple[int, float]]) -> None:
        try:
            reply = await call_with_retry(
                self.clock,
                lambda: self.backend.backend_check(self.client_id, entries),
                retry=self.config.retry,
                breaker=self.breaker,
                stream=self._jitter,
            )
        except _L2_FAILURES:
            self.metrics.incr("uplink.check_failures")
            return
        now = self.clock.now()
        if self.session.validity_reply(list(reply.invalid_items), reply.certified_at):
            self.metrics.incr("uplink.check_replies")
            self.state.to(NodeState.LIVE, now, reason="validity reply applied")
            self._ready.set()

    def _on_breaker_transition(
        self, now: float, old: BreakerState, new: BreakerState
    ) -> None:
        self.metrics.record_transition(now, "breaker.l2", old.value, new.value)
        self.metrics.incr(f"breaker.{new.value}")

    # -- queries -----------------------------------------------------------

    async def get(
        self, item: int, materializer: Optional[Materializer] = None
    ) -> Answer:
        """Serve one item along the degradation ladder (see module doc)."""
        if self.session.pending:
            # L1 is momentarily uncertified (salvage in flight): give
            # certification a bounded chance before going to L2.
            try:
                await with_deadline(
                    self.clock, self._ready.wait(), self.config.deadline
                )
            except DeadlineExceeded:
                self.metrics.incr("get.certify_timeouts")
        now = self.clock.now()
        entry = self._lookup_live(item, now)
        if (
            entry is not None
            and not self.session.pending
            and item not in self.cache.unreconciled
        ):
            return self._serve_l1(entry, now)
        # Miss, suspect entry, or certification still pending: the L2
        # fetch is authoritative regardless of IR state.
        try:
            fetched = await call_with_retry(
                self.clock,
                lambda: self.backend.backend_fetch(item),
                retry=self.config.retry,
                breaker=self.breaker,
                stream=self._jitter,
            )
        except _L2_FAILURES as exc:
            self.metrics.incr("get.l2_failures")
            if entry is not None:
                if self.config.serve_stale_when_degraded:
                    return self._serve_degraded(entry)
                raise NodeDegraded(
                    f"item {item}: cannot certify L1 and L2 is unavailable"
                ) from exc
            raise
        return await self._install(item, fetched, materializer)

    def cached(
        self, item: Union[int, Callable[..., int]]
    ) -> Callable[[Callable[..., Awaitable[object]]], Callable[..., Awaitable[object]]]:
        """Decorator façade: the function *materializes* a fetched item.

        ``item`` is the item id (or a function of the call arguments
        that yields it); the decorated coroutine receives the
        authoritative :class:`FetchResult` first, then the original
        arguments, and returns the value to cache and serve::

            @node.cached(item=lambda user_id: user_id % 1000)
            async def profile(fetched: FetchResult, user_id: int) -> dict:
                return {"user": user_id, "rev": fetched.version}

        Cache hits skip the function entirely; background SWR refreshes
        re-run it with the fresh fetch.
        """

        def decorate(
            fn: Callable[..., Awaitable[object]]
        ) -> Callable[..., Awaitable[object]]:
            @functools.wraps(fn)
            async def wrapper(*args: object, **kwargs: object) -> object:
                key = item(*args, **kwargs) if callable(item) else item

                async def materialize(fetched: FetchResult) -> object:
                    return await fn(fetched, *args, **kwargs)

                self._materializers[key] = materialize
                answer = await self.get(key, materializer=materialize)
                return answer.value

            return wrapper

        return decorate

    # -- serving rungs -----------------------------------------------------

    def _lookup_live(self, item: int, now: float) -> Optional[ServiceEntry]:
        entry = self.cache.lookup(item)
        if entry is None:
            return None
        assert isinstance(entry, ServiceEntry)
        if entry.is_expired(now):
            # SWR hard deadline: delete on sight, count as a miss.
            self.cache.invalidate(item)
            self.metrics.incr("swr.expired")
            return None
        return entry

    def _answer(
        self, entry: ServiceEntry, now: float, stale: bool, source: str
    ) -> Answer:
        ts = self.cache.effective_ts(entry)
        age = max(0.0, now - ts)
        self.metrics.observe_age(age)
        return Answer(
            item=entry.item,
            value=entry.value,
            version=entry.version,
            ts=ts,
            tlb=self.session.tlb,
            stale=stale,
            age=age,
            source=source,
        )

    def _serve_l1(self, entry: ServiceEntry, now: float) -> Answer:
        self.metrics.incr("get.hits")
        swr = self.config.swr
        if swr is not None and not entry.is_fresh(now):
            # SWR-stale: serve flagged, refresh in the background.
            self.metrics.incr("swr.stale_serves")
            self._schedule_refresh(entry)
            return self._answer(entry, now, stale=True, source="l1-swr")
        return self._answer(entry, now, stale=False, source="l1")

    def _serve_degraded(self, entry: ServiceEntry) -> Answer:
        now = self.clock.now()
        self.metrics.incr("get.degraded_serves")
        return self._answer(entry, now, stale=True, source="l1-degraded")

    async def _install(
        self, item: int, fetched: FetchResult, materializer: Optional[Materializer]
    ) -> Answer:
        self.metrics.incr("get.l2_fetches")
        value: object = fetched.value
        if materializer is not None:
            value = await materializer(fetched)
        now = self.clock.now()
        entry = ServiceEntry(
            item=item,
            version=fetched.version,
            ts=fetched.ts,
            value=value,
            fetched_at=now,
            swr=self.config.swr,
        )
        suspect = self.session.insert_fetched(entry)
        if suspect:
            self.metrics.incr("cache.suspect_inserts")
        return self._answer(entry, now, stale=False, source="l2")

    # -- SWR background refresh -------------------------------------------

    def _schedule_refresh(self, entry: ServiceEntry) -> None:
        if entry.refreshing:
            return
        entry.refreshing = True
        self._spawn(self._refresh(entry), name=f"swr-refresh-{entry.item}")

    async def _refresh(self, entry: ServiceEntry) -> None:
        item = entry.item
        try:
            fetched = await call_with_retry(
                self.clock,
                lambda: self.backend.backend_fetch(item),
                retry=self.config.retry,
                breaker=self.breaker,
                stream=self._jitter,
            )
        except _L2_FAILURES:
            # The entry keeps serving flagged-stale until hard expiry.
            self.metrics.incr("swr.refresh_failures")
            entry.refreshing = False
            return
        now = self.clock.now()
        if self.cache.peek(item) is not entry:
            # Invalidated or replaced while we fetched: discard.
            self.metrics.incr("swr.refresh_discarded")
            entry.refreshing = False
            return
        swr = self.config.swr
        assert swr is not None
        value: object = fetched.value
        materializer = self._materializers.get(item)
        if materializer is not None:
            value = await materializer(fetched)
        entry.refreshed(fetched.version, fetched.ts, value, now, swr)
        # Re-judge suspicion against the *new* coherence time: refresh
        # restores freshness but must not silently certify.
        if fetched.ts < self.session.tlb:
            self.cache.unreconciled.add(item)
        else:
            self.cache.unreconciled.discard(item)
        self.metrics.incr("swr.refreshes")

    # -- observability -----------------------------------------------------

    def health(self) -> HealthReport:
        """Snapshot of the degradation rung, breaker, and counters."""
        return HealthReport(
            state=self.state.state.value,
            tlb=self.session.tlb,
            last_report_at=self._last_report_at,
            pending_validation=self.session.pending,
            breakers={self.breaker.name: self.breaker.state.value},
            breaker_trips=self.breaker.trips,
            served_stale=self.served_stale,
            counters=self.metrics.snapshot(),
            transitions=len(self.metrics.transitions),
        )
