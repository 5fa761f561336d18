"""The mobile client actor: queries, cache, disconnections, reports.

Per Section 4 of the paper each client loops: think (exponential), issue
a read-one-item query, listen to the next invalidation report, answer
from cache when the report proves the copy valid, else fetch via the
uplink.  "The arrival of a new query is separated from the completion of
the previous query by either an exponentially distributed think time or
an exponentially distributed disconnection time": with probability ``p``
the inter-query gap is a disconnection (during which every report is
missed) instead of think time.  This per-cycle reading is the one
consistent with the paper's absolute throughput levels (see DESIGN.md).

The protocol itself runs in one :class:`~repro.schemes.ClientSession`
(report intake, validity replies, validation timeouts, the reconnect,
promote, hand-off and crash resets), which is also the scheme's policy
context.  The client is transport around it: it charges energy, sends
the uplink messages the session asks for, and wakes the query loop on
the session's verdict.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cache import CacheEntry, ClientCache
from ..des import Environment, Event
from ..des.monitor import MetricSet
from ..net import Channel, Message, MessageKind, SERVER_ID
from ..reports.sizes import checking_upload_bits, nack_upload_bits, tlb_upload_bits
from ..schemes.session import ClientSession, SessionOutcome
from . import metrics as m
from .energy import ENERGY_RX, ENERGY_TX

# Hot-branch kind constants: skip the enum attribute lookups in the
# per-delivery dispatch below.
_IR = MessageKind.INVALIDATION_REPORT
_VALIDITY = MessageKind.VALIDITY_REPORT
_DATA = MessageKind.DATA_ITEM
_READY = SessionOutcome.READY
_PENDING = SessionOutcome.PENDING
_LAGGED = SessionOutcome.LAGGED


class MobileClient:
    """One mobile host in the cell."""

    def __init__(
        self,
        env: Environment,
        client_id: int,
        params,
        policy,
        query_pattern,
        downlink: Channel,
        uplink: Channel,
        metrics: MetricSet,
        streams,
        update_log=None,
        ir_channel: Channel = None,
        query_log=None,
        timeseries=None,
        cell_id: int = 0,
        pool=None,
        resume=None,
    ):
        self.env = env
        self.client_id = client_id
        #: Which cell's base station this client is associated with.
        self.cell_id = cell_id
        self.params = params
        self.query_pattern = query_pattern
        self.downlink = downlink
        self.uplink = uplink
        self.metrics = metrics
        self.update_log = update_log
        self.query_log = query_log
        self.timeseries = timeseries
        self.cache = ClientCache(params.cache_capacity)
        self.connected = True
        self._watchdog_armed = False
        #: Roaming hook installed by the multi-cell model (None at N=1 —
        #: an attribute test per wake-up, nothing more).  Called with
        #: ``(client, now)`` when the client wakes from a disconnection.
        self._roam = None
        #: Clock error injected by the chaos layer (see ClockModel):
        #: defaults are a perfect clock and are exactly free — ``d * 1.0``
        #: is bit-identical in IEEE arithmetic.
        self._clock_rate = 1.0
        self._clock_skew = 0.0

        self._ready_waiters: Optional[Event] = None
        self._data_waits: Dict[int, Event] = {}

        # Hot-path metric handles, resolved once (docs/PERFORMANCE.md):
        # every query/IR/fetch used to pay a string-keyed dict lookup.
        bind = metrics.bind_counter
        self._m_queries_generated = bind(m.QUERIES_GENERATED)
        self._m_queries_answered = bind(m.QUERIES_ANSWERED)
        self._m_items_served = bind(m.ITEMS_SERVED)
        self._m_cache_hits = bind(m.CACHE_HITS)
        self._m_cache_misses = bind(m.CACHE_MISSES)
        self._m_stale_hits = bind(m.STALE_HITS)
        self._m_disconnections = bind(m.DISCONNECTIONS)
        self._m_uplink_validation_bits = bind(m.UPLINK_VALIDATION_BITS)
        self._m_uplink_request_bits = bind(m.UPLINK_REQUEST_BITS)
        self._m_energy_tx = bind(ENERGY_TX)
        self._m_energy_rx = bind(ENERGY_RX)
        self._m_latency_hist = metrics.bind_histogram(m.QUERY_LATENCY, base=0.1)
        # Per-bit energy costs hoisted out of the per-message charge path.
        self._tx_nj_per_bit = params.energy.tx_nj_per_bit
        self._rx_nj_per_bit = params.energy.rx_nj_per_bit

        self._think_stream = streams.stream(f"client-{client_id}/think")
        self._query_stream = streams.stream(f"client-{client_id}/query")
        self._disc_stream = streams.stream(f"client-{client_id}/disconnect")
        #: Jittered-backoff stream; only created when the retry layer is
        #: on, keeping the pristine configuration untouched.
        self._retry_stream = (
            streams.stream(f"client-{client_id}/retry")
            if params.retries_enabled
            else None
        )

        if resume is None and params.warm_start:
            warm_stream = streams.stream(f"client-{client_id}/warm")
            for item in query_pattern.warm_fill(warm_stream, params.cache_capacity):
                # Version 0 at ts 0: coherent with the untouched database.
                self.cache.insert(CacheEntry(item=item, version=0, ts=0.0))

        #: Population pool this client may be absorbed into on a long
        #: doze (None with aggregation off — one attribute test per doze).
        self._pool = pool
        self._resumed = resume is not None
        # Clients start coherent: at t=0 the cache matches the database.
        tlb, report_cell, report_epoch = 0.0, cell_id, 0
        if resume is not None:
            # Promoted from the population pool: start mid-doze with the
            # reconstructed stratum cache; :meth:`wake_from_pool` then
            # runs the ordinary reconnect transition.
            self.cache = resume.cache
            tlb = resume.tlb
            report_cell, report_epoch = resume.report_cell, resume.report_epoch
            self._clock_rate = resume.clock_rate
            self._clock_skew = resume.clock_skew
            self.connected = False
        la = params.loss_adaptation
        self.session = ClientSession(
            policy,
            self.cache,
            params,
            metrics=metrics,
            send_tlb=self._send_tlb,
            send_check_request=self._send_check_request,
            note_cache_drop=bind(m.CACHE_DROPS).add,
            on_gap=self._send_ir_nack if la is not None and la.nack else None,
            start_tlb=tlb,
            cell=report_cell,
            epoch=report_epoch,
        )
        self._offer_report = self.session.offer_report

        self._ir_channel = ir_channel
        downlink.attach(self._on_downlink, dest=client_id, listening=resume is None)
        if ir_channel is not None:
            ir_channel.attach(
                self._on_downlink, dest=client_id, listening=resume is None
            )
        env.process(self._query_loop(), name=f"client-{client_id}-query")

    def __repr__(self):
        state = "up" if self.connected else "down"
        return f"<MobileClient {self.client_id} {state} tlb={self.tlb}>"

    @property
    def tlb(self) -> float:
        """The session's last-heard report timestamp (the paper's ``Tlb``)."""
        return self.session.tlb

    # -- uplink for the session ------------------------------------------------

    def _upload(self, kind: MessageKind, size_bits: float, payload):
        """Charge the radio and send one message to the server."""
        self._m_energy_tx.add(self._tx_nj_per_bit * size_bits)
        self.uplink.send(
            Message(
                kind=kind,
                size_bits=size_bits,
                src=self.client_id,
                dest=SERVER_ID,
                payload=payload,
            )
        )

    def _send_tlb(self, tlb: float):
        """Upload the last-heard timestamp (adaptive schemes)."""
        size = tlb_upload_bits(self.params.timestamp_bits)
        self._m_uplink_validation_bits.add(size)
        self._upload(MessageKind.TLB_UPLOAD, size, tlb)

    def _send_check_request(self, entries, size_bits: Optional[float]):
        """Upload cached (item, timestamp) pairs for validity checking."""
        if size_bits is None:
            size_bits = checking_upload_bits(
                len(entries), self.params.db_size, self.params.timestamp_bits
            )
        self._m_uplink_validation_bits.add(size_bits)
        self._upload(MessageKind.CHECK_REQUEST, size_bits, list(entries))

    # -- chaos-facing API (repro.chaos.ChaosInjector) ---------------------------

    def set_clock(self, clock):
        """Install this client's :class:`~repro.chaos.ClockModel` (None =
        perfect clock, the default)."""
        if clock is None:
            return
        self._clock_skew = clock.start_offset
        self._clock_rate = clock.rate

    def crash(self, now: float):
        """Instant reboot with all volatile state lost.

        The cache, ``Tlb``, report bookkeeping and any in-flight
        validation die; a fresh :class:`ClientCache` also resets the
        certification floor (``drop_all`` deliberately does not).  The
        query loop itself survives — a rebooted host resumes its user —
        and in-flight data waiters are kept so an already-transmitted
        response still terminates its query (the value is inserted
        non-suspect against ``tlb = 0`` and is coherent at serve time).
        """
        self.cache = ClientCache(self.params.cache_capacity)
        # The policy's per-episode latches must not outlive the reboot
        # (a pre-crash checking upload's reply must not be awaited).
        self.session.reboot(self.cache, now)
        self._fire_ready()

    # -- roaming (driven by repro.sim.multicell.MultiCellModel) -----------------

    def hand_off(self, cell_id: int, downlink: Channel, uplink: Channel,
                 ir_channel: Optional[Channel] = None):
        """Re-associate with *cell_id*'s base station.

        The radio re-attaches to the new cell's channels (keeping its
        doze/wake state); cache, ``Tlb`` and all certifications travel
        untouched — timestamps are global, so the new cell's reports
        judge them honestly.  Report bookkeeping resets to the
        "just (re)connected" state: the first report heard here adopts
        the new cell's (cell, epoch) identity, and a gap is expected
        rather than evidence of wireless loss.  Any exchange in flight
        toward the old cell is stranded; the retry layer re-issues it on
        the new uplink (roaming therefore requires ``uplink_timeout``).
        """
        self.downlink.detach(self._on_downlink)
        if self._ir_channel is not None:
            self._ir_channel.detach(self._on_downlink)
        self.downlink = downlink
        self.uplink = uplink
        self._ir_channel = ir_channel
        downlink.attach(
            self._on_downlink, dest=self.client_id, listening=self.connected
        )
        if ir_channel is not None:
            ir_channel.attach(
                self._on_downlink, dest=self.client_id, listening=self.connected
            )
        self.cell_id = cell_id
        self.session.hand_off()

    # -- population pool (driven by repro.sim.population) -----------------------

    def wake_from_pool(self, now: float):
        """Complete a promotion: the exact model's doze-wake sequence.

        Mirrors the reconnect tail of :meth:`_inter_query_gap` — roam
        check first (while still down, as on an ordinary wake), then
        radio up and the policy's promotion hook (which defaults to the
        reconnect reset).  The query loop itself was started by
        ``__init__`` and resumes at the post-doze instruction.
        """
        if self._roam is not None:
            self._roam(self, now)
        self.connected = True
        self._set_listening(True)
        self.session.promote(now)

    def _charge_rx(self, bits: float):
        self._m_energy_rx.add(self._rx_nj_per_bit * bits)

    # -- downlink handling -----------------------------------------------------

    def _set_listening(self, on: bool):
        """Doze/wake the radio: gate broadcast dispatch at the channel.

        While dozing, the channel skips this client entirely (no handler
        call, no fault judgment) — the ``connected`` check in
        :meth:`_on_downlink` stays as defence in depth.
        """
        self.downlink.set_listening(self._on_downlink, on)
        if self._ir_channel is not None:
            self._ir_channel.set_listening(self._on_downlink, on)

    def _on_downlink(self, msg: Message, now: float):
        if not self.connected:
            return
        if msg.corrupted:
            self._on_corrupted(msg)
            return
        if msg.kind is _IR:
            # Hottest branch in the cell (every listener, every tick):
            # charge inline and act on the session's verdict.
            self._m_energy_rx.add(self._rx_nj_per_bit * msg.size_bits)
            outcome = self._offer_report(msg.payload, now)
            if outcome is _READY:
                waiter = self._ready_waiters
                if waiter is not None:
                    self._ready_waiters = None
                    waiter.succeed()
            elif outcome is _PENDING:
                self._arm_validation_watchdog()
            elif outcome is _LAGGED and not self.cache.unreconciled:
                # A lagging cell: Tlb already certifies past this report,
                # so queries may proceed unless an unreconciled fetch
                # needs a report.
                self._fire_ready()
        elif msg.kind is _VALIDITY and msg.dest == self.client_id:
            invalid, certified_at = msg.payload
            # The session drops a reply to a check from a previous
            # connection episode (we dozed after uploading and woke
            # before its delivery).
            if self.session.validity_reply(invalid, certified_at):
                self._charge_rx(msg.size_bits)
                self._fire_ready()
        elif msg.kind is _DATA:
            payload = msg.payload
            if payload.get("pushed"):
                self._on_pushed_item(msg, payload)
            elif self.client_id in payload["requesters"]:
                self._charge_rx(msg.size_bits)
                waiter = self._data_waits.pop(payload["item"], None)
                if waiter is not None:
                    waiter.succeed(payload)

    def _on_corrupted(self, msg: Message):
        """A frame arrived with bit errors: undecodable, treat as lost.

        A corrupted report is indistinguishable from a missed one — the
        gap shows up in the next decodable report's timestamp and the
        scheme's ordinary coverage/salvage logic recovers.  Corrupted
        data items and validity reports are recovered by the retry
        layer's timeouts.
        """
        if msg.kind is MessageKind.INVALIDATION_REPORT:
            # The radio listened either way; the bits were garbage.
            self._charge_rx(msg.size_bits)
            self.metrics.counter(m.IR_CORRUPTED).add()

    def _send_ir_nack(self, n_missed: int):
        """Upload a loss hint: *n_missed* reports provably lost on the air.

        The server's loss estimator aggregates these into the widened
        ``w_eff``; the hint rides the checking priority class and is
        priced like a ``Tlb`` upload.
        """
        size = nack_upload_bits(self.params.timestamp_bits)
        self._m_uplink_validation_bits.add(size)
        self.metrics.counter(m.NACK_BITS).add(size)
        self.metrics.counter(m.NACKS_SENT).add()
        self._upload(MessageKind.IR_NACK, size, n_missed)

    def _on_pushed_item(self, msg: Message, payload: dict):
        """Publishing mode: refresh or prefetch a broadcast item.

        A pushed item refreshes an existing cache entry, satisfies a
        pending fetch for the same item, or prefetches into the cache
        when the item lies in this client's hot query region — all
        without uplink traffic.
        """
        item = payload["item"]
        waiter = self._data_waits.pop(item, None)
        interested = (
            waiter is not None
            or item in self.cache
            or (
                self.query_pattern.hot is not None
                and self.query_pattern.hot.contains(item)
            )
        )
        if not interested:
            return
        self._charge_rx(msg.size_bits)
        self.session.insert_fetched(
            CacheEntry(item=item, version=payload["version"], ts=payload["coherent_ts"])
        )
        self.metrics.counter(m.PUBLISH_REFRESHES).add()
        if waiter is not None:
            waiter.succeed(payload)

    def _fire_ready(self):
        if self._ready_waiters is not None:
            self._ready_waiters.succeed()
            self._ready_waiters = None

    def _wait_cache_ready(self) -> Event:
        """Event firing at the next report/reply that certifies the cache."""
        if self._ready_waiters is None:
            self._ready_waiters = self.env.event()
        return self._ready_waiters

    # -- query processing ----------------------------------------------------------

    def _inter_query_gap(self):
        """Think or disconnect between queries (the paper's alternation)."""
        env = self.env
        params = self.params
        if self._disc_stream.bernoulli(params.disconnect_prob):
            self.connected = False
            self._set_listening(False)
            self._m_disconnections.add()
            self.session.disconnect(env.now)
            doze = (
                self._disc_stream.exponential(params.disconnect_time_mean)
                * self._clock_rate
            )
            pool = self._pool
            if pool is not None and pool.try_absorb(self, doze):
                # Absorbed into the population pool: shed the radio and
                # end this actor.  The pool's seeded wake promotes a
                # reconstructed replacement at exactly ``now + doze`` —
                # the instant this sleep would have returned.
                self.downlink.detach(self._on_downlink)
                if self._ir_channel is not None:
                    self._ir_channel.detach(self._on_downlink)
                return True
            yield env.sleep(doze)
            if self._roam is not None:
                # Multi-cell: a waking client may find itself under a
                # different base station (it moved while dozing).
                self._roam(self, env.now)
            self.connected = True
            self._set_listening(True)
            self.session.reconnect(env.now)
        else:
            # Locally timed waits run on the (possibly drifting) local
            # clock; rate 1.0 multiplies out bit-identically.
            yield env.sleep(
                self._think_stream.exponential(params.think_time_mean)
                * self._clock_rate
            )

    def _query_loop(self):
        env = self.env
        params = self.params
        if self._clock_skew > 0.0 and not self._resumed:
            # Clock skew shows up as a phase offset of the client's local
            # activity (protocol timestamps all originate at the server).
            # Chaos-only: a perfect clock schedules no event here.
            yield env.sleep(self._clock_skew)
        first = self._resumed
        while True:
            if first:
                # Promoted mid-cycle: the doze that absorbed this client
                # IS the inter-query gap, so go straight to the query —
                # the instruction the exact model resumes at after its
                # doze sleep returns.
                first = False
            elif (yield from self._inter_query_gap()):
                # Absorbed into the population pool: this actor is done.
                return
            started = env.now
            self._m_queries_generated.add()
            # Listen to the next invalidation report before answering
            # (Section 2), waiting out any pending validation.
            yield self._wait_cache_ready()
            hits = 0
            for _ in range(params.items_per_query):
                item = self.query_pattern.pick(self._query_stream)
                hits += yield from self._access_item(item)
                self._m_items_served.add()
            self._m_queries_answered.add()
            if self.timeseries is not None:
                self.timeseries["answered"].record(env.now)
            latency = env.now - started
            self._m_latency_hist.observe(latency)
            if self.query_log is not None:
                from .querylog import QueryRecord

                self.query_log.record(
                    QueryRecord(
                        client_id=self.client_id,
                        started=started,
                        answered=env.now,
                        items=params.items_per_query,
                        hits=hits,
                        misses=params.items_per_query - hits,
                    )
                )

    def _access_item(self, item: int):
        """Serve one item access; returns 1 for a cache hit, 0 for a miss."""
        entry = self.cache.lookup(item)
        if entry is not None:
            self._m_cache_hits.add()
            if self.timeseries is not None:
                self.timeseries["hits"].record(self.env.now)
            if (
                self.update_log is not None
                and self.update_log.updated_in(
                    item, after=entry.ts, up_to=self.session.tlb
                )
            ):
                self._m_stale_hits.add()
                if self.params.strict_staleness:
                    # The hard safety oracle: die loudly at the first
                    # unsafe answer, with the full conviction trace.
                    # Lazy import keeps the layering DAG intact (ARCH001:
                    # chaos sits above sim); this path is cold by design.
                    from ..chaos.oracle import StalenessViolation

                    raise StalenessViolation(
                        client_id=self.client_id,
                        item=item,
                        entry_version=entry.version,
                        entry_ts=entry.ts,
                        effective_ts=self.cache.effective_ts(entry),
                        tlb=self.session.tlb,
                        certified_floor=self.cache.certified_floor,
                        epoch=self.session.report_identity[1],
                        now=self.env.now,
                        update_times=self.update_log.updates_of(item),
                    )
            return 1
        self._m_cache_misses.add()
        if self.timeseries is not None:
            self.timeseries["misses"].record(self.env.now)
        payload = yield from self._fetch(item)
        if payload is None:
            # Every retry lost on the air: the item goes unserved this
            # query (counted in client.fetch_failures) — but the query
            # itself terminates instead of hanging forever.
            return 0
        # A fetch whose response crossed a report boundary carries a value
        # older than the client's knowledge horizon; the session marks it
        # suspect so the scheme reconciles it at the next report.
        self.session.insert_fetched(
            CacheEntry(item=item, version=payload["version"], ts=payload["coherent_ts"])
        )
        return 0

    def _send_data_request(self, item: int):
        size = self.params.control_message_bits
        self._m_uplink_request_bits.add(size)
        self._upload(MessageKind.DATA_REQUEST, size, item)

    def _backoff_delay(self, attempt: int) -> float:
        """Timeout for *attempt* (0-based): exponential with +-jitter."""
        params = self.params
        delay = params.uplink_timeout * (params.backoff_base ** attempt)
        if params.backoff_jitter > 0.0:
            delay *= 1.0 + params.backoff_jitter * self._retry_stream.uniform(
                -1.0, 1.0
            )
        # Retry timers run on the local (possibly drifting) clock.
        return delay * self._clock_rate

    def _fetch(self, item: int):
        """Request *item* over the uplink; wait for the broadcast response.

        With the retry layer on (``params.uplink_timeout``), a response
        that does not arrive in time triggers a retransmission with
        exponential backoff and jitter; after ``max_retries``
        retransmissions the fetch gives up and returns None.  A late
        response still satisfies the original waiter (the request is
        idempotent — the server rereads the current value).
        """
        waiter = self._data_waits.get(item)
        if waiter is None:
            waiter = self.env.event()
            self._data_waits[item] = waiter
            self._send_data_request(item)
        if self._retry_stream is None:
            payload = yield waiter
            return payload
        attempt = 0
        while True:
            timeout = self.env.timeout(self._backoff_delay(attempt))
            yield self.env.any_of([waiter, timeout])
            if waiter.triggered:
                return waiter.value
            attempt += 1
            self.metrics.counter(m.FETCH_TIMEOUTS).add()
            if attempt > self.params.max_retries:
                self.metrics.counter(m.FETCH_FAILURES).add()
                if self._data_waits.get(item) is waiter:
                    del self._data_waits[item]
                return None
            self.metrics.counter(m.RETRIES).add()
            self._send_data_request(item)

    # -- validation recovery ---------------------------------------------------

    def _arm_validation_watchdog(self):
        """Bound the wait for a validity/rescue reply (retry layer only)."""
        if self._retry_stream is None or self._watchdog_armed:
            return
        self._watchdog_armed = True
        self.env.process(
            self._validation_watchdog(),
            name=f"client-{self.client_id}-watchdog",
        )

    def _validation_watchdog(self):
        """Timeout + bounded retries around a pending validation.

        Each timeout asks the session to re-issue its upload; once
        retries are exhausted — or the policy cannot retry — the session
        gives up (drops the cache, resynchronises at the next report) and
        the stalled query is released.
        """
        env = self.env
        session = self.session
        try:
            while session.pending and self.connected:
                # One inner pass per validation episode; a fresh episode
                # beginning while we sleep restarts the timing.
                episode = session.episode
                attempt = 0
                while True:
                    yield env.sleep(self._backoff_delay(min(attempt, 8)))
                    if (
                        not session.pending
                        or session.episode != episode
                        or not self.connected
                    ):
                        break
                    attempt += 1
                    self.metrics.counter(m.VALIDATION_TIMEOUTS).add()
                    if attempt > self.params.max_retries:
                        session.give_up(env.now)
                    elif session.validation_timeout(env.now):
                        self.metrics.counter(m.RETRIES).add()
                        continue
                    self._fire_ready()
                    return
        finally:
            self._watchdog_armed = False
