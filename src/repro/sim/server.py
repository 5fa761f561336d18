"""The Mobile Support Station: broadcasts reports, answers uplink traffic.

One server covers the cell (paper Section 2).  Responsibilities:

* broadcast the scheme's invalidation report at exactly ``i * L`` —
  the downlink's preemptive IR priority guarantees the start time;
* answer data requests, *coalescing* concurrent requests for the same
  item into one broadcast transmission (broadcast medium);
* answer checking uploads with validity reports and forward ``Tlb``
  uploads to the scheme policy;
* when ``params.loss_adaptation`` is set, run the loss-adaptive control
  loop: fold the cell's NACK hints and salvage traffic into an IR-loss
  estimate each tick, advertise the widened ``effective_window_seconds``
  to the scheme policy, and repeat each report ``r`` times.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..db.database import NEVER
from ..des import Environment, LOW
from ..des.monitor import MetricSet
from ..net import BROADCAST, Channel, Message, MessageKind, SERVER_ID
from ..schemes.loss_adaptive import LossAdaptiveController
from . import metrics as m


class Server:
    """The cell's server actor."""

    def __init__(
        self,
        env: Environment,
        params,
        db,
        policy,
        downlink: Channel,
        uplink: Channel,
        metrics: MetricSet,
        ir_channel: Channel = None,
        cell_id: int = 0,
    ):
        self.env = env
        self.params = params
        self.db = db
        #: Which cell this server covers (0 = the gateway, colocated with
        #: the origin database — today's single-cell server exactly).
        self.cell_id = cell_id
        #: Inter-server synchronizer keeping a *replica* database current
        #: (see repro.sim.propagation).  None on the gateway and at N=1:
        #: this server reads the origin database directly and its
        #: knowledge horizon is always ``env.now``.
        self.sync = None
        #: Cooperative-salvage endpoint (multi-cell only; None = answer
        #: every upload from local history, the single-cell behaviour).
        self.coop = None
        #: Timestamp of the last report broadcast (fed cells only): a
        #: stalled knowledge horizon must skip ticks, never re-broadcast
        #: an instant already reported.
        self._last_report_ts = 0.0
        self.policy = policy
        self.downlink = downlink
        self.uplink = uplink
        #: Channel carrying invalidation reports (the shared downlink by
        #: default; a dedicated channel in the multiple-channel extension).
        self.ir_channel = ir_channel if ir_channel is not None else downlink
        self.metrics = metrics
        #: Loss-adaptive control loop (None = paper-faithful fixed window).
        self.loss_controller: Optional[LossAdaptiveController] = (
            LossAdaptiveController(
                params.loss_adaptation,
                window_intervals=params.window_intervals,
                broadcast_interval=params.broadcast_interval,
            )
            if params.loss_adaptation is not None
            else None
        )
        #: Widened window span advertised to window-based scheme policies
        #: (None = use ``params.window_seconds``; see schemes.base).
        self.effective_window_seconds: Optional[float] = None
        #: Incarnation epoch, stamped into every broadcast report; bumped
        #: by :meth:`restart` so clients can detect that the history
        #: behind their ``Tlb`` no longer exists (see docs/PROTOCOLS.md).
        self.epoch = 0
        #: True while the chaos layer holds the server down: broadcasts
        #: are skipped and uplink arrivals are shed.
        self.crashed = False
        #: item -> queued DATA_ITEM message (coalescing window).
        self._pending_data: Dict[int, Message] = {}
        # Hot-path metric handles, resolved once (docs/PERFORMANCE.md).
        self._m_data_coalesced = metrics.bind_counter(m.DATA_COALESCED)
        self._m_duplicate_uplink = metrics.bind_counter(m.DUPLICATE_UPLINK)
        self._m_malformed_uplink = metrics.bind_counter(m.MALFORMED_UPLINK)
        self._m_report_size = metrics.bind_tally(m.REPORT_SIZE)
        #: Publishing-mode round-robin cursor over the publish region.
        self._publish_cursor = 0
        # The server watches its own downlink to close coalescing windows
        # synchronously at delivery time; that is sender-side bookkeeping,
        # not a radio reception, so it is wired (immune to fault
        # injection).  The uplink attachment IS the radio reception.
        downlink.attach(self._on_downlink_delivered, wired=True)
        uplink.attach(self._on_uplink)
        self.process = env.process(self._broadcast_loop(), name="server-broadcast")

    # -- broadcast loop --------------------------------------------------------

    def _broadcast_loop(self):
        env = self.env
        interval = self.params.broadcast_interval
        tick = 0
        while True:
            tick += 1
            # LOW priority: same-instant database updates commit first, so
            # the report reflects every update with ts <= Ti.
            yield env.timeout(tick * interval - env.now, priority=LOW)
            if self.crashed:
                # Down: no report this tick.  The loop keeps counting
                # ticks so the broadcast timeline (i * L instants) is
                # preserved across the outage — a restarted server
                # resumes the exact cadence clients expect.
                continue
            sync = self.sync
            if sync is None:
                report_now = env.now
            else:
                # A fed cell's reports speak as of its knowledge horizon,
                # not wall-clock time: the replica is complete exactly up
                # to the horizon, so a report stamped there makes only
                # claims it can back.  A stalled horizon (feed down, link
                # out) skips the tick — silence degrades gracefully into
                # the clients' missed-report machinery, a lie does not.
                report_now = sync.horizon
                if report_now <= self._last_report_ts:
                    self.metrics.counter(m.SYNC_SKIPPED_TICKS).add()
                    continue
                self._last_report_ts = report_now
            if self.loss_controller is not None:
                # Fold last interval's loss evidence into the estimate and
                # advertise the (possibly widened) window to the policy.
                # Only the clients associated with this cell (dozing ones
                # included; pooled members have no radio) can NACK or
                # salvage here, so they are the evidence's denominator.
                w_eff = self.loss_controller.tick(self.ir_channel.stations)
                self.effective_window_seconds = (
                    self.loss_controller.effective_window_seconds
                )
                self.metrics.tally(m.W_EFF).observe(float(w_eff))
            report = self.policy.build_report(self, report_now)
            report.epoch = self.epoch
            report.cell = self.cell_id
            self.metrics.counter(
                f"{m.REPORT_COUNT_PREFIX}{report.kind.value}"
            ).add()
            self._m_report_size.observe(report.size_bits)
            for copy in range(self.params.ir_repeat):
                # Repetition coding: every copy is a full-size broadcast —
                # the downlink pays for redundancy, honestly.
                if copy > 0:
                    self.metrics.counter(m.IR_REPEATS).add()
                self.ir_channel.send(
                    Message(
                        kind=MessageKind.INVALIDATION_REPORT,
                        size_bits=report.size_bits,
                        src=SERVER_ID,
                        dest=BROADCAST,
                        payload=report,
                    )
                )
            if self.params.publish_per_interval > 0:
                self._publish_round()

    def _publish_round(self):
        """Publishing mode: push the next k region items after the report.

        Pushed items ride the data priority class, so publishing trades
        on-demand fetch bandwidth for listen-only refreshes.
        """
        lo, hi = self.params.publish_region
        span = hi - lo + 1
        for _ in range(self.params.publish_per_interval):
            item = lo + self._publish_cursor % span
            self._publish_cursor += 1
            version, _ts = self.db.read(item)
            msg = Message(
                kind=MessageKind.DATA_ITEM,
                size_bits=self.params.item_size_bits,
                src=SERVER_ID,
                dest=BROADCAST,
                payload={
                    "item": item,
                    "version": version,
                    "coherent_ts": self.env.now,
                    "requesters": frozenset(),
                    "pushed": True,
                },
            )
            self.metrics.counter(m.PUBLISH_ITEMS).add()
            self.metrics.counter(m.PUBLISH_BITS).add(msg.size_bits)
            self.downlink.send(msg)

    # -- crash-recovery (driven by repro.chaos.ChaosInjector) -------------------

    def crash(self, now: float):
        """Take the process down: volatile state is gone, nothing answers.

        The broadcast loop keeps ticking (and skipping) so the ``i * L``
        timeline survives the outage; uplink arrivals are shed in
        :meth:`_on_uplink`.  In-flight downlink transmissions complete —
        those bits already left the antenna.
        """
        self.crashed = True
        # The coalescing windows die with the process: requests folded
        # into a queued-but-unsent response will never be re-answered, so
        # their clients' retry timers must do the recovering.
        self._pending_data.clear()

    def restart(self, now: float, policy, replica_db=None):
        """Bring a fresh incarnation up at *now* with a rebuilt *policy*.

        Everything in-memory is rebuilt from the durable database: update
        *times* are gone (``db.forget_history``), so the new incarnation
        treats *now* as its history floor; the epoch bump tells clients
        their old ``Tlb`` certifications are void.

        A *fed* cell restarts differently: its database was never durable
        (it is a replica), so the caller hands in a blank *replica_db*
        and the synchronizer resyncs it from the feed — until then the
        knowledge horizon is ``NEVER`` and uplink arrivals are shed.
        """
        if replica_db is None:
            self.db.forget_history(now)
        else:
            self.db = replica_db
        self.policy = policy
        self.epoch += 1
        self.crashed = False
        if self.params.loss_adaptation is not None:
            # The loss estimator restarts cold, like any in-memory EWMA.
            self.loss_controller = LossAdaptiveController(
                self.params.loss_adaptation,
                window_intervals=self.params.window_intervals,
                broadcast_interval=self.params.broadcast_interval,
            )
        self.effective_window_seconds = None
        self._publish_cursor = 0

    # -- uplink handling ---------------------------------------------------------

    def _knowledge_now(self, now: float) -> float:
        """The instant this cell's database is complete through.

        ``now`` itself for the gateway; a fed cell's replica only
        reflects updates up to its sync horizon, so every policy call
        (report building, checking answers, ``Tlb`` handling) and every
        served item must speak as of that earlier instant.
        """
        sync = self.sync
        return now if sync is None else sync.horizon

    def _on_uplink(self, msg: Message, now: float):
        if self.crashed:
            # A dead process answers nothing: shed the arrival so the
            # client's timeout/retry lifecycle engages instead of the
            # request queueing forever against a dead receiver.
            self.metrics.counter(m.UPLINK_SHED_CRASHED).add()
            return
        if self.sync is not None and self.sync.horizon == NEVER:
            # A restarted replica that has not resynced yet knows nothing
            # at all — answering would fabricate knowledge.  Shed like a
            # crash; the resync completes within the next sync round.
            self.metrics.counter(m.UPLINK_SHED_UNSYNCED).add()
            return
        if msg.corrupted or not self._well_formed(msg):
            # Bit errors on the uplink (or garbage from a buggy client)
            # must never crash the cell's single server: count and shed.
            self._m_malformed_uplink.add()
            return
        if msg.kind is MessageKind.TLB_UPLOAD:
            if self.loss_controller is not None:
                # Salvage traffic is (weak) loss evidence: clients that
                # fell out of the window may have lost reports on the air.
                self.loss_controller.observe_salvage()
            coop = self.coop
            if coop is not None and msg.payload < self.policy.salvage_floor(self):
                # The roamer's Tlb predates our history floor: ask the
                # neighbors to backfill before the policy judges it.
                coop.backfill_then(msg.payload, self._resume_tlb, msg)
            else:
                self.policy.on_tlb(self, msg.src, msg.payload, self._knowledge_now(now))
        elif msg.kind is MessageKind.IR_NACK:
            self.metrics.counter(m.NACKS_RECEIVED).add()
            if self.loss_controller is not None:
                self.loss_controller.observe_nack(msg.payload)
        elif msg.kind is MessageKind.CHECK_REQUEST:
            self._answer_check(msg, now)
        elif msg.kind is MessageKind.DATA_REQUEST:
            self._serve_data(msg, now)

    def _well_formed(self, msg: Message) -> bool:
        """Structural validation of an uplink message's payload."""
        payload = msg.payload
        if msg.kind is MessageKind.TLB_UPLOAD:
            return isinstance(payload, (int, float)) and payload >= 0
        if msg.kind is MessageKind.IR_NACK:
            return (
                isinstance(payload, int)
                and not isinstance(payload, bool)
                and payload >= 1
            )
        if msg.kind is MessageKind.CHECK_REQUEST:
            return isinstance(payload, list)
        if msg.kind is MessageKind.DATA_REQUEST:
            return (
                isinstance(payload, int)
                and not isinstance(payload, bool)
                and 0 <= payload < self.db.n_items
            )
        # Downlink-only kinds have no business on the uplink.
        return False

    def _resume_tlb(self, msg: Message):
        """Dispatch a ``Tlb`` upload deferred for cooperative backfill."""
        self.policy.on_tlb(
            self, msg.src, msg.payload, self._knowledge_now(self.env.now)
        )

    def _answer_check(self, msg: Message, now: float):
        coop = self.coop
        if coop is not None and msg.payload:
            need = min(ts for _item, ts in msg.payload)
            if need < self.policy.salvage_floor(self):
                coop.backfill_then(need, self._finish_check, msg)
                return
        self._finish_check(msg)

    def _finish_check(self, msg: Message):
        invalid, certified_at, reply_bits = self.policy.on_check_request(
            self, msg.src, msg.payload, self._knowledge_now(self.env.now)
        )
        self.downlink.send(
            Message(
                kind=MessageKind.VALIDITY_REPORT,
                size_bits=reply_bits,
                src=SERVER_ID,
                dest=msg.src,
                payload=(invalid, certified_at),
            )
        )

    def _serve_data(self, msg: Message, now: float):
        item = msg.payload
        pending = self._pending_data.get(item)
        if pending is not None:
            requesters = pending.payload["requesters"]
            if msg.src in requesters:
                # A retransmission (the client's retry layer timed out
                # while our response was still queued): idempotent.
                self._m_duplicate_uplink.add()
                return
            # A transmission of this item is already queued or on the air:
            # the broadcast serves this requester for free.
            requesters.add(msg.src)
            self._m_data_coalesced.add()
            return
        version, _ts = self.db.read(item)
        requesters = {msg.src}
        data = Message(
            kind=MessageKind.DATA_ITEM,
            size_bits=self.params.item_size_bits,
            src=SERVER_ID,
            dest=BROADCAST,
            payload={
                "item": item,
                "version": version,
                # The value reflects all updates up to the cell's
                # knowledge horizon (= this instant on the gateway); any
                # later update will appear in a subsequent report.
                "coherent_ts": self._knowledge_now(now),
                "requesters": requesters,
            },
            # Same (mutable) set: the channel dispatches the broadcast
            # only to requesters coalesced by delivery time.
            recipients=requesters,
        )
        self._pending_data[item] = data
        self.downlink.send(data)

    def _on_downlink_delivered(self, msg: Message, now: float):
        if msg.kind is MessageKind.DATA_ITEM:
            # Close the coalescing window the moment the bits are out.
            # (Guard against pushed copies of the same item: only the
            # pending on-demand message closes its own window.)
            item = msg.payload["item"]
            if self._pending_data.get(item) is msg:
                del self._pending_data[item]
