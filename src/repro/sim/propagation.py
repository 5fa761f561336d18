"""Inter-server update propagation and cooperative salvage.

A multi-cell system has exactly one *origin* database (at the gateway,
cell 0); every other cell serves a **replica** kept current by a
:class:`CellSynchronizer`.  The replica invariant is a pair
``(origin O, horizon H)``: the replica knows the latest state of every
item for updates with timestamps in ``(O, H]``, and its version array is
correct as of ``H``.  Everything the fed server says — reports, validity
replies, served values — speaks as of ``H``, never wall-clock time, so a
lagging cell is simply a time-shifted single-cell server and every
single-cell safety argument carries over unchanged.

Three propagation modes (see :mod:`repro.topology`):

* ``eager_push`` — the :class:`OriginFeed` pushes every update (and a
  per-interval heartbeat, to advance horizons through quiet periods) to
  every subscriber; a lost delta shows up as a sequence gap and triggers
  a repair pull.
* ``lazy_pull`` — each cell pulls a delta from the origin once per
  broadcast interval, scheduled ``lead`` seconds before its own tick so
  the fresh horizon backs the next report.
* ``parent_cache`` — cells pull from their tree parent; only depth-1
  cells touch the origin, and per-depth leads make parents refresh
  before their children ask.

The feed's replay log is bounded (``sync_replay_intervals``): a cell
whose horizon fell further behind receives a version *snapshot* with a
raised history floor — its origin ``O`` rises, its server epoch bumps
(the history behind clients' ``Tlb`` is gone), and the cell now has a
finite amnesia floor that **cooperative salvage** exists to fill: a
:class:`CellCooperator` asks neighbor cells to vouch for the missing
``(need, O]`` history before a roamer's ``Tlb``/check is judged,
turning would-be full purges back into ordinary salvages.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..db.database import NEVER
from ..net import Message
from ..net.intercell import InterCellLink
from . import metrics as m

#: A pull response / the payload both feed classes produce:
#: ``(amnesia_floor, covers_from, upto, triples, versions)`` where
#: *triples* is ``(item, ts, version)`` most-recent-first covering
#: ``(covers_from, upto]`` and *versions* is the feed's full version
#: array as of *upto*.  ``covers_from > requester horizon`` (or
#: ``amnesia_floor >`` its origin) forces a snapshot adoption.
PullResponse = Tuple[float, float, float, tuple, Any]

#: An eager delta: ``(amnesia_floor, since, upto, triples, seq)``.
#: *seq* is a per-subscriber sequence number — the loss detector.
#: Timestamps cannot play that role: two updates committed in the same
#: instant produce two deltas with identical ``upto``, so a receiver
#: deduplicating on time alone would drop the second as already-seen.
#: A sequence gap (or the origin restarting, raising ``amnesia_floor``)
#: forces a repair pull.
PushDelta = Tuple[float, float, float, tuple, int]


class _Subscriber:
    """One eager-push subscription: a synchronizer behind one link."""

    __slots__ = ("sync", "link", "last_upto", "seq")

    def __init__(self, sync: "CellSynchronizer", link: InterCellLink):
        self.sync = sync
        self.link = link
        #: ``upto`` of the last delta sent (delivered or not): the next
        #: delta's ``since``.
        self.last_upto = 0.0
        #: Sequence number of the last delta sent (delivered or not):
        #: link losses surface as sequence gaps at the receiver.
        self.seq = 0


class OriginFeed:
    """The gateway side of propagation: answers pulls, pushes deltas.

    Owned by a multi-cell :class:`~repro.sim.model.SimulationModel`;
    reads the origin database through the gateway
    :class:`~repro.sim.server.Server` so a gateway crash
    silences it (pulls go unanswered, heartbeats stop, horizons stall)
    and a gateway restart's raised ``db.origin_time`` propagates as the
    amnesia floor of every subsequent delta and response.
    """

    def __init__(self, env, server, params, roaming, metrics):
        self.env = env
        self.server = server
        self.params = params
        self.roaming = roaming
        self.metrics = metrics
        #: Seconds of update history the feed replays seamlessly; a
        #: requester further behind gets a snapshot with a raised floor.
        self.replay_window = roaming.sync_replay_intervals * params.broadcast_interval
        self._subscribers: List[_Subscriber] = []

    @property
    def db(self):
        return self.server.db

    # -- eager push ------------------------------------------------------------

    def subscribe(self, sync: "CellSynchronizer", link: InterCellLink):
        """Register an eager-push subscriber and start its heartbeat."""
        sub = _Subscriber(sync, link)
        self._subscribers.append(sub)
        self.env.process(
            self._heartbeat_loop(sub), name=f"feed-heartbeat-{sync.server.cell_id}"
        )

    def push_update(self, item: int, now: float):
        """Push one committed origin update to every subscriber."""
        version = int(self.db.version[item])
        for sub in self._subscribers:
            self._send_delta(sub, ((item, now, version),))

    def _send_delta(self, sub: _Subscriber, triples: tuple):
        sub.seq += 1
        delta: PushDelta = (
            self.db.origin_time, sub.last_upto, self.env.now, triples, sub.seq
        )
        # Advance unconditionally: a lost delta must show as a sequence
        # gap at the receiver, not vanish.
        sub.last_upto = self.env.now
        if not sub.link.send(sub.sync.on_push_delta, delta):
            self.metrics.counter(m.SYNC_LOST_MESSAGES).add()

    def _heartbeat_loop(self, sub: _Subscriber):
        """Advance the subscriber's horizon once per interval, even when
        no updates flow — timed so the fresh horizon lands before the
        subscriber's broadcast tick.  Suppressed while the origin is
        down: stalled horizons (and the skipped ticks they cause) are
        the honest signal of a gateway outage."""
        env = self.env
        interval = self.params.broadcast_interval
        lead = self.roaming.sync_margin + sub.link.latency
        tick = 0
        while True:
            tick += 1
            target = tick * interval - lead
            if target > env.now:
                yield env.sleep(target - env.now)
            if self.server.crashed:
                continue
            self._send_delta(sub, ())

    # -- pull service ----------------------------------------------------------

    def answer_pull(self, since: float) -> Optional[PullResponse]:
        """The delta (or snapshot) bringing a replica from *since* to now.

        Returns None while the gateway is down — silence, which the
        requester's timeout/retry machinery detects; a crashed process
        cannot answer.
        """
        if self.server.crashed:
            return None
        db = self.db
        now = self.env.now
        replay_floor = max(db.origin_time, now - self.replay_window)
        cutoff = max(since, replay_floor)
        triples = tuple(
            (item, ts, int(db.version[item])) for item, ts in db.updated_since(cutoff)
        )
        return (db.origin_time, cutoff, now, triples, db.version.copy())


class CellSynchronizer:
    """The fed-cell side: keeps one replica inside its ``(O, H]`` invariant.

    Installed as ``server.sync``; the server reads :attr:`horizon` for
    every timestamp it exposes.  In pull modes a per-interval pull loop
    (with bounded retry/backoff over the lossy link) drives the horizon;
    in eager mode deltas arrive via :meth:`on_push_delta` and only
    *repair* pulls are issued.  In ``parent_cache`` mode this object is
    also a feed: children pull from it through :meth:`answer_pull`.
    """

    def __init__(
        self,
        env,
        server,
        feed,
        link: InterCellLink,
        params,
        roaming,
        metrics,
        lead: float,
        pull: bool,
    ):
        self.env = env
        self.server = server
        #: Upstream knowledge source: the :class:`OriginFeed`, or the
        #: parent cell's synchronizer in ``parent_cache`` mode.
        self.feed = feed
        self.link = link
        self.params = params
        self.roaming = roaming
        self.metrics = metrics
        #: Seconds before each broadcast tick this cell aims to have a
        #: fresh horizon by (deeper cells lead more under parent_cache).
        self.lead = lead
        #: Knowledge horizon ``H``: the replica is complete through here.
        #: A fresh replica matches the untouched t=0 database; ``NEVER``
        #: marks a restarted replica that knows nothing until it resyncs.
        self.horizon = 0.0
        self._reply_event = None
        self._repairing = False
        #: Last eager-delta sequence number seen (loss detector).
        self._push_seq = 0
        server.sync = self
        if pull:
            env.process(self._pull_loop(), name=f"sync-cell-{server.cell_id}")

    # -- pull client -----------------------------------------------------------

    def _pull_loop(self):
        env = self.env
        interval = self.params.broadcast_interval
        tick = 0
        while True:
            tick += 1
            target = tick * interval - self.lead
            if target > env.now:
                yield env.sleep(target - env.now)
            yield from self._pull_round()

    def _pull_round(self):
        """One pull with bounded retries: ask, await reply or timeout."""
        env = self.env
        roaming = self.roaming
        timeout = 2.0 * self.link.latency + roaming.sync_margin
        self.metrics.counter(m.SYNC_PULLS).add()
        attempt = 0
        while True:
            reply = env.event()
            self._reply_event = reply
            if not self.link.send(self._ask_arrives, self.horizon):
                self.metrics.counter(m.SYNC_LOST_MESSAGES).add()
            yield env.any_of((reply, env.timeout(timeout)))
            if reply.triggered:
                self._apply_response(reply.value)
                return
            attempt += 1
            if attempt > roaming.max_sync_retries:
                # Abandon the round: the horizon stalls until the next
                # tick's pull, and stalled horizons skip broadcasts —
                # graceful degradation, never a fabricated report.
                self.metrics.counter(m.SYNC_FAILURES).add()
                return
            self.metrics.counter(m.SYNC_RETRIES).add()
            timeout *= roaming.sync_backoff

    def _ask_arrives(self, since: float, now: float):
        """Runs feed-side, one link latency after the ask was sent."""
        response = self.feed.answer_pull(since)
        if response is None:
            return  # feed down or unsynced: silence; the timeout detects it
        if not self.link.send(self._reply_arrives, response):
            self.metrics.counter(m.SYNC_LOST_MESSAGES).add()

    def _reply_arrives(self, response: PullResponse, now: float):
        reply = self._reply_event
        if reply is not None and not reply.triggered:
            reply.succeed(response)

    def _apply_response(self, response: PullResponse):
        amnesia_floor, covers_from, upto, triples, versions = response
        db = self.server.db
        policy = self.server.policy
        horizon = self.horizon
        if covers_from > horizon or amnesia_floor > db.origin_time:
            # The feed cannot (or may not) replay back to our horizon:
            # adopt its snapshot.  Our history floor rises to the
            # snapshot's coverage start, and the epoch bump tells every
            # client that the history behind its Tlb is gone here.
            floor = max(covers_from, amnesia_floor)
            pairs = [(item, ts) for item, ts, _version in triples]
            changed = db.replace_history(floor, pairs, versions)
            self.server.epoch += 1
            self.metrics.counter(m.SYNC_SNAPSHOTS).add()
            for item, old, new in changed:
                policy.on_item_update(item, old, new)
            self.horizon = upto
        elif upto > horizon:
            # Seamless delta.  Boundary self-heal first: an update
            # committed in the very instant the previous response was
            # built sits at ``ts == covers_from`` and is invisible to the
            # strict timestamp delta — but not to the version array the
            # feed ships with every response.  Any item whose origin
            # version is ahead of ours missed exactly such an update; we
            # know only ``ts <= covers_from``, so clamping its stamp UP
            # to ``covers_from`` conservatively over-invalidates (safe)
            # and keeps the recency order ascending under the triples.
            triple_items = {item for item, _ts, _version in triples}
            for idx in np.nonzero(versions > db.version)[0]:
                item = int(idx)
                if item in triple_items:
                    continue
                ts = max(covers_from, float(db.last_update[item]))
                old = db.apply_sync(item, ts, int(versions[item]))
                policy.on_item_update(item, old, int(versions[item]))
            # Then the triples, ascending in time, version-guarded so a
            # duplicate (or an update the sweep already grafted) no-ops.
            for item, ts, version in reversed(triples):
                if version > int(db.version[item]):
                    old = db.apply_sync(item, ts, version)
                    policy.on_item_update(item, old, version)
            self.horizon = upto
        # else: a stale duplicate reply (late retransmission) — covered.

    # -- eager receiver --------------------------------------------------------

    def on_push_delta(self, delta: PushDelta, now: float):
        amnesia_floor, since, upto, triples, seq = delta
        expected = self._push_seq + 1
        if seq < expected:
            return  # duplicate copy: already covered
        self._push_seq = seq
        db = self.server.db
        if (
            seq > expected
            or amnesia_floor > db.origin_time
            or self.horizon == NEVER
        ):
            # A delta was lost on the link (sequence gap), the origin
            # restarted (its floor rose past ours), or this replica is a
            # blank restart: this delta alone cannot bridge the gap, and
            # applying it would silently skip updates the oracle may
            # never see.  Repair with a full pull instead.
            self._schedule_repair()
            return
        policy = self.server.policy
        # Version-guarded: two origin updates committed in the same
        # instant arrive as two deltas with identical ``upto``, so
        # timestamps cannot deduplicate — the monotone version counter
        # can, and makes re-application a no-op.
        for item, ts, version in reversed(triples):
            if version > int(db.version[item]):
                old = db.apply_sync(item, ts, version)
                policy.on_item_update(item, old, version)
        if upto > self.horizon:
            self.horizon = upto
        self.metrics.counter(m.SYNC_PUSHES).add()

    def _schedule_repair(self):
        if self._repairing:
            return
        self._repairing = True
        self.env.process(
            self._repair(), name=f"sync-repair-{self.server.cell_id}"
        )

    def _repair(self):
        try:
            yield from self._pull_round()
        finally:
            self._repairing = False

    # -- restart + parent-cache feed service -----------------------------------

    def reset(self):
        """A restarted replica knows nothing until it resyncs.

        ``horizon = NEVER`` sheds uplink traffic (the server answers
        nothing it cannot back) and the immediate repair pull — with
        ``since = NEVER`` — is guaranteed a snapshot, re-establishing
        the invariant with a finite floor.
        """
        self.horizon = NEVER
        self._reply_event = None
        self._schedule_repair()

    def answer_pull(self, since: float) -> Optional[PullResponse]:
        """Feed a child cell (``parent_cache`` mode) from the replica.

        The child can never learn more than this cell knows: responses
        are capped at our horizon, and our own amnesia floor propagates
        so a snapshot here cascades to snapshots below.
        """
        server = self.server
        if server.crashed or self.horizon == NEVER:
            return None
        db = server.db
        cutoff = max(since, db.origin_time)
        triples = tuple(
            (item, ts, int(db.version[item])) for item, ts in db.updated_since(cutoff)
        )
        return (db.origin_time, cutoff, self.horizon, triples, db.version.copy())


class CoopPeer:
    """One neighbor a cooperator can ask: its server behind one link."""

    __slots__ = ("cell_id", "server", "link")

    def __init__(self, cell_id: int, server, link: InterCellLink):
        self.cell_id = cell_id
        self.server = server
        self.link = link


class CellCooperator:
    """Neighbor-assisted salvage for ``Tlb``/check uploads below the floor.

    Installed as ``server.coop``.  When a roamer's upload references
    history older than this cell's ``db.origin_time`` (the amnesia left
    by a snapshot resync), the server defers the upload here; the
    cooperator asks neighbor cells — round-robin, one timeout-bounded
    ask each — to vouch for the missing ``(need, origin]`` span.  A
    granted backfill grafts straight into the replica's history
    (:meth:`~repro.db.database.Database.backfill_history`), lowering the
    floor so the deferred upload is then judged as an ordinary salvage;
    refusals and total failures fall through to the policy's existing
    degradation path (full purge — safe, just costlier).
    """

    def __init__(self, env, server, roaming, metrics):
        self.env = env
        self.server = server
        self.roaming = roaming
        self.metrics = metrics
        self.peers: List[CoopPeer] = []
        self._cursor = 0
        server.coop = self

    def add_peer(self, cell_id: int, server, link: InterCellLink):
        self.peers.append(CoopPeer(cell_id, server, link))

    def backfill_then(
        self, need: float, resume: Callable[[Message], None], msg: Message
    ):
        """Backfill history down to *need*, then re-dispatch via *resume*."""
        self.env.process(
            self._backfill(need, resume, msg),
            name=f"coop-{self.server.cell_id}-client-{msg.src}",
        )

    def _backfill(self, need: float, resume: Callable[[Message], None], msg: Message):
        env = self.env
        server = self.server
        roaming = self.roaming
        self.metrics.counter(m.COOP_REQUESTS).add()
        # If the world changes while we wait (cell crash, epoch bump),
        # the deferred upload is void: the client's own retry/purge
        # machinery owns recovery, so the resume must be dropped.
        epoch0 = server.epoch
        up_to = server.db.origin_time
        n = len(self.peers)
        start = self._cursor
        if n:
            self._cursor = (start + 1) % n
        granted = False
        for i in range(n):
            peer = self.peers[(start + i) % n]
            reply = env.event()
            if not peer.link.send(self._ask_at_peer, (peer, need, up_to, reply)):
                self.metrics.counter(m.SYNC_LOST_MESSAGES).add()
            timeout = 2.0 * peer.link.latency + roaming.sync_margin
            yield env.any_of((reply, env.timeout(timeout)))
            if not reply.triggered:
                continue  # ask or answer lost, or the peer is down
            pairs = reply.value
            if pairs is None:
                self.metrics.counter(m.COOP_REFUSALS).add()
                continue
            if server.crashed or server.epoch != epoch0:
                return
            server.db.backfill_history(pairs, need)
            self.metrics.counter(m.COOP_BACKFILLS).add()
            granted = True
            break
        if not granted:
            self.metrics.counter(m.COOP_FAILURES).add()
        if not server.crashed and server.epoch == epoch0:
            resume(msg)

    def _ask_at_peer(self, payload, now: float):
        """Runs peer-side: answer iff the peer can vouch for the whole gap."""
        peer, need, up_to, reply = payload
        target = peer.server
        if target.crashed:
            return  # a dead neighbor answers nothing; the timeout detects it
        db = target.db
        if db.origin_time > need or target._knowledge_now(now) < up_to:
            # The peer's own floor is too high, or its horizon has not
            # reached the requester's origin: it cannot vouch for every
            # update in (need, up_to] — an honest refusal, never a
            # partial answer the requester would mistake for complete.
            answer = None
        else:
            # The peer stores only each item's *latest* update, so an
            # item last updated after up_to may ALSO have changed inside
            # (need, up_to] — dropping it would let the requester claim
            # a completeness it does not have.  Clamping its stamp to
            # up_to instead is conservatively safe: the requester (re-)
            # invalidates the item, which at worst costs one refetch.
            # Items the requester already tracks are skipped at graft
            # time, so the clamp never regresses a newer record.
            answer = tuple(
                (item, min(ts, up_to)) for item, ts in db.updated_since(need)
            )
        if not peer.link.send(self._answer_arrives, (reply, answer)):
            self.metrics.counter(m.SYNC_LOST_MESSAGES).add()

    def _answer_arrives(self, payload, now: float):
        reply, answer = payload
        if not reply.triggered:
            reply.succeed(answer)
