"""Bit-accurate shared wireless channels with class-based priorities.

A :class:`Channel` models one direction of the cell's air interface:

* messages queue by (priority class, FIFO) and transmit one at a time at
  ``size_bits / bandwidth_bps`` seconds each;
* messages in the preemptive class (invalidation reports, by default)
  interrupt an ongoing lower-class transmission, which later *resumes*
  with its remaining bits — this is what lets the server start every
  report at exactly ``i * L`` as the paper's model requires;
* on completion the message is delivered to every attached receiver
  (broadcast) or matched by destination (the receivers filter).

The same class serves as the downlink (server to all clients) and the
uplink (clients share it toward the server).
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..des import Environment, Event, Interrupt, PriorityItem, PriorityStore
from ..des.monitor import TimeWeighted
from .faults import Fate, FaultModel
from .messages import BROADCAST, Message, PRIORITY_IR

Receiver = Callable[[Message, float], None]

_attach_order = attrgetter("key")
_DROP = Fate.DROP
_CORRUPT = Fate.CORRUPT


class _Receiver:
    """One attached delivery callback plus its dispatch metadata."""

    __slots__ = ("callback", "wired", "key", "dest", "listening")

    def __init__(self, callback: Receiver, wired: bool, key: int, dest, listening):
        self.callback = callback
        self.wired = wired
        #: Stable identity for fault judgment (Gilbert–Elliott chains are
        #: keyed by it); survives doze/wake listening churn.
        self.key = key
        #: Unicast address this receiver answers to (None = promiscuous:
        #: hears everything, like the server's uplink and the sender-side
        #: downlink bookkeeping).
        self.dest = dest
        self.listening = listening


class ChannelStats:
    """Byte-counting telemetry for one channel."""

    __slots__ = (
        "bits_enqueued",
        "bits_delivered",
        "messages_delivered",
        "bits_by_kind",
        "busy",
        "preemptions",
    )

    def __init__(self, now: float = 0.0):
        self.bits_enqueued = 0.0
        self.bits_delivered = 0.0
        self.messages_delivered = 0
        self.bits_by_kind: dict = {}
        self.busy = TimeWeighted(now, name="busy")
        self.preemptions = 0

    def utilization(self, now: float) -> float:
        """Fraction of time the channel spent transmitting."""
        return self.busy.average(now)


class Channel:
    """A shared priority-scheduled transmission medium.

    Parameters
    ----------
    env:
        The simulation environment.
    bandwidth_bps:
        Channel capacity in bits per second.
    name:
        Used in diagnostics.
    preempt_threshold:
        Messages whose priority class is <= this value interrupt an
        ongoing lower-class transmission (which resumes afterwards).
        Default: only the IR class preempts.  Set to -1 to disable
        preemption entirely.
    faults:
        Optional :class:`~repro.net.faults.FaultModel` judging each
        delivery to each non-wired receiver (drop / corrupt / deliver).
        ``None`` (the default) keeps the channel lossless.
    """

    __slots__ = (
        "env",
        "bandwidth_bps",
        "name",
        "preempt_threshold",
        "faults",
        "stats",
        "_queue",
        "_receivers",
        "_by_cb",
        "_by_dest",
        "_promiscuous",
        "_listening",
        "_next_receiver_key",
        "_seq",
        "_current",
        "_done_events",
        "_proc",
    )

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float,
        name: str = "channel",
        preempt_threshold: int = PRIORITY_IR,
        faults: Optional[FaultModel] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.name = name
        self.preempt_threshold = preempt_threshold
        self.faults = faults
        self.stats = ChannelStats(env.now)
        self._queue = PriorityStore(env)
        #: Attachment-ordered receiver records; wired ones bypass faults.
        self._receivers: List[_Receiver] = []
        self._by_cb: Dict[Receiver, _Receiver] = {}
        self._by_dest: Dict[int, List[_Receiver]] = {}
        self._promiscuous: List[_Receiver] = []
        #: Lazily rebuilt snapshot of listening receivers for broadcast
        #: dispatch (None = dirty).
        self._listening: Optional[Tuple[_Receiver, ...]] = None
        self._next_receiver_key = 0
        self._seq = 0
        self._current: Optional[PriorityItem] = None
        self._done_events: dict = {}
        self._proc = env.process(self._transmit(), name=f"{name}-tx")

    def __repr__(self):
        return (
            f"<Channel {self.name} {self.bandwidth_bps} bps "
            f"queued={len(self._queue)}>"
        )

    # -- public API ----------------------------------------------------------

    def attach(
        self, receiver: Receiver, wired: bool = False, dest=None, listening: bool = True
    ):
        """Register a delivery callback ``receiver(message, now)``.

        Every broadcast is offered to every *listening* receiver (see
        :meth:`set_listening`).  Addressed (non-broadcast) messages are
        dispatched by destination index: a receiver attached with
        ``dest=<id>`` additionally hears messages addressed to that id;
        a receiver attached without ``dest`` is promiscuous and hears
        everything (the server's uplink, channel-level taps in tests).
        A *wired* receiver is bookkeeping on the sender's side of the
        air interface (e.g. the server watching its own downlink) and is
        never subjected to fault injection.  ``listening=False`` attaches
        with the radio already powered down (a dozing client handing off
        to a new cell mid-doze).  Attaching the same callback twice to
        one channel is an error.
        """
        if receiver in self._by_cb:
            raise ValueError(f"{receiver!r} is already attached")
        rec = _Receiver(
            receiver, wired, self._next_receiver_key, dest, bool(listening)
        )
        self._next_receiver_key += 1
        self._receivers.append(rec)
        self._by_cb[receiver] = rec
        if dest is None:
            self._promiscuous.append(rec)
        else:
            self._by_dest.setdefault(dest, []).append(rec)
        self._listening = None

    def detach(self, receiver: Receiver):
        """Remove a previously attached receiver."""
        rec = self._by_cb.pop(receiver, None)
        if rec is None:
            raise ValueError(f"{receiver!r} is not attached")
        self._receivers.remove(rec)
        if rec.dest is None:
            self._promiscuous.remove(rec)
        else:
            group = self._by_dest[rec.dest]
            group.remove(rec)
            if not group:
                del self._by_dest[rec.dest]
        self._listening = None

    @property
    def stations(self) -> int:
        """How many destinations have a receiver attached, dozing or not
        (a cell's associated clients, on that cell's channels)."""
        return len(self._by_dest)

    def set_listening(self, receiver: Receiver, listening: bool):
        """Gate delivery to *receiver* without detaching it.

        A dozing client powers its radio down: broadcasts (and their
        per-receiver fault judgments) skip it entirely instead of
        calling into a no-op handler.  Cheaper than detach/attach churn,
        and it keeps both the receiver's attachment order (which fixes
        delivery order) and its fault-chain key stable across wake-ups.
        """
        rec = self._by_cb.get(receiver)
        if rec is None:
            raise ValueError(f"{receiver!r} is not attached")
        listening = bool(listening)
        if rec.listening is not listening:
            rec.listening = listening
            self._listening = None

    def send(self, message: Message) -> Event:
        """Enqueue *message*; returns an event that fires on delivery.

        Transmission starts when the message reaches the head of its
        priority class; a message in the preemptive class interrupts an
        ongoing lower-class transmission.  Re-sending a message that is
        still in flight is an error: it would corrupt the channel's
        bookkeeping (send a fresh :class:`Message` per transmission).
        """
        if id(message) in self._done_events:
            raise ValueError(f"{message!r} is already in flight on {self.name}")
        message.enqueued_at = self.env.now
        message.remaining_bits = float(message.size_bits)
        self.stats.bits_enqueued += message.size_bits
        done = self.env.event()
        self._done_events[id(message)] = done
        self._seq += 1
        item = PriorityItem(priority=message.priority, seq=self._seq, item=message)
        self._queue.put_nowait(item)
        if (
            self._current is not None
            and message.priority <= self.preempt_threshold
            and message.priority < self._current.priority
            # A pending interrupt detaches the transmitter from its timeout;
            # a second preemption in the same instant must not re-interrupt
            # (the transmitter re-reads the queue in priority order anyway).
            and self._proc.target is not None
        ):
            self.stats.preemptions += 1
            self._proc.interrupt("preempted")
        return done

    @property
    def transmitting(self) -> Optional[Message]:
        """The message currently on the air, if any."""
        return self._current.item if self._current is not None else None

    @property
    def queued(self) -> int:
        """Number of messages waiting (not counting the one on the air)."""
        return len(self._queue)

    def transmission_time(self, size_bits: float) -> float:
        """Seconds needed to transmit *size_bits* uncontended."""
        return size_bits / self.bandwidth_bps

    # -- internals -------------------------------------------------------------

    def _transmit(self):
        env = self.env
        while True:
            item = yield self._queue.get()
            message: Message = item.item
            if message.size_bits == 0:
                # Zero-size control messages deliver instantly.
                self._deliver(message)
                continue
            self._current = item
            self.stats.busy.set(1.0, env.now)
            started = env.now
            try:
                # Fast-lane sleep (bare number): the single hottest yield
                # in the simulator — one per transmission.
                yield message.remaining_bits / self.bandwidth_bps
            except Interrupt:
                elapsed = env.now - started
                message.remaining_bits = max(
                    0.0, message.remaining_bits - elapsed * self.bandwidth_bps
                )
                self._current = None
                self.stats.busy.set(0.0, env.now)
                if message.remaining_bits <= 1e-9:
                    self._deliver(message)
                else:
                    # Re-queue with the original sequence number so the
                    # message resumes ahead of later arrivals in its class.
                    self._queue.put_nowait(item)
                continue
            message.remaining_bits = 0.0
            self._current = None
            self.stats.busy.set(0.0, env.now)
            self._deliver(message)

    @staticmethod
    def _complete(done, message: Message):
        """Fire a delivery event without a heap round-trip when unwatched.

        Most senders discard the event :meth:`send` returns; succeeding
        it through the scheduler would cost an event per message for
        nobody.  With callbacks attached the normal succeed path runs.
        """
        if done.callbacks:
            done.succeed(message)
        else:
            done._ok = True
            done._value = message
            done._mark_processed()

    def _targets(self, dests) -> List[_Receiver]:
        """Listening receivers for an addressed delivery, in attach order:
        every promiscuous receiver plus those registered for *dests*."""
        recs = [rec for rec in self._promiscuous if rec.listening]
        by_dest = self._by_dest
        for dest in dests:
            for rec in by_dest.get(dest, ()):
                if rec.listening:
                    recs.append(rec)
        recs.sort(key=_attach_order)
        return recs

    def _deliver(self, message: Message):
        now = self.env.now
        message.delivered_at = now
        self.stats.bits_delivered += message.size_bits
        self.stats.messages_delivered += 1
        kind_bits = self.stats.bits_by_kind
        kind_bits[message.kind] = kind_bits.get(message.kind, 0.0) + message.size_bits
        done = self._done_events.pop(id(message), None)
        faults = self.faults
        if faults is not None and faults.is_null:
            faults = None
        if message.dest == BROADCAST:
            recipients = message.recipients
            if recipients is None:
                # Cached snapshot: a receiver may attach()/detach()/doze
                # during delivery without skipping or double-delivering
                # to its neighbours in the list (mutators take effect at
                # the next delivery, as before).
                receivers = self._listening
                if receivers is None:
                    receivers = self._listening = tuple(
                        rec for rec in self._receivers if rec.listening
                    )
            else:
                # A coalesced data response: only its requesters (and
                # promiscuous watchers) need to decode the broadcast.
                receivers = self._targets(recipients)
        else:
            receivers = self._targets((message.dest,))
        if faults is None:
            # Pristine medium: a pristine broadcast is the hottest
            # dispatch path.
            for rec in receivers:
                rec.callback(message, now)
        else:
            # One judgment for the whole delivery, covering only the
            # non-wired receivers actually dispatched to: dozing clients
            # and unaddressed bystanders consume no draws (see
            # docs/PROTOCOLS.md).
            keys = [rec.key for rec in receivers if not rec.wired]
            fates = iter(faults.judge(message, keys))
            corrupted_copy: Optional[Message] = None
            for rec in receivers:
                if not rec.wired:
                    fate = next(fates)
                    if fate is _DROP:
                        continue
                    if fate is _CORRUPT:
                        if corrupted_copy is None:
                            corrupted_copy = replace(message, corrupted=True)
                            corrupted_copy.delivered_at = now
                        rec.callback(corrupted_copy, now)
                        continue
                rec.callback(message, now)
        if done is not None:
            self._complete(done, message)
