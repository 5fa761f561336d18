"""Scheme interfaces: the pluggable server/client invalidation policies.

A *scheme* (TS, AT, SIG, BS, TS-with-checking, AFW, AAW, ...) is a pair of
policies:

* the :class:`ServerPolicy` decides what report to broadcast each period
  and answers scheme-specific uplink traffic;
* the :class:`ClientPolicy` decides, on each received report, what the
  client invalidates and whether it must ask the server for help first.

Policies talk to the simulation through small duck-typed context objects
(the server and client actors in :mod:`repro.sim`), keeping the scheme
logic free of event-loop plumbing and directly unit-testable.

Client contexts expose::

    cache            -> repro.cache.ClientCache
    tlb              -> float   (last-heard report time; settable)
    send_tlb(tlb)                        # adaptive uplink, payload = b_T bits
    send_check_request(entries)          # checking upload
    note_cache_drop()                    # metrics hook

Server contexts expose::

    db               -> repro.db.Database
    params           -> repro.sim.SystemParams
    now              -> float
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..cache import ClientCache
from ..reports.base import Invalidation, Report, ReportKind


class SessionOutcome(enum.Enum):
    """What one offered report did to the session (policies return the
    first two)."""

    READY = "ready"          # applied; cache certified as of the report
    PENDING = "pending"      # salvage in flight (Tlb/check uploaded)
    DUPLICATE = "duplicate"  # repetition-coded copy already applied
    LAGGED = "lagged"        # report older than Tlb (stale publisher)


_READY = SessionOutcome.READY
_WINDOW = ReportKind.WINDOW
_ENLARGED_WINDOW = ReportKind.ENLARGED_WINDOW
_BIT_SEQUENCES = ReportKind.BIT_SEQUENCES


def effective_window_seconds(ctx, params) -> float:
    """The window span a server policy should cover right now.

    The loss-adaptive control loop (:mod:`repro.schemes.loss_adaptive`)
    advertises a widened ``effective_window_seconds`` on the server
    context each broadcast tick; without it — loss adaptation off, or a
    duck-typed test context — this is exactly ``params.window_seconds``.
    Widening is monotone-safe: ``WindowReport.covers`` only gains clients
    as the span grows, so a wider window never un-salvages anyone.
    """
    span = getattr(ctx, "effective_window_seconds", None)
    return params.window_seconds if span is None else span


def apply_window_report(cache: ClientCache, report) -> int:
    """Apply a covered TS/enlarged window report to *cache*.

    First reconciles *suspect* entries (fetched across a report boundary,
    so their coherence predates the client's last report): the window
    validates them precisely when it reaches back past their coherence
    time, and drops them otherwise.  Then invalidates each cached item
    the report lists with an update time newer than the entry's effective
    timestamp (Figure 1's ``t_c < t_j`` test) and certifies survivors as
    of the report time.  Returns the number of invalidated entries.
    """
    # Fast paths for a cache with no suspect entries: every entry's
    # effective timestamp is then at least the certified floor (certify
    # and Tlb advance in lockstep in the window-scheme clients; any entry
    # that could violate the invariant is flagged unreconciled), so only
    # report items with ``ts > floor`` can invalidate anything.  At the
    # paper's update rates most reports carry no such item at all, and
    # one tick's listeners share a floor, so the filter below is computed
    # once per broadcast — see docs/PERFORMANCE.md.
    if not cache.unreconciled:
        floor = cache.certified_floor
        if report.newest_ts <= floor:
            cache.certify(report.timestamp)
            return 0
        dropped = cache.invalidate_stale(report.fresh_since(floor))
        cache.certify(report.timestamp)
        return dropped
    dropped = 0
    for entry in cache.unreconciled_entries():
        if entry.ts < report.window_start:
            # The report cannot bound updates in (entry.ts, T]: a fetch
            # slower than the whole window.  Conservatively drop.
            cache.invalidate(entry.item)
            dropped += 1
    items = report.items
    if len(items) <= len(cache):
        dropped += cache.invalidate_stale(items.items())
    else:
        for entry in cache.entries():
            ts = items.get(entry.item)
            if ts is not None and ts > cache.effective_ts(entry):
                cache.invalidate(entry.item)
                dropped += 1
    cache.certify(report.timestamp)
    return dropped


def reconcile_with_bitseq(cache: ClientCache, report) -> int:
    """Reconcile suspect entries against a Bit-Sequences report.

    A suspect entry's own coherence time selects the level that bounds
    updates since then; membership in that level's 1-bits (or an
    unsalvageable coherence time) drops the entry.  Must run before the
    main BS invalidation + certify.
    """
    dropped = 0
    for entry in cache.unreconciled_entries():
        if not report.salvageable(entry.ts):
            cache.invalidate(entry.item)
            dropped += 1
        elif entry.ts < report.ts_b0 and entry.item in report.ones_set(
            report.level_for(entry.ts)
        ):
            cache.invalidate(entry.item)
            dropped += 1
    return dropped


def reconcile_with_amnesic(cache: ClientCache, report) -> int:
    """Reconcile suspect entries against an AT report.

    The report only knows the last interval: suspects coherent since the
    previous report are covered by the report's id set; older ones drop.
    """
    dropped = 0
    for entry in cache.unreconciled_entries():
        if entry.ts < report.timestamp - report.interval:
            cache.invalidate(entry.item)
            dropped += 1
    return dropped


def drop_unreconciled(cache: ClientCache) -> int:
    """Conservatively drop every suspect entry (schemes with no way to
    re-validate them, e.g. signatures)."""
    dropped = 0
    for entry in cache.unreconciled_entries():
        cache.invalidate(entry.item)
        dropped += 1
    return dropped


def apply_invalidation(
    cache: ClientCache, inv: Invalidation, report_time: float
) -> int:
    """Apply a covered :class:`Invalidation` set (BS/AT style: no per-item
    timestamps, drop every listed cached item), then certify survivors."""
    if not inv.covered:
        raise ValueError("cannot apply an uncovered invalidation")
    if not inv.items:
        cache.certify(report_time)
        return 0
    dropped = 0
    if len(inv.items) <= len(cache):
        for item in inv.items:
            if cache.invalidate(item):
                dropped += 1
    else:
        for item in cache.item_ids():
            if item in inv.items and cache.invalidate(item):
                dropped += 1
    cache.certify(report_time)
    return dropped


class ClientPolicy:
    """Per-client scheme behaviour.  As is, the TS, BS and AT client
    (Figures 1-2); checking, GCORE, AFW and AAW change only what happens
    when no report covers ``Tlb`` (:meth:`on_uncovered`), and SIG
    replaces :meth:`on_report`.  Subclasses hold per-client state."""

    def __init__(self, params=None, client_id: int = 0):
        self.params = params
        self.client_id = client_id

    def on_report(self, ctx, report) -> SessionOutcome:
        """The covered-report rule, once for every report kind.

        A report covering ``ctx.tlb`` is applied: the cache is certified
        as of the report and ``ctx.tlb`` advances to it.  A window covers
        ``Tlb >= window_start`` (an enlarged window reaches its dummy
        record), Bit-Sequences any ``Tlb`` inside its hierarchy, and an
        amnesic report a ``Tlb`` no older than its one interval.  Any
        other report goes to :meth:`on_uncovered`.  The covered paths
        stay inline: this runs once per listener per tick.
        """
        t = report.timestamp
        cache = ctx.cache
        kind = report.kind
        if kind is _WINDOW or kind is _ENLARGED_WINDOW:
            if report.window_start > ctx.tlb:  # not covers(), inlined
                return self.on_uncovered(ctx, report)
            # No-news certify, inlined from apply_window_report's fast path.
            if not cache.unreconciled and report.newest_ts <= cache.certified_floor:
                cache.certify(t)
            else:
                apply_window_report(cache, report)
        elif kind is _BIT_SEQUENCES:
            # No-news certify: no update since Tlb (``Tlb >= TS(B0)``) and
            # no suspects to reconcile.
            if ctx.tlb >= report.ts_b0 and not cache.unreconciled:
                cache.certify(t)
            else:
                inv = report.invalidation_for(ctx.tlb)
                if not inv.covered:
                    return self.on_uncovered(ctx, report)
                reconcile_with_bitseq(cache, report)
                apply_invalidation(cache, inv, t)
        else:  # amnesic
            inv = report.invalidation_for(ctx.tlb)
            if not inv.covered:
                return self.on_uncovered(ctx, report)
            reconcile_with_amnesic(cache, report)
            apply_invalidation(cache, inv, t)
        ctx.tlb = t
        return _READY

    def on_uncovered(self, ctx, report: Report) -> SessionOutcome:
        """No report covers ``ctx.tlb``: drop the whole cache and
        resynchronise at this report.  Schemes that can salvage upload
        instead and return ``PENDING``."""
        ctx.cache.drop_all()
        ctx.note_cache_drop()
        ctx.cache.certify(report.timestamp)
        ctx.tlb = report.timestamp
        return _READY

    def on_validity_reply(self, ctx, invalid_items: Iterable[int], certified_at: float):
        """Handle the server's answer to a checking upload (checking-style
        schemes only)."""
        raise NotImplementedError(f"{type(self).__name__} does not use checking")

    def on_reconnect(self, ctx, now: float):
        """Reset per-disconnection-episode latches (e.g. the adaptive
        client's uploaded ``Tlb``)."""

    def on_disconnect(self, ctx, now: float):
        """Hook at disconnection time (rarely needed)."""

    def on_promote(self, ctx, now: float):
        """A pooled client woke back to full fidelity (population
        aggregation; see :mod:`repro.sim.population`).

        A promotion is a reconnection whose doze was spent as a pool
        stratum count: the salvage path that follows (``send_tlb`` /
        ``send_check_request`` at the next report) must behave exactly
        as after an ordinary wake, so the default delegates to
        :meth:`on_reconnect`.  Schemes with state the stratum cannot
        carry may override.
        """
        self.on_reconnect(ctx, now)

    def on_missed_reports(self, ctx, n_missed: int, now: float):
        """A connected client detected *n_missed* lost/corrupted reports.

        Called when a received report's timestamp is more than one
        broadcast interval past the last report this client decoded
        while it was listening the whole time — i.e. the wireless hop
        ate reports.  The window/covers machinery in :meth:`on_report`
        already recovers (a gap within the window is invisible; beyond
        it, the ordinary salvage path runs), so the default is telemetry
        only; schemes may override to react proactively.
        """

    def on_epoch_change(self, ctx, old_epoch: int, new_epoch: int, now: float):
        """The server restarted under this client (or the IR timeline ran
        backwards — equally a sign the certified history is gone).

        The new incarnation's reports describe only post-restart history,
        so nothing the client certified under the old epoch can be
        trusted: the safe default drops the whole cache, resets the
        per-episode uplink latches via :meth:`on_reconnect` (any rescue
        the client was waiting on died with the old server), and lets the
        caller resynchronise ``Tlb`` to the new timeline.  Schemes with a
        cheaper recovery (e.g. checking-style revalidation) may override.
        """
        ctx.cache.drop_all()
        ctx.note_cache_drop()
        self.on_reconnect(ctx, now)

    def on_validation_timeout(self, ctx, now: float) -> bool:
        """An expected validity/rescue reply never arrived (lost uplink
        request or lost reply).

        Return True after re-issuing the upload (the client keeps
        waiting), or False to give up — the client then degrades to a
        full cache drop and resynchronises at the next report.  Schemes
        without an uplink lifecycle keep the default give-up.
        """
        return False


class PendingTlbBuffer:
    """Bounded per-interval buffer of the adaptive schemes' salvage state.

    Keyed by client so a retransmitted ``Tlb`` (the retry layer re-sends
    lost uploads) refreshes its slot instead of growing the buffer, and
    capped so a reconnection storm cannot balloon the server's memory:
    uploads beyond ``capacity`` distinct clients are counted and shed
    (those clients fall back to the ordinary drop-all path — graceful
    degradation, not a crash).
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._by_client: Dict[int, float] = {}
        #: Retransmissions observed (same client, same interval).
        self.duplicates = 0
        #: Uploads shed because the buffer was full.
        self.overflows = 0

    def __len__(self):
        return len(self._by_client)

    def add(self, client_id: int, tlb: float) -> bool:
        """Record one upload; returns False when shed (buffer full)."""
        if client_id in self._by_client:
            self.duplicates += 1
            self._by_client[client_id] = tlb
            return True
        if self.capacity is not None and len(self._by_client) >= self.capacity:
            self.overflows += 1
            return False
        self._by_client[client_id] = tlb
        return True

    def drain(self) -> List[float]:
        """Pop and return every buffered ``Tlb`` (arrival order)."""
        tlbs = list(self._by_client.values())
        self._by_client.clear()
        return tlbs


class ServerPolicy:
    """Per-cell scheme behaviour on the server."""

    def __init__(self, params=None, db=None):
        self.params = params
        self.db = db

    def build_report(self, ctx, now: float) -> Report:
        """Construct the invalidation report to broadcast at *now*."""
        raise NotImplementedError

    def on_tlb(self, ctx, client_id: int, tlb: float, now: float):
        """Receive a client's last-heard timestamp (adaptive schemes)."""
        raise NotImplementedError(f"{type(self).__name__} does not use Tlb uploads")

    def on_check_request(
        self, ctx, client_id: int, entries: List[Tuple[int, float]], now: float
    ) -> Tuple[List[int], float, float]:
        """Answer a checking upload.

        Returns ``(invalid_items, certified_at, reply_size_bits)``.
        """
        raise NotImplementedError(f"{type(self).__name__} does not use checking")

    def on_item_update(self, item: int, old_version: int, new_version: int):
        """Observe a database update (used by signature schemes)."""

    def salvage_floor(self, ctx) -> float:
        """Oldest ``Tlb``/check timestamp this cell can answer honestly.

        A ``Tlb`` upload or checking request reaching below this floor
        refers to history the cell's database no longer holds; with
        cooperative salvage on, the server backfills that history from a
        neighbor cell before dispatching to the policy (see
        docs/PROTOCOLS.md).  The default — the database's own history
        floor — is right for every shipped scheme; schemes with extra
        salvage state may override.
        """
        return ctx.db.origin_time


class Scheme:
    """A named scheme: factories for its two policies."""

    def __init__(
        self,
        name: str,
        server_factory: Callable[..., ServerPolicy],
        client_factory: Callable[..., ClientPolicy],
        description: str = "",
    ):
        self.name = name
        self.description = description
        self._server_factory = server_factory
        self._client_factory = client_factory

    def __repr__(self):
        return f"<Scheme {self.name}>"

    def make_server_policy(self, params, db) -> ServerPolicy:
        """Instantiate the server-side policy for one simulation."""
        return self._server_factory(params=params, db=db)

    def make_client_policy(self, params, client_id: int) -> ClientPolicy:
        """Instantiate one client's policy."""
        return self._client_factory(params=params, client_id=client_id)
