"""Population aggregation: the long-dozing tail as a statistical pool.

The paper simulates every mobile host individually, which caps a cell at
a few hundred clients.  The pool below is the scaling seam: the K
"interesting" clients (active queries, salvage in flight, pending
validation) stay full-fidelity :class:`~repro.sim.client.MobileClient`
actors, while a client entering a long doze is *absorbed* — its O(cache)
state is collapsed to a stratum key

    ``(cell, epoch, Tlb-bucket, cache signature)``

where the cache signature counts cached items inside/outside the query
pattern's hot region.  The pool keeps only counts per stratum plus a
tiny per-member residue (ids, the scheme policy object), filed in a
*wake calendar* of two queues behind one kernel event armed at the
earlier head's absolute wake time.  Members seeded at build time
(``start_in_pool``) sit in two flat arrays, wake time and client id,
sorted by wake and read through a cursor: no Python object per member
until it wakes.  Members absorbed during the run sit in a heap of
``(wake_at, park_seq, member)`` entries.  A parked member therefore
costs one calendar entry, not an event, a callback list and a kernel
heap entry.

When a member's wake comes due it is *promoted* back into a full
client: a cache consistent with its stratum is rebuilt
(:func:`rebuild_cache` — every entry is an honest ``Tlb``-time copy:
version = the item's version at ``Tlb``, timestamp = ``Tlb``), and the
ordinary reconnect machinery then feeds the correct uplink-checking and
salvage load into the server/scheme layer (``send_tlb`` /
``send_check_request`` at the next report).  A ``Tlb`` bucket is one
broadcast interval ``L`` wide, so the bucketing is lossless: every
heard ``Tlb`` is a report time ``i * L``, and the floor only ever moves
a value off that grid down, which is conservative (a client claiming
older knowledge can only over-invalidate or over-salvage, never answer
stale).

``SystemParams.aggregation = None`` (the default) disables the whole
layer and is bit-identical to the seed (pinned by the golden tests);
the aggregated == exact equivalence is established by
``tests/sim/test_population_differential.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..cache import CacheEntry, ClientCache
from ..des import Environment
from ..des.monitor import MetricSet
from ..des.rng import RandomStream, RandomStreams
from . import metrics as m
from .workload import AccessPattern

#: A stratum key: (cell, report epoch, Tlb bucket, n_hot, n_cold).
StratumKey = Tuple[int, int, int, int, int]


@dataclass(frozen=True, slots=True)
class AggregationConfig:
    """Knob group for the hybrid client model (None = exact simulation).

    Attributes
    ----------
    k_exact:
        Clients with id below this are never absorbed — they stay
        full-fidelity for the whole run (the paper's "interesting"
        clients).  0 lets every client be pooled when eligible.
    min_doze_intervals:
        Only dozes at least this many broadcast intervals long are
        absorbed; shorter naps stay exact (absorbing them would buy no
        memory and cost reconstruction accuracy).
    start_in_pool:
        Fraction of the eligible (id >= ``k_exact``) population that
        *starts* parked in the pool instead of being constructed — the
        steady-state initial condition that lets a 100k-client cell
        build without 100k live actors.  0.0 (the default) constructs
        everyone, keeping t=0 identical to the exact model.
    """

    k_exact: int = 0
    min_doze_intervals: float = 2.0
    start_in_pool: float = 0.0

    def __post_init__(self) -> None:
        if self.k_exact < 0:
            raise ValueError("k_exact must be >= 0")
        if self.min_doze_intervals <= 0:
            raise ValueError("min_doze_intervals must be positive")
        if not 0.0 <= self.start_in_pool <= 1.0:
            raise ValueError("start_in_pool must be in [0, 1]")


def cache_signature(cache: ClientCache, pattern: AccessPattern) -> Tuple[int, int]:
    """``(n_hot, n_cold)``: cached items inside/outside the hot region.

    With a flat pattern every cached item counts as cold — the signature
    degenerates to ``(0, len(cache))``, i.e. pure occupancy.
    """
    hot = pattern.hot
    if hot is None:
        return (0, len(cache))
    n_hot = 0
    for item in cache.item_ids():
        if hot.contains(item):
            n_hot += 1
    return (n_hot, len(cache) - n_hot)


def warm_signature(pattern: AccessPattern, capacity: int) -> Tuple[int, int]:
    """The signature ``warm_fill`` would produce, without drawing it.

    Mirrors :meth:`AccessPattern.warm_fill`: hot items fill first (up to
    the hot region's size), the rest is cold.  Used to park
    ``start_in_pool`` members without materialising their caches.
    """
    capacity = min(capacity, pattern.n_items)
    hot = pattern.hot
    if hot is None or pattern.hot_prob <= 0:
        return (0, capacity)
    n_hot = min(capacity, hot.size)
    return (n_hot, capacity - n_hot)


def rebuild_cache(
    stream: RandomStream,
    pattern: AccessPattern,
    capacity: int,
    n_hot: int,
    n_cold: int,
    tlb: float,
    update_log: Any = None,
) -> ClientCache:
    """Rebuild a promoted member's cache consistent with its stratum.

    Draws ``n_hot`` distinct items from the hot region and ``n_cold``
    from its complement (the whole database for a flat pattern).  Every
    entry is an honest ``Tlb``-time copy: version = number of updates at
    or before ``tlb`` (the durable version counter's value then), ts =
    ``tlb`` — exactly what a fetch completing at ``tlb`` would have
    installed, so every scheme's safety argument applies unchanged.  The
    rebuilt cache is certified as of ``tlb``, matching the absorbed
    client's certification floor.
    """
    hot = pattern.hot
    if n_hot < 0 or n_cold < 0:
        raise ValueError("stratum counts must be non-negative")
    if n_hot > 0 and hot is None:
        raise ValueError("stratum has hot items but the pattern has no hot region")
    if n_hot + n_cold > capacity:
        raise ValueError("stratum signature exceeds the cache capacity")
    items: List[int] = []
    if hot is not None and n_hot:
        items += stream.choice_without_replacement(hot.lo, hot.hi, n_hot).tolist()
    if n_cold:
        if hot is None:
            items += stream.choice_without_replacement(
                0, pattern.n_items - 1, n_cold
            ).tolist()
        else:
            # Uniform over the complement of the hot region, via the same
            # skip trick the query pattern uses.
            raw = stream.choice_without_replacement(
                0, pattern.n_items - hot.size - 1, n_cold
            )
            items += np.where(raw < hot.lo, raw, raw + hot.size).tolist()
    versions = (
        [0] * len(items) if update_log is None else update_log.versions_at(items, tlb)
    )
    cache = ClientCache(capacity)
    cache.load(
        [CacheEntry(item, version, tlb) for item, version in zip(items, versions)]
    )
    cache.certify(tlb)
    return cache


class ResumeState:
    """Everything a promoted :class:`MobileClient` starts from."""

    __slots__ = (
        "cache",
        "tlb",
        "report_epoch",
        "report_cell",
        "clock_rate",
        "clock_skew",
    )

    def __init__(
        self,
        cache: ClientCache,
        tlb: float,
        report_epoch: int,
        report_cell: Optional[int],
        clock_rate: float,
        clock_skew: float,
    ) -> None:
        self.cache = cache
        self.tlb = tlb
        self.report_epoch = report_epoch
        self.report_cell = report_cell
        self.clock_rate = clock_rate
        self.clock_skew = clock_skew


class PooledMember:
    """One parked client's residue: ids, stratum, policy, wake time.

    The scheme policy object rides along because some client policies
    carry cross-episode state (SIG's saved combined signatures); it is
    tiny compared to the cache the pool sheds.  An absorbed client parks
    as one of these; a member seeded at build time is two array slots
    until it wakes, and becomes one only when it is promoted.
    """

    __slots__ = (
        "client_id",
        "cell_id",
        "report_cell",
        "report_epoch",
        "tlb_bucket",
        "n_hot",
        "n_cold",
        "policy",
        "wake_at",
        "clock_rate",
        "clock_skew",
    )

    def __init__(
        self,
        client_id: int,
        cell_id: int,
        report_cell: Optional[int],
        report_epoch: int,
        tlb_bucket: int,
        n_hot: int,
        n_cold: int,
        policy: Any,
        wake_at: float,
        clock_rate: float = 1.0,
        clock_skew: float = 0.0,
    ) -> None:
        self.client_id = client_id
        self.cell_id = cell_id
        self.report_cell = report_cell
        self.report_epoch = report_epoch
        self.tlb_bucket = tlb_bucket
        self.n_hot = n_hot
        self.n_cold = n_cold
        self.policy = policy
        self.wake_at = wake_at
        self.clock_rate = clock_rate
        self.clock_skew = clock_skew

    @property
    def key(self) -> StratumKey:
        """The stratum this member is counted under."""
        return (
            self.cell_id,
            self.report_epoch,
            self.tlb_bucket,
            self.n_hot,
            self.n_cold,
        )

    def __repr__(self) -> str:
        return (
            f"<PooledMember {self.client_id} cell={self.cell_id} "
            f"stratum={self.key} wake_at={self.wake_at}>"
        )


class PopulationPool:
    """Counts-per-stratum pool of absorbed (long-dozing) clients.

    The pool owns eligibility, stratum accounting and the wake calendar;
    the model owns client construction — it passes ``promote(member,
    now)`` (build + register the full-fidelity client) and
    ``release(client)`` (drop it from the live registry) at wiring time,
    which keeps this module free of the untyped actor surface.

    Conservation invariant (pinned by the property suite): live clients
    + ``residents`` == ``n_clients`` at every instant,
    ``seeded + absorbed - promoted == residents``, and the calendar holds
    one entry per resident: the heap's entries plus the seeded entries
    not yet woken.

    Wake calendar: two queues.  The seeded tail, parked once by
    :meth:`seed_parked`, is two flat arrays (``seeded_wake``,
    ``seeded_cid``) sorted stably by wake time, read from the cursor
    ``seeded_next``; absorbed members go on ``heap`` as ``(wake_at,
    park_seq, member)``.  Members wake in ``(wake_at, park order)``
    order, each exactly at ``env.now == wake_at``: the earlier head of
    the two queues first, the seeded one on a tie, since seeding ends
    before any absorb.  A NORMAL-priority kernel event
    (:meth:`Environment.timeout_at`) is always pending at the head's
    wake time, and never two at one time.  When one fires it promotes
    every due member and arms the new head unless an event is already
    pending there; a member parked ahead of the head arms its own
    event.  The kernel thus spends one event per distinct wake time that
    comes due.
    """

    __slots__ = (
        "env",
        "params",
        "config",
        "streams",
        "metrics",
        "strata",
        "residents",
        "peak_residents",
        "seed_stream",
        "heap",
        "seeded_wake",
        "seeded_cid",
        "seeded_next",
        "_seeded_at",
        "_seeded_cells",
        "_seeded_signature",
        "_armed",
        "_park_seq",
        "_promote",
        "_release",
        "_bucket_seconds",
        "_min_doze_seconds",
        "_m_absorbed",
        "_m_promoted",
        "_m_seeded",
    )

    def __init__(
        self,
        env: Environment,
        params: Any,
        streams: RandomStreams,
        metrics: MetricSet,
        promote: Callable[["PooledMember", float], Any],
        release: Callable[[Any], None],
    ) -> None:
        self.env = env
        self.params = params
        self.config: AggregationConfig = params.aggregation
        self.streams = streams
        self.metrics = metrics
        #: Member counts per stratum key (never negative; empty strata
        #: are removed eagerly).
        self.strata: Dict[StratumKey, int] = {}
        self.residents = 0
        self.peak_residents = 0
        #: One pool-level stream for build-time seeding draws — parking
        #: 100k members must not materialise 100k per-client generators.
        self.seed_stream = streams.stream("population/seed")
        #: Absorbed members: a heap of ``(wake_at, park_seq, member)``.
        #: ``park_seq`` is unique, so entries never compare members.
        self.heap: List[Tuple[float, int, PooledMember]] = []
        #: The seeded tail: wake times and client ids, sorted stably by
        #: wake time; entries before ``seeded_next`` have woken.
        self.seeded_wake: "np.ndarray[Any, Any]" = np.empty(0)
        self.seeded_cid: "np.ndarray[Any, Any]" = np.empty(0, dtype=np.int64)
        self.seeded_next = 0
        #: Wake time of the seeded head (inf once the tail is exhausted).
        self._seeded_at = math.inf
        #: A seeded member's cell is its id modulo this; all share one
        #: cache signature.
        self._seeded_cells = 1
        self._seeded_signature = (0, 0)
        #: Times at which an armed kernel event is pending.
        self._armed: Set[float] = set()
        self._park_seq = 0
        self._promote = promote
        self._release = release
        interval = params.broadcast_interval
        self._bucket_seconds = interval
        self._min_doze_seconds = self.config.min_doze_intervals * interval
        self._m_absorbed = metrics.bind_counter(m.POOL_ABSORBED)
        self._m_promoted = metrics.bind_counter(m.POOL_PROMOTED)
        self._m_seeded = metrics.bind_counter(m.POOL_SEEDED)

    # -- stratum arithmetic -------------------------------------------------

    def tlb_bucket(self, tlb: float) -> int:
        """Quantize a ``Tlb`` into its stratum bucket: ``Tlb`` floored to
        one broadcast interval."""
        if tlb <= 0.0:
            return 0
        return int(tlb // self._bucket_seconds)

    def bucket_time(self, bucket: int) -> float:
        """The (conservative) ``Tlb`` a bucket reconstructs to."""
        return bucket * self._bucket_seconds

    # -- absorb / seed / promote --------------------------------------------

    def try_absorb(self, client: Any, doze_seconds: float) -> bool:
        """Absorb *client* for a doze of *doze_seconds*, if eligible.

        Eligible means: not one of the K exact clients, a doze long
        enough to be worth pooling, and no protocol state the stratum
        cannot represent (suspect cache entries, a pending validation,
        or an in-flight fetch keep the client exact — those are the
        "interesting" clients by definition).  On True the caller (the
        client actor) must detach its radio and end its query loop.
        """
        if client.client_id < self.config.k_exact:
            return False
        if doze_seconds < self._min_doze_seconds:
            return False
        session = client.session
        cache = session.cache
        if cache.unreconciled or session.pending or client._data_waits:
            return False
        n_hot, n_cold = cache_signature(cache, client.query_pattern)
        now = self.env.now
        report_cell, report_epoch = session.report_identity
        member = PooledMember(
            client_id=client.client_id,
            cell_id=client.cell_id,
            report_cell=report_cell,
            report_epoch=report_epoch,
            tlb_bucket=self.tlb_bucket(session.tlb),
            n_hot=n_hot,
            n_cold=n_cold,
            policy=session.policy,
            wake_at=now + doze_seconds,
            clock_rate=client._clock_rate,
            clock_skew=client._clock_skew,
        )
        self._park(member)
        self._m_absorbed.add()
        self._release(client)
        return True

    def seed_parked(
        self,
        n_cells: int,
        n_hot: int,
        n_cold: int,
        construct: Callable[[int], Any],
    ) -> None:
        """Seed the eligible tail at build time (the steady-state start).

        For each client ``k_exact .. n_clients - 1``, in id order, one
        coin with probability ``start_in_pool`` decides: heads parks it
        mid-doze without ever constructing it, tails calls
        ``construct(client_id)``.  A parked member starts coherent with
        the t=0 database (``Tlb`` bucket 0, epoch 0) in its home cell
        ``client_id % n_cells`` with signature ``(n_hot, n_cold)``, and
        its first wake is drawn right after its coin.  All draws come
        from the pool's own seed stream, so seeding never touches (or
        creates) the per-client streams.  A kernel event is armed at
        each new running minimum of the wakes, in id order, just as
        parking the members one by one would, so construction and
        arming take the same event ids.  Runs once, before any absorb.
        """
        if self.residents or self.seeded_wake.size:
            raise RuntimeError("seed_parked runs once, before any member parks")
        first = self.config.k_exact
        wakes = self.seed_stream.bernoulli_exponentials(
            self.params.n_clients - first,
            self.config.start_in_pool,
            self.params.disconnect_time_mean,
        )
        wakes += self.env.now
        tails = np.isnan(wakes)
        # The calendar head after each member parks; an event is armed
        # wherever it moves.  Temporaries are dropped once spent: at 1M
        # members each is 8 MB of the build's peak.
        head = np.minimum.accumulate(np.where(tails, math.inf, wakes))
        steps = np.flatnonzero(tails | (head < np.append(math.inf, head[:-1])))
        del head
        # Constructions and arms, in id order.
        for i in steps.tolist():
            if tails[i]:
                construct(first + i)
            else:
                self._arm(float(wakes[i]))
        parked = np.flatnonzero(~tails)
        del tails
        wakes = wakes[parked]
        parked += first
        order = np.argsort(wakes, kind="stable")
        self.seeded_cid = parked[order]
        del parked
        self.seeded_wake = wakes = wakes[order]
        del order
        self._seeded_cells = n_cells
        self._seeded_signature = (n_hot, n_cold)
        n_seeded = len(wakes)
        if n_seeded:
            self._seeded_at = float(wakes[0])
        counts = np.bincount(self.seeded_cid % n_cells, minlength=n_cells)
        strata = self.strata
        for cell, count in enumerate(counts.tolist()):
            if count:
                key = (cell, 0, 0, n_hot, n_cold)
                strata[key] = strata.get(key, 0) + count
        self.residents += n_seeded
        self.peak_residents = max(self.peak_residents, self.residents)
        self._m_seeded.add(n_seeded)

    def _park(self, member: PooledMember) -> None:
        key = member.key
        strata = self.strata
        strata[key] = strata.get(key, 0) + 1
        self.residents += 1
        if self.residents > self.peak_residents:
            self.peak_residents = self.residents
        wake_at = member.wake_at
        heap = self.heap
        if wake_at < self._seeded_at and (not heap or wake_at < heap[0][0]):
            # A new head: the old head's event fires too late for it.
            self._arm(wake_at)
        self._park_seq = seq = self._park_seq + 1
        heappush(heap, (wake_at, seq, member))

    def _arm(self, when: float) -> None:
        # A NORMAL-priority event at the absolute wake time: the same
        # (time, priority) the exact model's doze sleep would occupy, so
        # wakes interleave with reports and queries as that sleep would.
        callbacks = self.env.timeout_at(when).callbacks
        assert callbacks is not None  # fresh event: not yet processed
        callbacks.append(self._on_armed)
        self._armed.add(when)

    def _on_armed(self, event: Any) -> None:
        """An armed event fired: promote every due member, re-arm the head."""
        now = self.env.now
        self._armed.discard(now)
        heap = self.heap
        while True:
            if heap and heap[0][0] < self._seeded_at:
                if heap[0][0] > now:
                    break
                self._wake(heappop(heap)[2], now)
            elif self._seeded_at <= now:
                self._wake(self._pop_seeded(now), now)
            else:
                break
        head = min(heap[0][0], self._seeded_at) if heap else self._seeded_at
        if head != math.inf and head not in self._armed:
            self._arm(head)

    def _pop_seeded(self, now: float) -> PooledMember:
        """Take the seeded head off its cursor as a fresh member."""
        i = self.seeded_next
        client_id = int(self.seeded_cid[i])
        self.seeded_next = i + 1
        self._seeded_at = (
            float(self.seeded_wake[i + 1]) if i + 1 < self.seeded_wake.size
            else math.inf
        )
        cell_id = client_id % self._seeded_cells
        n_hot, n_cold = self._seeded_signature
        return PooledMember(
            client_id=client_id,
            cell_id=cell_id,
            report_cell=cell_id,
            report_epoch=0,
            tlb_bucket=0,
            n_hot=n_hot,
            n_cold=n_cold,
            policy=None,
            wake_at=now,
        )

    def _wake(self, member: PooledMember, now: float) -> None:
        key = member.key
        count = self.strata[key] - 1
        if count:
            self.strata[key] = count
        else:
            del self.strata[key]
        self.residents -= 1
        self._m_promoted.add()
        self._promote(member, now)
