"""Waitable queues for producer/consumer coordination between processes.

:class:`Store` is an (optionally bounded) FIFO queue; :class:`PriorityStore`
pops the smallest item first (items must be orderable — see
:class:`PriorityItem` for attaching arbitrary payloads); :class:`FilterStore`
lets consumers wait for items matching a predicate.

Hot-path notes: ``Store._trigger`` runs once per put/get and inlines the
event-succeed heap push (property-free slot access), and
:class:`PriorityStore` keys its heap by primitive ``(priority, seq)``
tuples sifted by the C ``heapq`` instead of heap-sorting rich objects.
Both preserve the exact event order of the straightforward
implementations (kernel golden tests).
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List

from .event import Event, NORMAL, PENDING

if TYPE_CHECKING:
    from .environment import Environment

Infinity = float("inf")


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires once the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        # Inlined Event.__init__ (one StorePut per channel message).
        self.env = env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self._proc = None
        self.item = item
        # Uncontended fast path: no pending puts ahead of us and room in
        # the store — store + succeed immediately, skipping the trigger
        # fixpoint scan.  (Pending puts imply the store is full, so the
        # queue check alone cannot starve an earlier put.)  Waiting
        # getters are then served exactly as the trigger scan would.
        if not store._put_queue and len(store.items) < store.capacity:
            store._store_item(item)
            # Inlined self.succeed()
            self._ok = True
            self._value = None
            env._eid = eid = env._eid + 1
            heappush(env._heap, (env._now, NORMAL, eid, self))
            if store._get_queue:
                store._serve_gets()
        else:
            store._put_queue.append(self)
            store._trigger()


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        # Inlined Event.__init__ (one StoreGet per channel receive).
        self.env = env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self._proc = None
        # Uncontended fast path (plain FIFO/priority gets only — filtered
        # gets go through FilterStore._trigger): an item is available and
        # no getter queued ahead of us.  Taking the item may free
        # capacity, so pending puts are then served exactly as the
        # trigger scan would (puts make no progress before our take —
        # they are pending because the store is full).
        if type(self) is StoreGet and store.items and not store._get_queue:
            item = store._take_item(self)
            # Inlined self.succeed(item)
            self._ok = True
            self._value = item
            env._eid = eid = env._eid + 1
            heappush(env._heap, (env._now, NORMAL, eid, self))
            if store._put_queue:
                store._serve_puts()
        else:
            store._get_queue.append(self)
            store._trigger()


class FilterStoreGet(StoreGet):
    """Get-event carrying the predicate it is waiting to satisfy."""

    __slots__ = ("filter",)

    def __init__(self, store: "FilterStore", filter: Callable[[Any], bool]) -> None:
        self.filter = filter
        super().__init__(store)


class Store:
    """FIFO queue with blocking put/get semantics.

    Parameters
    ----------
    env:
        Owning environment.
    capacity:
        Maximum number of stored items; ``put`` blocks when full
        (default: unbounded).
    """

    __slots__ = ("env", "capacity", "items", "_put_queue", "_get_queue")

    def __init__(self, env: Environment, capacity: float = Infinity) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Queue *item*; the returned event fires once it is accepted."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Store *item* immediately, without allocating a put event.

        For fire-and-forget producers on effectively unbounded stores
        (the wireless channels): skips the StorePut event, its heap
        round-trip and its callbacks.  Raises when the store is full
        instead of blocking.
        """
        if len(self.items) >= self.capacity:
            raise RuntimeError(f"{type(self).__name__} is full")
        self._store_item(item)
        if self._get_queue:
            self._serve_gets()

    def get(self) -> StoreGet:
        """Request an item; the returned event fires with the item."""
        return StoreGet(self)

    # -- internals -----------------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._store_item(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self._take_item(event))
            return True
        return False

    def _store_item(self, item: Any) -> None:
        self.items.append(item)

    def _take_item(self, event: StoreGet) -> Any:
        return self.items.pop(0)

    def _serve_gets(self) -> None:
        """Hand stored items to queued getters, oldest first.

        One pass suffices after a put/put_nowait fast path: gets free
        capacity but the put queue was empty (else the slow path ran),
        so no put can unblock mid-scan.  FilterStore overrides this with
        its predicate-aware scan.
        """
        env = self.env
        items = self.items
        get_queue = self._get_queue
        idx = 0
        while idx < len(get_queue):
            get_event = get_queue[idx]
            if get_event._value is not PENDING:  # cancelled externally
                get_queue.pop(idx)
                continue
            if not items:
                return
            item = self._take_item(get_event)
            # Inlined get_event.succeed(item)
            get_event._ok = True
            get_event._value = item
            env._eid = eid = env._eid + 1
            heappush(env._heap, (env._now, NORMAL, eid, get_event))
            get_queue.pop(idx)

    def _serve_puts(self) -> None:
        """Accept queued puts while capacity lasts, oldest first.

        One pass suffices after a get fast path: accepted puts add
        items, but the get queue was empty (else the slow path ran), so
        no getter can unblock mid-scan.
        """
        env = self.env
        capacity = self.capacity
        items = self.items
        put_queue = self._put_queue
        idx = 0
        while idx < len(put_queue):
            put_event = put_queue[idx]
            if put_event._value is not PENDING:  # cancelled externally
                put_queue.pop(idx)
                continue
            if len(items) >= capacity:
                return
            self._store_item(put_event.item)
            # Inlined put_event.succeed()
            put_event._ok = True
            put_event._value = None
            env._eid = eid = env._eid + 1
            heappush(env._heap, (env._now, NORMAL, eid, put_event))
            put_queue.pop(idx)

    def _trigger(self) -> None:
        """Match as many pending puts/gets as possible.

        Semantically identical to looping ``_do_put``/``_do_get`` to a
        fixpoint, with the event-succeed heap push inlined: this runs
        once per put/get — the busiest store path after the run loop —
        and the succeed() property checks are pure overhead for events
        we just verified to be pending.
        """
        env = self.env
        capacity = self.capacity
        items = self.items
        put_queue = self._put_queue
        get_queue = self._get_queue
        progress = True
        while progress:
            progress = False
            idx = 0
            while idx < len(put_queue):
                put_event = put_queue[idx]
                if put_event._value is not PENDING:  # cancelled externally
                    put_queue.pop(idx)
                    continue
                if len(items) < capacity:
                    self._store_item(put_event.item)
                    # Inlined put_event.succeed()
                    put_event._ok = True
                    put_event._value = None
                    env._eid = eid = env._eid + 1
                    heappush(env._heap, (env._now, NORMAL, eid, put_event))
                    put_queue.pop(idx)
                    progress = True
                else:
                    idx += 1
            idx = 0
            while idx < len(get_queue):
                get_event = get_queue[idx]
                if get_event._value is not PENDING:
                    get_queue.pop(idx)
                    continue
                if items:
                    item = self._take_item(get_event)
                    # Inlined get_event.succeed(item)
                    get_event._ok = True
                    get_event._value = item
                    env._eid = eid = env._eid + 1
                    heappush(env._heap, (env._now, NORMAL, eid, get_event))
                    get_queue.pop(idx)
                    progress = True
                else:
                    idx += 1


class PriorityItem:
    """Wrapper giving an arbitrary payload a sort key for a PriorityStore.

    Items with equal priority dequeue FIFO thanks to the sequence counter.
    Ordering (and equality) consider only ``(priority, seq)`` — never the
    payload.
    """

    __slots__ = ("priority", "seq", "item")

    def __init__(self, priority: float, seq: int = 0, item: Any = None) -> None:
        self.priority = priority
        self.seq = seq
        self.item = item

    def __repr__(self) -> str:
        return (
            f"PriorityItem(priority={self.priority!r}, seq={self.seq!r}, "
            f"item={self.item!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PriorityItem):
            return NotImplemented
        return self.priority == other.priority and self.seq == other.seq

    def __lt__(self, other: "PriorityItem") -> bool:
        sp, op = self.priority, other.priority
        if sp != op:
            return sp < op
        return self.seq < other.seq


class PriorityStore(Store):
    """Store that always yields the smallest item first.

    Items must be mutually orderable; use :class:`PriorityItem` to attach
    non-orderable payloads.  FIFO order among equal keys is the caller's
    responsibility (``PriorityItem.seq`` provides it).

    Internally ``items`` is a C-``heapq`` of ``(priority, seq, payload)``
    tuples — PriorityItems key as ``(priority, seq)``, bare numbers as
    ``(value, 0)`` — so sifts compare primitives, never rich items.  A
    key tie compares payloads, which PriorityItem equates by the same
    key, so the heap arrangement and pop order — ties included — match
    heap-sorting the items themselves.  Other orderables drop to a
    ``heapq`` over ``items`` directly (they have no primitive key),
    chosen per store by its first item — the representations never mix,
    just as items of unrelated types were never mutually orderable
    before.
    """

    __slots__ = ("_generic",)

    def __init__(self, env: Environment, capacity: float = Infinity) -> None:
        super().__init__(env, capacity)
        self._generic = False

    def _store_item(self, item: Any) -> None:
        cls = type(item)
        if not self._generic:
            if cls is PriorityItem:
                heapq.heappush(self.items, (item.priority, item.seq, item))
                return
            if cls is int or cls is float or isinstance(item, (int, float)):
                heapq.heappush(self.items, (item, 0, item))
                return
            if self.items:
                raise TypeError(
                    f"cannot mix {item!r} with the store's keyed items"
                )
            self._generic = True
        heapq.heappush(self.items, item)

    def _take_item(self, event: StoreGet) -> Any:
        if self._generic:
            return heapq.heappop(self.items)
        return heapq.heappop(self.items)[2]

    def peek(self) -> Any:
        """Smallest stored item without removing it (IndexError if empty)."""
        if self._generic:
            return self.items[0]
        return self.items[0][2]


class FilterStore(Store):
    """Store whose consumers may wait for items matching a predicate."""

    __slots__ = ()

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> FilterStoreGet:
        """Request the first stored item for which *filter* returns True."""
        return FilterStoreGet(self, filter)

    def _do_get(self, event: StoreGet) -> bool:
        for i, item in enumerate(self.items):
            if event.filter(item):  # type: ignore[attr-defined]
                self.items.pop(i)
                event.succeed(item)
                return True
        return False

    def _serve_gets(self) -> None:
        # Filtered getters must each be offered every item; the FIFO
        # single-pass serve would hand them the head only.
        self._trigger()

    def _trigger(self) -> None:
        # Unlike the FIFO store, a non-matching head must not block later
        # getters, so every pending getter is offered every item.  Not a
        # hot path — the readable _do_put/_do_get form stays.
        idx = 0
        while idx < len(self._put_queue):
            event = self._put_queue[idx]
            if event.triggered or self._do_put(event):
                self._put_queue.pop(idx)
            else:
                idx += 1
        idx = 0
        while idx < len(self._get_queue):
            get_event = self._get_queue[idx]
            if get_event.triggered or self._do_get(get_event):
                self._get_queue.pop(idx)
            else:
                idx += 1
