"""Waitable queues for producer/consumer coordination between processes.

:class:`Store` is an unbounded FIFO queue; :class:`PriorityStore` pops
the :class:`PriorityItem` with the smallest ``(priority, seq)`` key
first.

Hot-path notes: a put, and a get that finds an item with no getter
queued ahead of it, succeed inline (the event-succeed heap push without
property checks), and :class:`PriorityStore` keys its heap by primitive
``(priority, seq)`` tuples sifted by the C ``heapq`` instead of
heap-sorting rich objects.  Both preserve the exact event order of the
straightforward implementations (kernel golden tests).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, List

from .event import Event, NORMAL, PENDING

if TYPE_CHECKING:
    from .environment import Environment


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires at once, item stored."""

    __slots__ = ()

    def __init__(self, store: "Store", item: Any) -> None:
        # Inlined Event.__init__ and succeed(): the store is unbounded,
        # so every put is accepted on the spot.  Waiting getters are
        # then served, oldest first.
        self.env = env = store.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._processed = False
        self._defused = False
        self._proc = None
        store._store_item(item)
        env._eid = eid = env._eid + 1
        heappush(env._heap, (env._now, NORMAL, eid, self))
        if store._get_queue:
            store._serve_gets()


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
        # Every put serves the queued getters, so a getter queues only
        # while the store is empty; an item with no getter ahead of us
        # is ours, taken and succeeded inline.
        if store.items and not store._get_queue:
            self._ok = True
            self._value = store._take_item()
            env._eid = eid = env._eid + 1
            heappush(env._heap, (env._now, NORMAL, eid, self))
        else:
            store._get_queue.append(self)


class Store:
    """Unbounded FIFO queue: ``put`` never blocks, ``get`` waits while empty.

    Parameters
    ----------
    env:
        Owning environment.
    """

    __slots__ = ("env", "items", "_get_queue")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: List[Any] = []
        self._get_queue: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Store *item*; the returned event fires at the current instant."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Store *item* immediately, without allocating a put event.

        For fire-and-forget producers (the wireless channels): skips the
        StorePut event, its heap round-trip and its callbacks.
        """
        self._store_item(item)
        if self._get_queue:
            self._serve_gets()

    def get(self) -> StoreGet:
        """Request an item; the returned event fires with the item."""
        return StoreGet(self)

    # -- internals -----------------------------------------------------------

    def _store_item(self, item: Any) -> None:
        self.items.append(item)

    def _take_item(self) -> Any:
        return self.items.pop(0)

    def _serve_gets(self) -> None:
        """Hand stored items to queued getters, oldest first."""
        env = self.env
        items = self.items
        get_queue = self._get_queue
        while get_queue:
            get_event = get_queue[0]
            if get_event._value is not PENDING:  # cancelled externally
                get_queue.pop(0)
                continue
            if not items:
                return
            # Inlined get_event.succeed(self._take_item())
            get_event._ok = True
            get_event._value = self._take_item()
            env._eid = eid = env._eid + 1
            heappush(env._heap, (env._now, NORMAL, eid, get_event))
            get_queue.pop(0)


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
    """Store that always yields the smallest :class:`PriorityItem` first.

    FIFO order among equal priorities is the caller's responsibility
    (``PriorityItem.seq`` provides it).  Internally ``items`` is a
    C-``heapq`` of ``(priority, seq, item)`` tuples, so sifts compare
    primitives, never rich items.  A full key tie compares the items,
    which PriorityItem equates by the same key, so the heap arrangement
    and pop order — ties included — match heap-sorting the items
    themselves.
    """

    __slots__ = ()

    def _store_item(self, item: PriorityItem) -> None:
        heappush(self.items, (item.priority, item.seq, item))

    def _take_item(self) -> PriorityItem:
        return heappop(self.items)[2]

    def peek(self) -> PriorityItem:
        """Smallest stored item without removing it (IndexError if empty)."""
        return self.items[0][2]
